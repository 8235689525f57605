#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "src/common/threading.h"
#include "src/context/population_index.h"

namespace pcor {

/// \brief Hard cap on shards per index, far above any sane configuration
/// (256 shards x 64Ki rows already covers 16M rows). Lets per-probe gather
/// buffers live on the stack.
inline constexpr size_t kMaxShardCount = 256;

/// \brief Shards smaller than this are pure overhead: a shard-probe costs a
/// task dispatch plus a word loop, and under 64Ki rows the dispatch wins.
/// Only applies to the automatic default — explicit shard counts (option or
/// PCOR_SHARD_COUNT) are always honored exactly, which is how tests force
/// multi-shard layouts onto tiny datasets.
inline constexpr size_t kMinRowsPerShard = size_t{64} * 1024;

/// \brief Shard count for a dataset of `num_rows`: the PCOR_SHARD_COUNT env
/// var when set (clamped to [1, kMaxShardCount]), else DefaultThreadCount()
/// clamped so no shard drops below kMinRowsPerShard. Tiny datasets therefore
/// default to one shard — sharding them would only add dispatch overhead —
/// while the env pin still forces any layout for equivalence testing.
size_t DefaultShardCount(size_t num_rows);

/// \brief Construction knobs for ShardedPopulationIndex.
struct ShardedIndexOptions {
  /// Number of row-range shards. 0 = DefaultShardCount(num_rows); an
  /// explicit value is honored exactly (clamped to kMaxShardCount).
  size_t shard_count = 0;
  /// Storage for every shard's value bitmaps.
  IndexStorage storage = DefaultIndexStorage();
  /// Threads in the lazily created probe pool. 0 = DefaultThreadCount().
  /// With one shard the pool is never created.
  size_t probe_threads = 0;
};

/// \brief Row-sharded population index: the dataset's row space is split
/// into contiguous word-aligned ranges, each indexed by an independent
/// PopulationIndex in its own local row space. Probes scatter one sub-probe
/// per shard across a shared ThreadPool and gather in **fixed ascending
/// shard order** — the same canonical-merge discipline the SIMD kernels use
/// for lane reductions, lifted to shard granularity.
///
/// Determinism contract: every probe is bit-identical to an unsharded
/// PopulationIndex over the same dataset and storage, for any shard count
/// and any thread count (including 1). The pieces that make this hold:
///   - shard boundaries depend only on (num_rows, shard_count), never on
///     thread scheduling;
///   - counts are sums over disjoint row ranges of exact per-shard counts
///     (integer addition — associative, no ordering sensitivity);
///   - populations gather by copying each shard's local bitmap words into
///     the global bitmap's disjoint word range (boundaries are multiples of
///     64, so words concatenate without shifting and writes never race).
/// The sharded-vs-unsharded fuzz suites and the never-relaxed equivalence
/// gate in bench_million_rows enforce the contract.
///
/// Thread-safe for concurrent probes, like PopulationIndex. Probes may
/// themselves run on pool workers (ReleaseBatch entries do):
/// ThreadPool::ParallelFor is reentrancy-safe, so a worker
/// blocked in an outer loop drains inner shard-probes itself rather than
/// deadlocking on a saturated queue.
class ShardedPopulationIndex : public PopulationProbe {
 public:
  explicit ShardedPopulationIndex(const Dataset& dataset,
                                  ShardedIndexOptions options = {});

  const Dataset& dataset() const override { return *dataset_; }
  size_t num_rows() const override { return dataset_->num_rows(); }
  IndexStorage storage() const override { return storage_; }

  /// \brief Sum of the shards' footprints (chunk census included).
  PopulationIndexStats MemoryStats() const override;

  void PopulationInto(const ContextVec& c, BitVector* population,
                      BitVector* attr_union) const override;

  size_t PopulationCount(const ContextVec& c) const override;

  size_t OverlapCount(const ContextVec& c1,
                      const ContextVec& c2) const override;

  /// \brief Global (attr, value) bitmap, concatenated from the shards into
  /// a thread_local buffer; invalidated by the next call on this thread.
  const BitVector& ValueBitmap(size_t attr, size_t value) const override;

  size_t shard_count() const { return shards_.size(); }
  /// \brief Shard `s` (local row space starting at shard_begin(s)).
  const PopulationIndex& shard(size_t s) const { return *shards_[s]; }
  /// \brief First dataset row of shard `s`; shard_begin(shard_count()) is
  /// num_rows(). Always a multiple of 64 (except the final sentinel).
  uint32_t shard_begin(size_t s) const { return shard_begin_[s]; }

  /// \brief The shared worker pool probes scatter on, created on first use
  /// (never for a single-shard index probed serially). Thread-safe; never
  /// null.
  ThreadPool* probe_pool() const override;

 private:
  /// \brief Runs fn(s) for every shard: serially for a single shard,
  /// otherwise scattered over probe_pool(). Gathering stays with callers,
  /// who read per-shard results in ascending shard order.
  void RunOverShards(const std::function<void(size_t)>& fn) const;

  const Dataset* dataset_;
  IndexStorage storage_;
  size_t probe_threads_;
  std::vector<uint32_t> shard_begin_;  // size shard_count()+1, 64-aligned
  std::vector<std::unique_ptr<PopulationIndex>> shards_;

  mutable std::mutex pool_mu_;
  mutable std::unique_ptr<ThreadPool> pool_;  // guarded by pool_mu_
};

}  // namespace pcor
