#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/threading.h"
#include "src/context/population_index.h"

namespace pcor {

/// \brief One immutable sealed slice of a stream: the rows one SealEpoch
/// (or one compaction of several seals) contributed, holding their own
/// Dataset plus a full-range PopulationIndex in local row space — exactly
/// a shard, except the boundary is a seal point rather than a computed
/// split. Segments are shared structurally across epoch snapshots via
/// shared_ptr and never mutated after construction.
struct PopulationSegment {
  uint32_t row_begin = 0;  ///< first global (stream) row this segment covers
  std::shared_ptr<const Dataset> rows;           ///< this segment's rows only
  std::unique_ptr<const PopulationIndex> index;  ///< over `rows`, local space

  size_t num_rows() const { return rows->num_rows(); }
  uint32_t row_end() const {
    return row_begin + static_cast<uint32_t>(num_rows());
  }
};

/// \brief Builds one segment over `rows` (must be non-empty), covering
/// global rows [row_begin, row_begin + rows->num_rows()). Cost is
/// O(rows->num_rows()) — the whole point of segmented seals.
std::shared_ptr<const PopulationSegment> MakeSegment(
    uint32_t row_begin, std::shared_ptr<const Dataset> rows,
    IndexStorage storage);

/// \brief Replaces segments [begin, end) of `*segments` with one merged
/// segment: rows copied into a fresh Dataset, index rebuilt — O(rows of
/// the merged range). Used by the streaming compaction policy. No-op when
/// the range is a single segment.
void MergeSegments(
    std::vector<std::shared_ptr<const PopulationSegment>>* segments,
    size_t begin, size_t end, IndexStorage storage);

/// \brief Population probe composing an ordered, contiguous segment list
/// into one global row space, so a snapshot built from shared segments
/// probes exactly like a load-once index over the concatenated rows.
///
/// Determinism contract: every probe is bit-identical to an unsharded
/// PopulationIndex over the same rows and storage, for any segment layout
/// and any thread count — same argument as ShardedPopulationIndex (counts
/// sum over disjoint row ranges; populations gather in fixed ascending
/// segment order), with one twist: seal points are arbitrary row counts,
/// not word multiples, so local bitmaps concatenate by shifted OR instead
/// of word copies. Destination words shared by two neighboring segments
/// are deposited with atomic fetch_or; OR over disjoint bit sets commutes,
/// so scatter order cannot perturb the result. The segmented-vs-unsharded
/// fuzz suite (tests/context/segmented_population_test.cc) and the
/// streaming equivalence gates enforce the contract.
///
/// dataset() returns a zero-row schema anchor — row data lives in the
/// segments and is reached through RowCode / RowMetric / GatherMetrics.
///
/// Thread-safe for concurrent probes; probes may run on pool workers
/// (ThreadPool::ParallelFor is reentrancy-safe).
class SegmentedPopulationProbe : public PopulationProbe {
 public:
  /// \brief `segments` must be contiguous from global row 0 (each
  /// row_begin equal to the previous segment's row_end) and individually
  /// non-empty. `probe_threads` 0 means DefaultThreadCount(); streams
  /// smaller than kMinRowsPerShard probe serially regardless (dispatch
  /// would cost more than the word loops it splits).
  SegmentedPopulationProbe(
      Schema schema,
      std::vector<std::shared_ptr<const PopulationSegment>> segments,
      IndexStorage storage, size_t probe_threads = 0);

  /// \brief Zero-row schema anchor (see class comment).
  const Dataset& dataset() const override { return anchor_; }
  size_t num_rows() const override { return total_rows_; }
  IndexStorage storage() const override { return storage_; }

  /// \brief Sum of the segments' footprints (chunk census included).
  PopulationIndexStats MemoryStats() const override;

  void PopulationInto(const ContextVec& c, BitVector* population,
                      BitVector* attr_union) const override;

  size_t PopulationCount(const ContextVec& c) const override;

  size_t OverlapCount(const ContextVec& c1,
                      const ContextVec& c2) const override;

  /// \brief Global (attr, value) bitmap, concatenated from the segments
  /// into a thread_local buffer; invalidated by the next call on this
  /// thread.
  const BitVector& ValueBitmap(size_t attr, size_t value) const override;

  uint32_t RowCode(uint32_t row, size_t attr) const override;
  double RowMetric(uint32_t row) const override;
  void GatherMetrics(const BitVector& population,
                     std::vector<uint32_t>* row_ids,
                     std::vector<double>* metric) const override;

  /// \brief Lazily created worker pool; nullptr when probe_threads <= 1.
  ThreadPool* probe_pool() const override;

  size_t segment_count() const { return segments_.size(); }
  const PopulationSegment& segment(size_t s) const { return *segments_[s]; }
  /// \brief The shared segment list (for snapshot bookkeeping and tests).
  const std::vector<std::shared_ptr<const PopulationSegment>>& segments()
      const {
    return segments_;
  }

 private:
  /// \brief Index of the segment containing global row `row`.
  size_t SegmentOf(uint32_t row) const;
  /// \brief Runs fn(s) for every segment: serially unless the stream is
  /// large enough for parallel probes (see constructor).
  void RunOverSegments(const std::function<void(size_t)>& fn) const;

  Dataset anchor_;  // zero rows; carries the schema for dataset()/schema()
  IndexStorage storage_;
  size_t probe_threads_;
  bool parallel_probes_ = false;
  std::vector<std::shared_ptr<const PopulationSegment>> segments_;
  std::vector<uint32_t> seg_begin_;  // size segment_count()+1, last = total
  size_t total_rows_ = 0;

  mutable std::mutex pool_mu_;
  mutable std::unique_ptr<ThreadPool> pool_;  // guarded by pool_mu_
};

}  // namespace pcor
