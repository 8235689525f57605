#include "src/context/detector_cache.h"

#include <algorithm>
#include <utility>

namespace pcor {

namespace {

LruCacheOptions ToCacheOptions(const VerifierOptions& options) {
  LruCacheOptions cache_options;
  cache_options.max_bytes = options.max_cache_bytes;
  cache_options.max_entries = options.max_cache_entries;
  cache_options.num_shards = options.num_shards;
  cache_options.wholesale_clear = options.wholesale_clear;
  cache_options.numa_aware = options.numa_aware;
  cache_options.adaptive_budget = options.adaptive_budget;
  return cache_options;
}

// Approximate footprint of one memoized entry: the population size, plus
// the outlier row ids and their shared_ptr control block when there are
// any. The cache adds its own per-entry overhead (key + node + hash-table
// bookkeeping) on top.
size_t ApproxEntryBytes(
    const std::shared_ptr<const std::vector<uint32_t>>& outliers) {
  if (outliers == nullptr) return sizeof(size_t);
  return sizeof(size_t) + sizeof(std::vector<uint32_t>) +
         outliers->capacity() * sizeof(uint32_t) + 2 * sizeof(void*);
}

}  // namespace

VerifierMemo::VerifierMemo(const VerifierOptions& options)
    : cache_(ToCacheOptions(options)) {}

size_t VerifierMemo::InvalidateEpochsBefore(uint64_t epoch) {
  return cache_.EraseIf(
      [epoch](const VerifierCacheKey& key) { return key.epoch < epoch; });
}

OutlierVerifier::OutlierVerifier(const PopulationProbe& index,
                                 const OutlierDetector& detector,
                                 VerifierOptions options)
    : OutlierVerifier(index, detector,
                      std::make_shared<VerifierMemo>(options),
                      /*epoch=*/index.num_rows(), options) {}

OutlierVerifier::OutlierVerifier(const PopulationProbe& index,
                                 const OutlierDetector& detector,
                                 std::shared_ptr<VerifierMemo> memo,
                                 uint64_t epoch, VerifierOptions options)
    : index_(&index),
      detector_(&detector),
      options_(options),
      memo_(std::move(memo)),
      epoch_(epoch) {}

OutlierEvaluation OutlierVerifier::Evaluate(const ContextVec& c,
                                            uint32_t v_row) const {
  // Fast precheck: V must belong to D_C at all (one bit test per attribute).
  if (!index_->ContextContainsRow(c, v_row)) return {};
  const Entry entry = Lookup(c);
  const bool flagged =
      entry.outliers != nullptr &&
      std::binary_search(entry.outliers->begin(), entry.outliers->end(),
                         v_row);
  return {flagged, entry.population};
}

std::shared_ptr<const std::vector<uint32_t>>
OutlierVerifier::OutliersInContext(const ContextVec& c) const {
  static const auto* const kNone =
      new std::shared_ptr<const std::vector<uint32_t>>(
          std::make_shared<const std::vector<uint32_t>>());
  Entry entry = Lookup(c);
  return entry.outliers != nullptr ? std::move(entry.outliers) : *kNone;
}

OutlierVerifier::Entry OutlierVerifier::Lookup(const ContextVec& c) const {
  if (!options_.enable_cache) return Compute(c);
  const VerifierCacheKey key{epoch_, c};
  Entry entry;
  if (memo_->cache_.Get(key, &entry)) return entry;
  entry = Compute(c);
  memo_->cache_.Put(key, entry, ApproxEntryBytes(entry.outliers));
  return entry;
}

OutlierVerifier::Entry OutlierVerifier::Compute(const ContextVec& c) const {
  memo_->evaluations_.fetch_add(1, std::memory_order_relaxed);
  // Per-thread scratch: a probe in steady state allocates only the outlier
  // rows it may cache, never population buffers.
  thread_local PopulationScratch scratch;
  thread_local std::vector<size_t> flagged;
  Entry entry;
  const PopulationView view = index_->ViewOf(c, &scratch);
  entry.population = view.size();
  if (view.size() < detector_->min_population()) return entry;
  detector_->Detect(view.metric(), &flagged);
  if (flagged.empty()) return entry;
  auto outliers = std::make_shared<std::vector<uint32_t>>();
  outliers->reserve(flagged.size());
  // Detect returns ascending positions; row ids are ascending, so the
  // outliers are already sorted for binary_search.
  for (size_t pos : flagged) outliers->push_back(view.row_ids()[pos]);
  entry.outliers = std::move(outliers);
  return entry;
}

VerifierStats OutlierVerifier::Stats() const {
  const LruCacheStats cache_stats = memo_->CacheStats();
  VerifierStats stats;
  stats.evaluations = evaluations();
  stats.cache_hits = cache_stats.hits;
  stats.cache_misses = cache_stats.misses;
  stats.cache_evictions = cache_stats.evictions;
  stats.cache_invalidations = cache_stats.invalidations;
  stats.resident_bytes = cache_stats.resident_bytes;
  stats.resident_entries = cache_stats.resident_entries;
  return stats;
}

void OutlierVerifier::ClearCache() const { memo_->cache_.Clear(); }

}  // namespace pcor
