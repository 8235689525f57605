// Outside-in layer timers for the end-to-end benchmark.
//
// The engine accepts two interfaces from its caller: the OutlierDetector it
// verifies with and, through the probe-backed PcorEngine constructor, the
// PopulationProbe it counts and materializes populations with. The
// forwarding classes below implement both by delegating every call to a
// real implementation, timing the calls that carry work. They change no
// answer: every virtual forwards, so a forwarding engine releases
// bit-identical contexts (the self-test checks it on every workload's
// inputs).
//
// Timings are kept per thread as counts plus summed nanoseconds — a warm
// release makes ~150 PopulationCount calls, too many to keep as spans — and
// are summed across threads by Snapshot().
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/context/population_index.h"
#include "src/outlier/detector.h"

namespace perfbench {

/// \brief Process-wide sums of the forwarding wrappers' call counters.
struct LayerTotals {
  uint64_t count_calls = 0;        ///< PopulationCount + OverlapCount
  uint64_t count_ns = 0;
  uint64_t materialize_calls = 0;  ///< PopulationInto (memo-miss path)
  uint64_t materialize_ns = 0;     ///< PopulationInto + GatherMetrics
  uint64_t detect_calls = 0;       ///< Detect + IsOutlier
  uint64_t detect_ns = 0;
  uint64_t detect_values = 0;      ///< metric values the detector scanned

  /// \brief Field-wise `*this - before` (counters only grow).
  LayerTotals Since(const LayerTotals& before) const;
  /// \brief Field-wise sum.
  LayerTotals& operator+=(const LayerTotals& other);
};

/// \brief Sums every thread's counters (relaxed reads; exact once the
/// threads that recorded them are quiescent).
LayerTotals Snapshot();

/// \brief PopulationProbe that forwards to `inner` and times the counting
/// and materializing calls.
class TimedProbe final : public pcor::PopulationProbe {
 public:
  explicit TimedProbe(std::shared_ptr<const pcor::PopulationProbe> inner)
      : inner_(std::move(inner)) {}

  const pcor::Dataset& dataset() const override { return inner_->dataset(); }
  size_t num_rows() const override { return inner_->num_rows(); }
  pcor::IndexStorage storage() const override { return inner_->storage(); }
  pcor::PopulationIndexStats MemoryStats() const override {
    return inner_->MemoryStats();
  }
  void PopulationInto(const pcor::ContextVec& c, pcor::BitVector* population,
                      pcor::BitVector* attr_union) const override;
  size_t PopulationCount(const pcor::ContextVec& c) const override;
  size_t OverlapCount(const pcor::ContextVec& c1,
                      const pcor::ContextVec& c2) const override;
  const pcor::BitVector& ValueBitmap(size_t attr,
                                     size_t value) const override {
    return inner_->ValueBitmap(attr, value);
  }
  uint32_t RowCode(uint32_t row, size_t attr) const override {
    return inner_->RowCode(row, attr);
  }
  double RowMetric(uint32_t row) const override {
    return inner_->RowMetric(row);
  }
  void GatherMetrics(const pcor::BitVector& population,
                     std::vector<uint32_t>* row_ids,
                     std::vector<double>* metric) const override;
  pcor::ThreadPool* probe_pool() const override {
    return inner_->probe_pool();
  }

 private:
  std::shared_ptr<const pcor::PopulationProbe> inner_;
};

/// \brief OutlierDetector that forwards to `inner` and times every run.
class TimedDetector final : public pcor::OutlierDetector {
 public:
  explicit TimedDetector(const pcor::OutlierDetector& inner)
      : inner_(&inner) {}

  std::string name() const override { return inner_->name(); }
  void Detect(std::span<const double> values,
              std::vector<size_t>* flagged) const override;
  bool IsOutlier(std::span<const double> values,
                 size_t target) const override;
  size_t min_population() const override { return inner_->min_population(); }

 private:
  const pcor::OutlierDetector* inner_;
};

}  // namespace perfbench
