#include "perfbench/src/layers.h"

#include <atomic>
#include <chrono>
#include <mutex>

namespace perfbench {
namespace {

// One thread's counters. Only the owning thread writes (relaxed
// load+store, no read-modify-write contention); Snapshot() reads them all.
struct Slot {
  std::atomic<uint64_t> count_calls{0}, count_ns{0};
  std::atomic<uint64_t> materialize_calls{0}, materialize_ns{0};
  std::atomic<uint64_t> detect_calls{0}, detect_ns{0}, detect_values{0};
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<Slot>> slots;  // guarded by mu; never shrinks
};

Registry& GetRegistry() {
  static Registry* registry = new Registry;  // outlives every thread
  return *registry;
}

Slot& ThreadSlot() {
  thread_local Slot* slot = [] {
    Registry& registry = GetRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    registry.slots.push_back(std::make_unique<Slot>());
    return registry.slots.back().get();
  }();
  return *slot;
}

void Bump(std::atomic<uint64_t>& counter, uint64_t by) {
  counter.store(counter.load(std::memory_order_relaxed) + by,
                std::memory_order_relaxed);
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

LayerTotals LayerTotals::Since(const LayerTotals& before) const {
  LayerTotals d;
  d.count_calls = count_calls - before.count_calls;
  d.count_ns = count_ns - before.count_ns;
  d.materialize_calls = materialize_calls - before.materialize_calls;
  d.materialize_ns = materialize_ns - before.materialize_ns;
  d.detect_calls = detect_calls - before.detect_calls;
  d.detect_ns = detect_ns - before.detect_ns;
  d.detect_values = detect_values - before.detect_values;
  return d;
}

LayerTotals& LayerTotals::operator+=(const LayerTotals& other) {
  count_calls += other.count_calls;
  count_ns += other.count_ns;
  materialize_calls += other.materialize_calls;
  materialize_ns += other.materialize_ns;
  detect_calls += other.detect_calls;
  detect_ns += other.detect_ns;
  detect_values += other.detect_values;
  return *this;
}

LayerTotals Snapshot() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  LayerTotals t;
  for (const auto& s : registry.slots) {
    t.count_calls += s->count_calls.load(std::memory_order_relaxed);
    t.count_ns += s->count_ns.load(std::memory_order_relaxed);
    t.materialize_calls += s->materialize_calls.load(std::memory_order_relaxed);
    t.materialize_ns += s->materialize_ns.load(std::memory_order_relaxed);
    t.detect_calls += s->detect_calls.load(std::memory_order_relaxed);
    t.detect_ns += s->detect_ns.load(std::memory_order_relaxed);
    t.detect_values += s->detect_values.load(std::memory_order_relaxed);
  }
  return t;
}

void TimedProbe::PopulationInto(const pcor::ContextVec& c,
                                pcor::BitVector* population,
                                pcor::BitVector* attr_union) const {
  const uint64_t start = NowNs();
  inner_->PopulationInto(c, population, attr_union);
  Slot& slot = ThreadSlot();
  Bump(slot.materialize_calls, 1);
  Bump(slot.materialize_ns, NowNs() - start);
}

size_t TimedProbe::PopulationCount(const pcor::ContextVec& c) const {
  const uint64_t start = NowNs();
  const size_t n = inner_->PopulationCount(c);
  Slot& slot = ThreadSlot();
  Bump(slot.count_calls, 1);
  Bump(slot.count_ns, NowNs() - start);
  return n;
}

size_t TimedProbe::OverlapCount(const pcor::ContextVec& c1,
                                const pcor::ContextVec& c2) const {
  const uint64_t start = NowNs();
  const size_t n = inner_->OverlapCount(c1, c2);
  Slot& slot = ThreadSlot();
  Bump(slot.count_calls, 1);
  Bump(slot.count_ns, NowNs() - start);
  return n;
}

void TimedProbe::GatherMetrics(const pcor::BitVector& population,
                               std::vector<uint32_t>* row_ids,
                               std::vector<double>* metric) const {
  const uint64_t start = NowNs();
  inner_->GatherMetrics(population, row_ids, metric);
  Bump(ThreadSlot().materialize_ns, NowNs() - start);
}

void TimedDetector::Detect(std::span<const double> values,
                           std::vector<size_t>* flagged) const {
  const uint64_t start = NowNs();
  inner_->Detect(values, flagged);
  Slot& slot = ThreadSlot();
  Bump(slot.detect_calls, 1);
  Bump(slot.detect_ns, NowNs() - start);
  Bump(slot.detect_values, values.size());
}

bool TimedDetector::IsOutlier(std::span<const double> values,
                              size_t target) const {
  const uint64_t start = NowNs();
  const bool outlier = inner_->IsOutlier(values, target);
  Slot& slot = ThreadSlot();
  Bump(slot.detect_calls, 1);
  Bump(slot.detect_ns, NowNs() - start);
  Bump(slot.detect_values, values.size());
  return outlier;
}

}  // namespace perfbench
