// The three workloads. Each one sets up several times (set-up time is
// reported as the median), measures for the requested seconds, then checks
// its outputs: sampled releases are replayed serially through
// PcorEngine::Release at their rng_seed, the epsilon ledger must equal
// released x epsilon, and (stream_ingest) the final epoch must equal the
// rows appended.
//
//   serve_warm    reduced salary, lof, warm memo; open-loop Poisson load
//                 from 4 tenants at a fixed rate, then an overload phase.
//   batch_cold    full salary, zscore; one ReleaseBatch per fresh engine.
//   stream_ingest streaming server over salary rows, zscore; fixed-rate
//                 appends with a seal every 256 rows beside fixed-rate
//                 releases, then an overload phase while ingest goes on.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "perfbench/src/bench.h"
#include "perfbench/src/layers.h"
#include "src/common/clock.h"
#include "src/common/mpmc_queue.h"
#include "src/common/random.h"
#include "src/common/stats.h"
#include "src/common/string_util.h"
#include "src/data/salary_generator.h"
#include "src/exp/trace.h"
#include "src/exp/trace_driver.h"
#include "src/exp/workloads.h"
#include "src/search/pcor.h"
#include "src/search/streaming.h"
#include "src/serve/server.h"

namespace perfbench {

using pcor::BatchEntry;
using pcor::BatchRequest;
using pcor::Dataset;
using pcor::OutlierDetector;
using pcor::PcorEngine;
using pcor::PcorOptions;
using pcor::PcorRelease;
using pcor::PcorServer;
using pcor::RealClock;
using pcor::Rng;
using pcor::Row;

void Report::Add(std::string name, double value, std::string unit,
                 size_t samples) {
  metrics.push_back({std::move(name), value, std::move(unit), samples});
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
}

namespace {

using SteadyClock = std::chrono::steady_clock;

// Set-ups per run (set-up time is reported as their median): fewer where
// one set-up is long.
constexpr int kSetupReps = 9;
constexpr int kWarmSetupReps = 3;
// Share of the run at a fixed rate; the rest is the overload phase.
constexpr double kFixedShare = 0.7;
// The serving workloads alternate the two phases in this many cycles, so
// each phase samples the whole run: the host's speed drifts over seconds
// to tens of seconds, and a slow spell then moves only the segments it
// covers (the phase metrics are trimmed means over segments).
constexpr size_t kCycles = 5;
// stream_ingest ingests this much longer than its releases are scheduled,
// so the drain of the last overload backlog still runs beside ingest.
constexpr double kIngestTailS = 2.0;
// Server queue capacity: four full micro-batches, so the dispatcher never
// runs short under overload, while the backlog each overload segment
// leaves to drain stays a fraction of a second (1024, the default, took
// ~3.6 s to drain on stream_ingest).
constexpr size_t kQueueCapacity = 256;
// Load threads: at most one driver per stream of events plus these.
constexpr size_t kCollectors = 2;
// BFS with n = 20 at epsilon = 0.2 (the paper's Section 6 default).
constexpr double kEpsilon = 0.2;
// The datasets, release pools and memo warm-up are part of a workload's
// definition and do not vary with --seed (the generators' own default
// seed); the seed drives the load: arrival times, tenants, targets and
// every release's Rng stream.
constexpr uint64_t kWorkloadSeed = 2021;
// serve_warm releases every pool row this many times before measuring,
// which brings the memo hit rate of the measured releases near 0.999.
constexpr int kWarmRounds = 96;

double SecondsSince(SteadyClock::time_point t) {
  return std::chrono::duration<double>(SteadyClock::now() - t).count();
}

PcorOptions ReleaseOptions() {
  PcorOptions options;
  options.sampler = pcor::SamplerKind::kBfs;
  options.num_samples = 20;
  options.total_epsilon = kEpsilon;
  options.utility = pcor::UtilityKind::kPopulationSize;
  return options;
}

/// Exact quantiles over a sample kept in full.
class Samples {
 public:
  void Add(double x) { values_.push_back(x); }
  size_t size() const { return values_.size(); }
  double Sum() const {
    return std::accumulate(values_.begin(), values_.end(), 0.0);
  }
  double Mean() const { return values_.empty() ? 0.0 : Sum() / size(); }
  double Quantile(double q) const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    return pcor::PercentileOfSorted(sorted, q);
  }
  double Median() const { return Quantile(0.5); }
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

double CpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 +
           static_cast<double>(t.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

// High-water resident set of this process, in MB.
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

uint64_t Fold(uint64_t h, uint64_t v) {
  return pcor::SplitMix64Mix(h ^ (v + 0x9e3779b97f4a7c15ULL));
}

uint64_t Bits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// The deterministic payload of a release: what a serial replay at the same
// rng_seed over the same rows must reproduce bit for bit. (Streaming
// ledger fields are left out — a load-once replay engine has no stream.)
uint64_t ReleaseKey(const PcorRelease& r) {
  uint64_t h = Fold(0x9e1ea5e, static_cast<uint64_t>(r.context.Hash()));
  h = Fold(h, Bits(r.epsilon_spent));
  h = Fold(h, Bits(r.epsilon1));
  h = Fold(h, r.num_candidates);
  h = Fold(h, r.probes);
  h = Fold(h, Bits(r.utility_score));
  h = Fold(h, r.epoch);
  return Fold(h, r.hit_probe_cap ? 1 : 0);
}

// The engine under test. Untraced: the standard dataset-built engine.
// Traced: the probe-backed engine over a forwarding probe and detector
// (same index type, same default memo options, same epoch id).
struct EngineHolder {
  std::unique_ptr<TimedDetector> timed;  // declared first: outlives engine
  std::unique_ptr<PcorEngine> engine;
};

EngineHolder BuildEngine(const Dataset& dataset,
                         const OutlierDetector& detector, bool traced) {
  EngineHolder h;
  if (!traced) {
    h.engine = std::make_unique<PcorEngine>(dataset, detector);
    return h;
  }
  h.timed = std::make_unique<TimedDetector>(detector);
  auto probe = std::make_shared<TimedProbe>(
      std::make_shared<pcor::ShardedPopulationIndex>(dataset));
  h.engine = std::make_unique<PcorEngine>(
      probe, *h.timed,
      std::make_shared<pcor::VerifierMemo>(pcor::VerifierOptions{}),
      dataset.num_rows());
  return h;
}

std::unique_ptr<OutlierDetector> Detector(const std::string& name) {
  auto detector = pcor::MakeDetector(name);
  PCOR_CHECK(detector.ok()) << detector.status().ToString();
  return std::move(detector).value();
}

pcor::GeneratedData Generate(const pcor::SalaryDatasetSpec& spec) {
  auto data = pcor::GenerateSalaryDataset(spec);
  PCOR_CHECK(data.ok()) << data.status().ToString();
  return std::move(data).value();
}

// ---------------------------------------------------------------------------
// Open-loop load against a PcorServer.

/// Everything observed about one release request.
struct Record {
  int64_t scheduled_us = 0;  // when it was due (flood: when it was tried)
  int64_t submitted_us = 0;  // SubmitAsync returned
  int64_t hook_us = -1;      // its micro-batch started (traced runs)
  int64_t done_us = -1;      // its future resolved
  uint32_t batch = 0;        // micro-batch index (traced runs)
  uint32_t v_row = 0;
  bool admitted = false;
  bool ok = false;
  bool threw = false;
  uint64_t rng_seed = 0;
  uint64_t epoch = 0;
  double release_s = 0.0;    // PcorRelease::seconds
  size_t probes = 0;
  size_t candidates = 0;
  uint64_t key = 0;          // ReleaseKey
  uint64_t digest = 0;       // DigestBatchEntry
};

/// A release the load will issue: arrival offset, tenant, pool index.
struct Arrival {
  int64_t at_us = 0;
  uint32_t tenant = 0;
  uint32_t target = 0;
};

/// Poisson arrivals at `rate` per second over `duration_s`, tenants drawn
/// in proportion to `weights`.
std::vector<Arrival> PoissonArrivals(double rate, double duration_s,
                                     const std::vector<double>& weights,
                                     size_t pool_size, Rng* rng) {
  const double total_weight =
      std::accumulate(weights.begin(), weights.end(), 0.0);
  std::vector<Arrival> arrivals;
  double t = 0.0;
  while (true) {
    t += -std::log(rng->NextDoublePositive()) / rate;
    if (t >= duration_s) break;
    Arrival a;
    a.at_us = static_cast<int64_t>(t * 1e6);
    double pick = rng->NextDouble() * total_weight;
    while (a.tenant + 1 < weights.size() && pick >= weights[a.tenant]) {
      pick -= weights[a.tenant];
      ++a.tenant;
    }
    a.target = static_cast<uint32_t>(rng->NextBounded(pool_size));
    arrivals.push_back(a);
  }
  return arrivals;
}

/// Overload requests: tenants in weighted round robin, random targets.
std::vector<Arrival> FloodPlan(size_t count,
                               const std::vector<double>& weights,
                               size_t pool_size, Rng* rng) {
  std::vector<uint32_t> cycle;
  for (size_t t = 0; t < weights.size(); ++t) {
    for (int w = 0; w < static_cast<int>(weights[t]); ++w) {
      cycle.push_back(static_cast<uint32_t>(t));
    }
  }
  std::vector<Arrival> plan(count);
  for (size_t i = 0; i < count; ++i) {
    plan[i].tenant = cycle[i % cycle.size()];
    plan[i].target = static_cast<uint32_t>(rng->NextBounded(pool_size));
  }
  return plan;
}

/// Submits releases, collects their futures on kCollectors threads, and
/// (traced runs) matches each dispatched micro-batch to its requests by
/// their pinned rng_seed.
class Load {
 public:
  struct Batch {
    int64_t start_us = 0;
    size_t size = 0;
  };

  /// `plan` lists every request the run may issue, in id order; the
  /// server seeds its k-th request from `tenant` as
  /// RequestSeed(server_seed, tenant, k), so every seed is known upfront.
  Load(const std::vector<Arrival>& plan,
       const std::vector<std::string>& tenants, uint64_t server_seed,
       RealClock* clock)
      : records_(plan.size()), clock_(clock), queue_(plan.size() + 1) {
    std::vector<uint64_t> k(tenants.size(), 0);
    for (size_t id = 0; id < plan.size(); ++id) {
      const uint32_t t = plan[id].tenant;
      records_[id].rng_seed =
          PcorServer::RequestSeed(server_seed, tenants[t], k[t]++);
      seed_to_id_[records_[id].rng_seed] = static_cast<uint32_t>(id);
    }
  }
  ~Load() { Stop(); }
  Load(const Load&) = delete;
  Load& operator=(const Load&) = delete;

  /// The dispatcher-thread hook for ServeOptions::pre_batch_hook.
  std::function<void(std::span<const BatchRequest>)> Hook() {
    return [this](std::span<const BatchRequest> requests) {
      const int64_t now = clock_->NowMicros();
      const uint32_t index = static_cast<uint32_t>(batches_.size());
      batches_.push_back({now, requests.size()});
      for (const BatchRequest& r : requests) {
        auto it = seed_to_id_.find(r.rng_seed);
        if (it == seed_to_id_.end()) {
          ++unmatched_;
          continue;
        }
        records_[it->second].hook_us = now;
        records_[it->second].batch = index;
      }
    };
  }

  void Start(PcorServer* server) {
    server_ = server;
    for (size_t c = 0; c < kCollectors; ++c) {
      collectors_.emplace_back([this] { Collect(); });
    }
  }

  /// Submits request `id` for `tenant` (driver thread). False when
  /// admission refused it.
  bool Submit(uint32_t id, uint32_t v_row, const std::string& tenant,
              int64_t scheduled_us) {
    Record& r = records_[id];
    r.scheduled_us = scheduled_us;
    r.v_row = v_row;
    BatchRequest request;
    request.v_row = v_row;
    const auto start = SteadyClock::now();
    auto admitted = server_->SubmitAsync(request, tenant);
    admit_us_.Add(
        std::chrono::duration<double, std::micro>(SteadyClock::now() - start)
            .count());
    r.submitted_us = clock_->NowMicros();
    if (!admitted.ok()) return false;
    r.admitted = true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++admitted_;
    }
    queue_.Push(InFlight{std::move(admitted).value(), id});
    return true;
  }

  /// Blocks until every admitted request has been collected.
  void Drain() {
    std::unique_lock<std::mutex> lock(mu_);
    drained_.wait(lock, [this] { return collected_ == admitted_; });
  }

  void Stop() {
    queue_.Close();
    for (std::thread& t : collectors_) t.join();
    collectors_.clear();
  }

  const std::vector<Record>& records() const { return records_; }
  const std::vector<Batch>& batches() const { return batches_; }
  const Samples& admit_us() const { return admit_us_; }
  size_t unmatched() const { return unmatched_; }

 private:
  struct InFlight {
    pcor::Future<BatchEntry> future;
    uint32_t id = 0;
  };

  void Collect() {
    InFlight item;
    while (queue_.Pop(&item) == pcor::QueueOp::kOk) {
      Record& r = records_[item.id];
      try {
        const BatchEntry entry = item.future.Get();
        r.done_us = clock_->NowMicros();
        r.ok = entry.status.ok();
        r.digest = pcor::DigestBatchEntry(entry);
        if (r.ok) {
          r.epoch = entry.release.epoch;
          r.release_s = entry.release.seconds;
          r.probes = entry.release.probes;
          r.candidates = entry.release.num_candidates;
          r.key = ReleaseKey(entry.release);
        }
      } catch (const std::exception&) {
        r.done_us = clock_->NowMicros();
        r.threw = true;
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++collected_;
      }
      drained_.notify_all();
    }
  }

  std::vector<Record> records_;
  std::unordered_map<uint64_t, uint32_t> seed_to_id_;  // read-only once built
  RealClock* clock_;
  PcorServer* server_ = nullptr;
  pcor::BoundedMpmcQueue<InFlight> queue_;
  std::vector<std::thread> collectors_;
  Samples admit_us_;             // driver thread only
  std::vector<Batch> batches_;   // dispatcher thread only
  size_t unmatched_ = 0;         // dispatcher thread only
  std::mutex mu_;
  std::condition_variable drained_;
  size_t admitted_ = 0;   // guarded by mu_
  size_t collected_ = 0;  // guarded by mu_
};

/// Fires `plan[first, first + count)` open-loop at origin_us + at_us on the
/// calling thread; records fired - scheduled in `lag_us`.
void FireFixedRate(Load* load, RealClock* clock,
                   const std::vector<Arrival>& plan, size_t first,
                   size_t count, int64_t origin_us,
                   const std::vector<std::string>& tenants,
                   const std::vector<uint32_t>& pool, Samples* lag_us) {
  std::vector<pcor::TraceEvent> events(count);
  for (size_t i = 0; i < count; ++i) {
    events[i].at_us = origin_us + plan[first + i].at_us;
    events[i].tenant = tenants[plan[first + i].tenant];
    events[i].rows = first + i;
  }
  pcor::TraceDriver driver(std::move(events), clock);
  driver.Run([&](const pcor::TraceEvent& e, int64_t scheduled_us,
                 int64_t fired_us) {
    lag_us->Add(static_cast<double>(fired_us - scheduled_us));
    const Arrival& a = plan[e.rows];
    load->Submit(static_cast<uint32_t>(e.rows), pool[a.target], e.tenant,
                 scheduled_us);
  });
}

/// Submits `plan[first, end)` back to back until `deadline_us`; kBlock
/// backpressure throttles the loop to the server's pace. Returns the id
/// one past the last request submitted.
size_t Flood(Load* load, RealClock* clock, const std::vector<Arrival>& plan,
             size_t first, int64_t deadline_us,
             const std::vector<std::string>& tenants,
             const std::vector<uint32_t>& pool) {
  size_t id = first;
  while (id < plan.size()) {
    const int64_t now = clock->NowMicros();
    if (now >= deadline_us) break;
    load->Submit(static_cast<uint32_t>(id), pool[plan[id].target],
                 tenants[plan[id].tenant], now);
    ++id;
  }
  return id;
}

/// Latency percentiles and the serve/search breakdown of one release
/// phase (records [first, end)).
struct Phase {
  size_t first = 0;
  size_t end = 0;
  size_t ok = 0;
  size_t failed = 0;  // refused, failed or thrown
  Samples latency_ms;  // scheduled -> done
  Samples release_ms;  // PcorRelease::seconds
  double release_s_sum = 0.0;
  double probes = 0.0;
  double candidates = 0.0;
  int64_t start_us = 0;
  int64_t last_done_us = 0;
};

Phase Summarize(const std::vector<Record>& records, size_t first,
                size_t end) {
  Phase p;
  p.first = first;
  p.end = end;
  p.start_us = end > first ? records[first].scheduled_us : 0;
  for (size_t i = first; i < end; ++i) {
    const Record& r = records[i];
    if (!r.ok) {
      ++p.failed;
      continue;
    }
    ++p.ok;
    p.latency_ms.Add((r.done_us - r.scheduled_us) / 1e3);
    p.release_ms.Add(r.release_s * 1e3);
    p.release_s_sum += r.release_s;
    p.probes += static_cast<double>(r.probes);
    p.candidates += static_cast<double>(r.candidates);
    p.last_done_us = std::max(p.last_done_us, r.done_us);
  }
  return p;
}

/// Generator lag as a log2 histogram (bucket upper edges in us), one
/// note line: a late generator shows here, a slow server does not.
std::string LagHistogram(const char* phase, const Samples& lag_us) {
  std::string line = pcor::strings::Format(
      "generator lag (%s, fired - scheduled, n=%zu): p50 %.0f us, p99 %.0f "
      "us, max %.0f us; histogram",
      phase, lag_us.size(), lag_us.Quantile(0.5), lag_us.Quantile(0.99),
      lag_us.Quantile(1.0));
  std::vector<size_t> buckets;
  for (double v : lag_us.values()) {
    size_t b = 0;
    while (b < 40 && v >= static_cast<double>(uint64_t{1} << b)) ++b;
    if (buckets.size() <= b) buckets.resize(b + 1, 0);
    ++buckets[b];
  }
  for (size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    line += pcor::strings::Format(" <%llu:%zu",
                                  static_cast<unsigned long long>(
                                      uint64_t{1} << b),
                                  buckets[b]);
  }
  return line;
}

void AddLagMetrics(Report* report, const Samples& lag_us) {
  report->Add("exp.lag_us_p50", lag_us.Quantile(0.5), "us", lag_us.size());
  report->Add("exp.lag_us_p99", lag_us.Quantile(0.99), "us", lag_us.size());
}

/// The mean of `values` without their lowest and highest: one segment a
/// host stall slowed does not move it, and the rest average the host's
/// drift over the run, and its growth on stream_ingest, where releases
/// cost more as the stream grows.
double TrimmedMean(const Samples& values) {
  std::vector<double> sorted = values.values();
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() >= 3) {
    sorted.pop_back();
    sorted.erase(sorted.begin());
  }
  return sorted.empty() ? 0.0
                        : std::accumulate(sorted.begin(), sorted.end(), 0.0) /
                              sorted.size();
}

/// Fixed-rate latency: the "p50"s are trimmed means over the segments of
/// each segment's median, the tail quantiles are over the whole phase.
void AddLatencyMetrics(Report* report, const Phase& fixed,
                       const std::vector<Phase>& segments) {
  Samples compute_ms, latency_ms;
  for (const Phase& p : segments) {
    if (p.ok == 0) continue;
    compute_ms.Add(p.release_ms.Median());
    latency_ms.Add(p.latency_ms.Median());
  }
  report->Add("release_compute_p50_ms", TrimmedMean(compute_ms), "ms",
              fixed.release_ms.size());
  report->Add("release_p50_ms", TrimmedMean(latency_ms), "ms",
              fixed.latency_ms.size());
  report->Add("release_p95_ms", fixed.latency_ms.Quantile(0.95), "ms",
              fixed.latency_ms.size());
  report->Add("release_p99_ms", fixed.latency_ms.Quantile(0.99), "ms",
              fixed.latency_ms.size());
}

/// Saturation throughput: the trimmed mean over the overload segments of
/// each one's released / (its last completion - its start), and the
/// pool's idle share over all of them.
void AddFloodMetrics(Report* report, const std::vector<Phase>& segments,
                     size_t threads) {
  Samples rates;
  double wall_s = 0.0, release_s = 0.0;
  size_t ok = 0;
  for (const Phase& p : segments) {
    const double seconds =
        std::max(1e-9, (p.last_done_us - p.start_us) / 1e6);
    rates.Add(p.ok / seconds);
    wall_s += seconds;
    release_s += p.release_s_sum;
    ok += p.ok;
  }
  report->Add("releases_per_s", TrimmedMean(rates), "1/s", ok);
  report->Add("search.batch_idle_share",
              1.0 - release_s / (wall_s * threads), "ratio", ok);
}

void AddSearchMetrics(Report* report, const Phase& phase) {
  const size_t n = std::max<size_t>(1, phase.ok);
  report->Add("search.release_ms_p50", phase.release_ms.Quantile(0.5), "ms",
              phase.ok);
  report->Add("search.release_ms_p99", phase.release_ms.Quantile(0.99), "ms",
              phase.ok);
  report->Add("search.probes_per_release", phase.probes / n, "count",
              phase.ok);
  report->Add("search.candidates_per_release", phase.candidates / n,
              "count", phase.ok);
}

/// The serve-layer split of a fixed-rate phase: admission, queue wait
/// (SubmitAsync return -> micro-batch start) and execution (micro-batch
/// start -> future resolved).
void AddServeMetrics(Report* report, const Load& load, const Phase& phase,
                     size_t queue_high_water) {
  Samples wait_ms, exec_ms;
  double latency_ms = 0.0;
  std::vector<bool> in_phase(load.batches().size(), false);
  for (size_t i = phase.first; i < phase.end; ++i) {
    const Record& r = load.records()[i];
    if (!r.ok || r.hook_us < 0) continue;
    wait_ms.Add((r.hook_us - r.submitted_us) / 1e3);
    latency_ms += (r.done_us - r.scheduled_us) / 1e3;
    exec_ms.Add((r.done_us - r.hook_us) / 1e3);
    if (r.batch < in_phase.size()) in_phase[r.batch] = true;
  }
  Samples sizes;
  for (size_t b = 0; b < in_phase.size(); ++b) {
    if (in_phase[b]) sizes.Add(static_cast<double>(load.batches()[b].size));
  }
  report->Add("serve.admit_us_p50", load.admit_us().Quantile(0.5), "us",
              load.admit_us().size());
  report->Add("serve.admit_us_p99", load.admit_us().Quantile(0.99), "us",
              load.admit_us().size());
  report->Add("serve.queue_wait_ms_p50", wait_ms.Quantile(0.5), "ms",
              wait_ms.size());
  report->Add("serve.queue_wait_ms_p99", wait_ms.Quantile(0.99), "ms",
              wait_ms.size());
  report->Add("serve.queue_wait_share",
              latency_ms > 0 ? wait_ms.Sum() / latency_ms : 0.0, "ratio",
              wait_ms.size());
  report->Add("serve.exec_ms_p50", exec_ms.Quantile(0.5), "ms",
              exec_ms.size());
  report->Add("serve.exec_ms_p99", exec_ms.Quantile(0.99), "ms",
              exec_ms.size());
  report->Add("serve.batch_size_mean", sizes.Mean(), "count", sizes.size());
  report->Add("serve.batches", static_cast<double>(sizes.size()), "count",
              sizes.size());
  report->Add("serve.queue_high_water",
              static_cast<double>(queue_high_water), "count", 1);
  report->Check(load.unmatched() == 0,
                pcor::strings::Format("%zu dispatched requests matched no "
                                      "planned rng_seed",
                                      load.unmatched()));
}

/// Memo counters over a phase (before/after cache snapshots).
void AddMemoMetrics(Report* report, const pcor::LruCacheStats& before,
                    const pcor::LruCacheStats& after, size_t releases) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  const size_t lookups = static_cast<size_t>(hits + misses);
  report->Add("context.memo_hit_rate",
              lookups ? hits / (hits + misses) : 0.0, "ratio", lookups);
  report->Add("context.memo_lookups_per_release",
              (hits + misses) / std::max<size_t>(1, releases), "count",
              releases);
  report->Add("context.memo_resident_mb", after.resident_bytes / 1048576.0,
              "MB", 1);
  report->Add("context.memo_evictions",
              static_cast<double>(after.evictions - before.evictions),
              "count", 1);
  report->Add("context.memo_invalidations",
              static_cast<double>(after.invalidations - before.invalidations),
              "count", 1);
}

pcor::LruCacheStats CacheStatsOf(const PcorEngine& engine) {
  const pcor::VerifierStats v = engine.verifier().Stats();
  pcor::LruCacheStats s;
  s.hits = v.cache_hits;
  s.misses = v.cache_misses;
  s.evictions = v.cache_evictions;
  s.invalidations = v.cache_invalidations;
  s.resident_bytes = v.resident_bytes;
  s.resident_entries = v.resident_entries;
  return s;
}

/// The releases a run may issue, in id order: Poisson arrivals at a fixed
/// rate for tenants [0, T), then overload requests for tenants [T, 2T),
/// which carry the first T's weights under their own names. The two kinds
/// interleave in time, but each name's requests are submitted in id order,
/// and that order is what fixes their seeds (PcorServer::RequestSeed).
struct ReleasePlan {
  std::vector<Arrival> arrivals;
  size_t fixed_n = 0;  // arrivals [0, fixed_n) are the fixed-rate ones
  std::vector<std::string> tenants;
  std::vector<double> weights;
};

ReleasePlan MakeReleasePlan(double rate, double fixed_s, size_t flood_cap,
                            const std::vector<std::string>& names,
                            const std::vector<double>& weights,
                            size_t pool_size, Rng* rng) {
  ReleasePlan plan;
  plan.arrivals = PoissonArrivals(rate, fixed_s, weights, pool_size, rng);
  plan.fixed_n = plan.arrivals.size();
  for (Arrival a : FloodPlan(flood_cap, weights, pool_size, rng)) {
    a.tenant += static_cast<uint32_t>(names.size());
    plan.arrivals.push_back(a);
  }
  plan.tenants = names;
  plan.weights = weights;
  for (size_t t = 0; t < names.size(); ++t) {
    plan.tenants.push_back(names[t] + "_overload");
    plan.weights.push_back(weights[t]);
  }
  return plan;
}

/// What RunCycles observed; the fixed-rate counters cover only the
/// fixed-rate segments.
struct CycleRun {
  std::vector<Phase> fixed_segments, flood_segments;
  Phase fixed, over;  // every segment of each kind
  size_t end = 0;     // one past the last id submitted
  LayerTotals layers;
  pcor::LruCacheStats memo;  // deltas; resident_bytes at the last segment
  double cpu_ms = 0.0;
  size_t queue_high_water = 0;  // after the first fixed-rate segment
};

/// Runs kCycles cycles of a fixed-rate segment (the plan's arrivals in
/// its share of fixed_s) and an overload segment (back to back for its
/// share of flood_s), draining the server after each segment.
CycleRun RunCycles(Load* load, RealClock* clock, const ReleasePlan& plan,
                   double fixed_s, double flood_s,
                   const std::vector<uint32_t>& pool,
                   const std::function<pcor::LruCacheStats()>& memo_stats,
                   const PcorServer& server, Samples* lag_us) {
  const auto& records = load->records();
  const int64_t fixed_us = static_cast<int64_t>(fixed_s * 1e6 / kCycles);
  const int64_t flood_us = static_cast<int64_t>(flood_s * 1e6 / kCycles);
  CycleRun run;
  size_t next_fixed = 0, next_flood = plan.fixed_n;
  int64_t drain_us = 0;  // the last overload segment's backlog drain
  for (size_t c = 0; c < kCycles; ++c) {
    const int64_t begin_us = static_cast<int64_t>(c) * fixed_us;
    size_t end = next_fixed;
    while (end < plan.fixed_n && (c + 1 == kCycles ||
                                  plan.arrivals[end].at_us <
                                      begin_us + fixed_us)) {
      ++end;
    }
    const LayerTotals layers0 = Snapshot();
    const pcor::LruCacheStats memo0 = memo_stats();
    const double cpu0 = CpuMs();
    FireFixedRate(load, clock, plan.arrivals, next_fixed, end - next_fixed,
                  clock->NowMicros() + 1000 - begin_us, plan.tenants, pool,
                  lag_us);
    load->Drain();
    run.cpu_ms += CpuMs() - cpu0;
    run.layers += Snapshot().Since(layers0);
    const pcor::LruCacheStats memo1 = memo_stats();
    run.memo.hits += memo1.hits - memo0.hits;
    run.memo.misses += memo1.misses - memo0.misses;
    run.memo.evictions += memo1.evictions - memo0.evictions;
    run.memo.invalidations += memo1.invalidations - memo0.invalidations;
    run.memo.resident_bytes = memo1.resident_bytes;
    if (c == 0) run.queue_high_water = server.stats().queue_high_water;
    run.fixed_segments.push_back(Summarize(records, next_fixed, end));
    next_fixed = end;

    // Submitting stops early by the last segment's drain time, so that
    // with the drain each segment lasts about its share of flood_s.
    const int64_t deadline_us =
        clock->NowMicros() + std::max(flood_us / 2, flood_us - drain_us);
    const size_t flood_end = Flood(load, clock, plan.arrivals, next_flood,
                                   deadline_us, plan.tenants, pool);
    load->Drain();
    run.flood_segments.push_back(Summarize(records, next_flood, flood_end));
    drain_us = std::max<int64_t>(
        0, run.flood_segments.back().last_done_us - deadline_us);
    next_flood = flood_end;
  }
  run.fixed = Summarize(records, 0, plan.fixed_n);
  run.over = Summarize(records, plan.fixed_n, next_flood);
  run.end = next_flood;
  return run;
}

/// Probe and detector shares of release time, from the forwarding
/// wrappers' counters over a phase whose releases summed `release_s`.
/// `probe_wrapped` is false where the engine builds its probes itself
/// (streaming): only the detector split is measured there.
void AddLayerShares(Report* report, const LayerTotals& t, size_t releases,
                    double release_s, bool probe_wrapped) {
  const double n = static_cast<double>(std::max<size_t>(1, releases));
  const double release_ns = std::max(1.0, release_s * 1e9);
  auto mean = [](uint64_t ns, uint64_t calls) {
    return calls ? static_cast<double>(ns) / calls : 0.0;
  };
  report->Add("outlier.detect_calls_per_release", t.detect_calls / n,
              "count", releases);
  report->Add("outlier.detect_ns_per_value",
              t.detect_values
                  ? static_cast<double>(t.detect_ns) / t.detect_values
                  : 0.0,
              "ns", t.detect_calls);
  report->Add("outlier.detect_share", t.detect_ns / release_ns, "ratio",
              releases);
  if (!probe_wrapped) return;
  report->Add("context.count_calls_per_release", t.count_calls / n, "count",
              releases);
  report->Add("context.count_ns_mean", mean(t.count_ns, t.count_calls), "ns",
              t.count_calls);
  report->Add("context.count_share", t.count_ns / release_ns, "ratio",
              releases);
  report->Add("context.materialize_calls_per_release",
              t.materialize_calls / n, "count", releases);
  report->Add("context.materialize_ns_mean",
              mean(t.materialize_ns, t.materialize_calls), "ns",
              t.materialize_calls);
  report->Add("context.materialize_share", t.materialize_ns / release_ns,
              "ratio", releases);
  const double self_ns = release_ns - static_cast<double>(
                                          t.count_ns + t.materialize_ns +
                                          t.detect_ns);
  report->Add("search.release_self_ms_mean", self_ns / n / 1e6, "ms",
              releases);
}

void AddSetupMetrics(Report* report, const Samples& total,
                     const Samples& generate, const Samples& build,
                     const Samples& pool) {
  report->Add("setup_s", total.Median(), "s", total.size());
  report->Add("data.generate_s", generate.Median(), "s", generate.size());
  report->Add("context.index_build_s", build.Median(), "s", build.size());
  report->Add("setup.pool_s", pool.Median(), "s", pool.size());
}

/// Replays `sample` serially through `engine` (one fresh Rng per entry at
/// its rng_seed) and checks each against what was served.
void CheckReplays(const PcorEngine& engine, const std::vector<Record>& sample,
                  uint64_t seed_xor, Report* report) {
  size_t mismatches = 0;
  for (const Record& r : sample) {
    Rng rng(r.rng_seed ^ seed_xor);
    auto replay = engine.Release(r.v_row, ReleaseOptions(), &rng);
    if (!replay.ok() || ReleaseKey(*replay) != r.key) ++mismatches;
  }
  report->Check(!sample.empty(), "no release to replay");
  report->Check(mismatches == 0,
                pcor::strings::Format("%zu of %zu replayed releases differ "
                                      "from the served ones",
                                      mismatches, sample.size()));
  report->notes.push_back(pcor::strings::Format(
      "replay check: %zu sampled releases replayed serially, %zu mismatches",
      sample.size(), mismatches));
}

/// Up to `count` successful records spread evenly over [first, end).
std::vector<Record> SampleRecords(const std::vector<Record>& records,
                                  size_t first, size_t end, size_t count) {
  std::vector<Record> ok;
  for (size_t i = first; i < end; ++i) {
    if (records[i].ok) ok.push_back(records[i]);
  }
  std::vector<Record> sample;
  const size_t step = std::max<size_t>(1, ok.size() / std::max<size_t>(1, count));
  for (size_t i = 0; i < ok.size() && sample.size() < count; i += step) {
    sample.push_back(ok[i]);
  }
  return sample;
}

uint64_t DigestOf(const std::vector<Record>& records, size_t first,
                  size_t end) {
  uint64_t h = 0xd16e57;
  for (size_t i = first; i < end; ++i) h = Fold(h, records[i].digest);
  return h;
}

void CheckLedger(double spent, size_t released, Report* report) {
  const double expected = static_cast<double>(released) * kEpsilon;
  report->Check(std::abs(spent - expected) <= 1e-9 * std::max(1.0, expected),
                pcor::strings::Format("epsilon ledger holds %.9f, expected "
                                      "released x epsilon = %zu x %g = %.9f",
                                      spent, released, kEpsilon, expected));
}

void WriteSpans(const std::string& path, const Load& load,
                const std::vector<std::string>& extra) {
  if (path.empty()) return;
  std::ofstream out(path);
  const auto& records = load.records();
  std::vector<int64_t> batch_end(load.batches().size(), 0);
  for (size_t id = 0; id < records.size(); ++id) {
    const Record& r = records[id];
    if (!r.admitted) continue;
    out << pcor::strings::Format(
        "{\"span\":\"request\",\"request\":%zu,\"start_us\":%lld,"
        "\"end_us\":%lld}\n",
        id, static_cast<long long>(r.scheduled_us),
        static_cast<long long>(r.done_us));
    if (r.hook_us < 0) continue;
    out << pcor::strings::Format(
        "{\"span\":\"queue\",\"request\":%zu,\"start_us\":%lld,"
        "\"end_us\":%lld}\n",
        id, static_cast<long long>(r.submitted_us),
        static_cast<long long>(r.hook_us));
    // Anchored at completion: the release ran for release_s inside its
    // micro-batch and finished no later than its future resolved.
    out << pcor::strings::Format(
        "{\"span\":\"release\",\"request\":%zu,\"batch\":%u,"
        "\"start_us\":%lld,\"end_us\":%lld}\n",
        id, r.batch,
        static_cast<long long>(r.done_us -
                               static_cast<int64_t>(r.release_s * 1e6)),
        static_cast<long long>(r.done_us));
    batch_end[r.batch] = std::max(batch_end[r.batch], r.done_us);
  }
  for (size_t b = 0; b < load.batches().size(); ++b) {
    out << pcor::strings::Format(
        "{\"span\":\"micro_batch\",\"batch\":%zu,\"size\":%zu,"
        "\"start_us\":%lld,\"end_us\":%lld}\n",
        b, load.batches()[b].size,
        static_cast<long long>(load.batches()[b].start_us),
        static_cast<long long>(batch_end[b]));
  }
  for (const std::string& line : extra) out << line << "\n";
}

// ---------------------------------------------------------------------------
// serve_warm

struct ClassicSetup {
  pcor::GeneratedData data;
  std::unique_ptr<OutlierDetector> detector;
  EngineHolder engine;
  std::vector<uint32_t> pool;
};

void RunServeWarm(const RunOptions& options, Report* report) {
  const double rate = options.tiny ? 100.0 : 50.0;
  const size_t pool_size = 16;
  const double fixed_s = kFixedShare * options.seconds;
  const double flood_s = (1 - kFixedShare) * options.seconds;
  const std::vector<std::string> tenants = {"t0", "t1", "t2", "t3"};
  const std::vector<double> weights = {4, 2, 1, 1};

  ClassicSetup s;
  Samples setup_s, generate_s, build_s, pool_s;
  for (int rep = 0; rep < (options.tiny ? 1 : kWarmSetupReps); ++rep) {
    s = ClassicSetup{};
    const auto t0 = SteadyClock::now();
    pcor::SalaryDatasetSpec spec = pcor::ReducedSalarySpec();
    if (options.tiny) spec.num_rows = 2000;
    s.data = Generate(spec);
    const auto t1 = SteadyClock::now();
    s.detector = Detector("lof");
    s.engine = BuildEngine(s.data.dataset, *s.detector, options.trace);
    const auto t2 = SteadyClock::now();
    Rng rng(kWorkloadSeed);
    s.pool = pcor::SelectQueryOutliers(s.engine.engine->verifier(),
                                       s.data.planted_outlier_rows,
                                       pool_size, &rng);
    PCOR_CHECK(!s.pool.empty()) << "no planted outlier verifies";
    // Warm the memo: every pool row released kWarmRounds times at seeds
    // the measured load never uses.
    std::vector<uint32_t> warm_rows;
    for (int i = 0; i < kWarmRounds; ++i) {
      warm_rows.insert(warm_rows.end(), s.pool.begin(), s.pool.end());
    }
    s.engine.engine->ReleaseBatch(warm_rows, ReleaseOptions(),
                                  ~kWorkloadSeed);
    pool_s.Add(SecondsSince(t2));
    generate_s.Add(std::chrono::duration<double>(t1 - t0).count());
    build_s.Add(std::chrono::duration<double>(t2 - t1).count());
    setup_s.Add(SecondsSince(t0));
  }
  const PcorEngine& engine = *s.engine.engine;

  Rng rng(pcor::SplitMix64Mix(options.seed ^ 0x5e7e));
  const ReleasePlan plan = MakeReleasePlan(
      rate, fixed_s, static_cast<size_t>(flood_s * 4000) + 64, tenants,
      weights, s.pool.size(), &rng);
  const size_t fixed_n = plan.fixed_n;

  RealClock clock;
  const uint64_t server_seed = pcor::SplitMix64Mix(options.seed ^ 0x5e4e);
  Load load(plan.arrivals, plan.tenants, server_seed, &clock);
  pcor::ServeOptions serve;
  serve.release = ReleaseOptions();
  serve.seed = server_seed;
  serve.backpressure = pcor::BackpressurePolicy::kBlock;
  serve.queue_capacity = kQueueCapacity;
  if (options.trace) serve.pre_batch_hook = load.Hook();
  PcorServer server(engine, serve);
  for (size_t t = 0; t < plan.tenants.size(); ++t) {
    pcor::TenantConfig config;
    config.weight = plan.weights[t];
    PCOR_CHECK(server.RegisterTenant(plan.tenants[t], config).ok());
  }
  load.Start(&server);

  Samples lag_us;
  const CycleRun run = RunCycles(
      &load, &clock, plan, fixed_s, flood_s, s.pool,
      [&engine] { return CacheStatsOf(engine); }, server, &lag_us);
  load.Stop();
  server.Shutdown();

  const auto& records = load.records();
  const Phase& fixed = run.fixed;
  const Phase& over = run.over;
  report->attempted = run.end;
  report->failed = fixed.failed + over.failed;
  report->digest = DigestOf(records, 0, fixed_n);

  AddSetupMetrics(report, setup_s, generate_s, build_s, pool_s);
  AddLatencyMetrics(report, fixed, run.fixed_segments);
  AddFloodMetrics(report, run.flood_segments, pcor::DefaultThreadCount());
  report->Add("peak_rss_mb", PeakRssMb(), "MB", 1);
  AddLagMetrics(report, lag_us);
  report->Add("process.cpu_ms_per_release",
              run.cpu_ms / std::max<size_t>(1, fixed.ok), "ms", fixed.ok);
  AddSearchMetrics(report, fixed);
  AddMemoMetrics(report, pcor::LruCacheStats{}, run.memo, fixed.ok);
  report->notes.push_back(LagHistogram("fixed rate", lag_us));
  report->notes.push_back(pcor::strings::Format(
      "%zu cycles; fixed rate: %zu releases at %.0f/s over %.1f s; "
      "overload: %zu releases submitted over %.1f s",
      kCycles, fixed_n, rate, fixed_s, run.end - fixed_n, flood_s));
  if (options.trace) {
    AddServeMetrics(report, load, fixed, run.queue_high_water);
    AddLayerShares(report, run.layers, fixed.ok, fixed.release_s_sum, true);
    WriteSpans(options.spans_path, load, {});
  }

  // Output checks.
  report->Check(report->failed == 0,
                pcor::strings::Format("%zu releases failed or were refused",
                                      report->failed));
  CheckLedger(server.accountant().TotalSpent(), fixed.ok + over.ok, report);
  std::vector<Record> sample = SampleRecords(records, 0, fixed_n, 16);
  for (const Record& r : SampleRecords(records, fixed_n, run.end, 8)) {
    sample.push_back(r);
  }
  if (options.trace) {
    const EngineHolder reference =
        BuildEngine(s.data.dataset, *s.detector, /*traced=*/false);
    CheckReplays(*reference.engine, sample, options.replay_seed_xor, report);
  } else {
    CheckReplays(engine, sample, options.replay_seed_xor, report);
  }
}

// ---------------------------------------------------------------------------
// batch_cold

void RunBatchCold(const RunOptions& options, Report* report) {
  const size_t pool_size = 32;
  const size_t batch_size = options.tiny ? 32 : 256;
  const size_t threads = 4;

  ClassicSetup s;
  Samples setup_s, generate_s, build_s, pool_s;
  for (int rep = 0; rep < (options.tiny ? 1 : kSetupReps); ++rep) {
    s = ClassicSetup{};
    const auto t0 = SteadyClock::now();
    pcor::SalaryDatasetSpec spec = pcor::FullSalarySpec();
    if (options.tiny) spec.num_rows = 4000;
    s.data = Generate(spec);
    const auto t1 = SteadyClock::now();
    s.detector = Detector("zscore");
    s.engine = BuildEngine(s.data.dataset, *s.detector, /*traced=*/false);
    const auto t2 = SteadyClock::now();
    Rng rng(kWorkloadSeed);
    s.pool = pcor::SelectQueryOutliers(s.engine.engine->verifier(),
                                       s.data.planted_outlier_rows,
                                       pool_size, &rng);
    PCOR_CHECK(!s.pool.empty()) << "no planted outlier verifies";
    generate_s.Add(std::chrono::duration<double>(t1 - t0).count());
    build_s.Add(std::chrono::duration<double>(t2 - t1).count());
    pool_s.Add(SecondsSince(t2));
    setup_s.Add(SecondsSince(t0));
  }
  s.engine = EngineHolder{};  // the measured engines start cold

  std::vector<uint32_t> rows(batch_size);
  for (size_t i = 0; i < batch_size; ++i) rows[i] = s.pool[i % s.pool.size()];

  Samples rps, release_ms, round_p50_ms;
  double release_s_sum = 0.0, probes = 0.0, candidates = 0.0;
  double idle_sum = 0.0;
  size_t released = 0, rounds = 0;
  pcor::LruCacheStats memo_before, memo_after;
  std::vector<Record> sample;
  // Engine construction calls no probe or detector method, so one
  // snapshot around the loop covers exactly the batches.
  const LayerTotals layers0 = Snapshot();
  const double cpu0 = CpuMs();
  const auto start = SteadyClock::now();
  do {
    EngineHolder fresh = BuildEngine(s.data.dataset, *s.detector,
                                     options.trace);
    const uint64_t batch_seed = pcor::SplitMix64Mix(options.seed + rounds);
    const pcor::BatchReleaseReport batch =
        fresh.engine->ReleaseBatch(rows, ReleaseOptions(), batch_seed,
                                   threads);
    // A fresh engine's memo starts empty, so its end-of-batch counters
    // are this batch's counters.
    memo_after.hits += batch.verifier_stats.cache_hits;
    memo_after.misses += batch.verifier_stats.cache_misses;
    memo_after.evictions += batch.verifier_stats.cache_evictions;
    memo_after.resident_bytes = batch.verifier_stats.resident_bytes;

    double batch_release_s = 0.0;
    Samples batch_ms;
    for (size_t i = 0; i < batch.entries.size(); ++i) {
      const BatchEntry& e = batch.entries[i];
      if (!e.status.ok()) continue;
      release_ms.Add(e.release.seconds * 1e3);
      batch_ms.Add(e.release.seconds * 1e3);
      batch_release_s += e.release.seconds;
      probes += static_cast<double>(e.release.probes);
      candidates += static_cast<double>(e.release.num_candidates);
      if (rounds == 0) report->digest = Fold(report->digest,
                                             pcor::DigestBatchEntry(e));
      if (i % 37 == rounds % 37 && sample.size() < 24) {
        Record r;
        r.v_row = e.v_row;
        r.rng_seed = e.rng_seed;
        r.key = ReleaseKey(e.release);
        sample.push_back(r);
      }
    }
    release_s_sum += batch_release_s;
    round_p50_ms.Add(batch_ms.Median());
    idle_sum += 1.0 - batch_release_s / (batch.seconds * batch.threads);
    rps.Add(batch.num_released() / batch.seconds);
    released += batch.num_released();
    report->attempted += batch.entries.size();
    report->failed += batch.failures;
    CheckLedger(batch.total_epsilon_spent, batch.num_released(), report);
    ++rounds;
  } while (SecondsSince(start) < options.seconds || rounds < 3);
  const double cpu = CpuMs() - cpu0;
  const LayerTotals layers = Snapshot().Since(layers0);

  AddSetupMetrics(report, setup_s, generate_s, build_s, pool_s);
  report->Add("release_compute_p50_ms", round_p50_ms.Median(), "ms",
              release_ms.size());
  report->Add("release_p50_ms", round_p50_ms.Median(), "ms",
              release_ms.size());
  report->Add("release_p95_ms", release_ms.Quantile(0.95), "ms",
              release_ms.size());
  report->Add("release_p99_ms", release_ms.Quantile(0.99), "ms",
              release_ms.size());
  report->Add("releases_per_s", rps.Median(), "1/s", rps.size());
  report->Add("peak_rss_mb", PeakRssMb(), "MB", 1);
  report->Add("process.cpu_ms_per_release",
              cpu / std::max<size_t>(1, released), "ms", released);
  report->Add("search.batch_idle_share", idle_sum / rounds, "ratio", rounds);
  report->Add("search.release_ms_p50", release_ms.Quantile(0.5), "ms",
              release_ms.size());
  report->Add("search.release_ms_p99", release_ms.Quantile(0.99), "ms",
              release_ms.size());
  report->Add("search.probes_per_release",
              probes / std::max<size_t>(1, released), "count", released);
  report->Add("search.candidates_per_release",
              candidates / std::max<size_t>(1, released), "count", released);
  AddMemoMetrics(report, memo_before, memo_after, released);
  if (options.trace) {
    AddLayerShares(report, layers, released, release_s_sum, true);
  }
  report->notes.push_back(pcor::strings::Format(
      "%zu rounds of one ReleaseBatch(%zu releases, %zu threads) on a "
      "fresh engine",
      rounds, batch_size, threads));

  report->Check(report->failed == 0,
                pcor::strings::Format("%zu releases failed", report->failed));
  const EngineHolder reference =
      BuildEngine(s.data.dataset, *s.detector, /*traced=*/false);
  CheckReplays(*reference.engine, sample, options.replay_seed_xor, report);
}

// ---------------------------------------------------------------------------
// stream_ingest

struct StreamSetup {
  pcor::GeneratedData data;
  std::vector<Row> rows;
  std::unique_ptr<OutlierDetector> detector;
  std::unique_ptr<TimedDetector> timed;
  std::unique_ptr<pcor::StreamingPcorEngine> stream;
  std::unique_ptr<PcorServer> server;  // declared last: destroyed first
  std::vector<uint32_t> pool;
};

void RunStreamIngest(const RunOptions& options, Report* report) {
  const double rate = options.tiny ? 20.0 : 50.0;  // releases per second
  const double row_rate = 256.0;
  const size_t rows_per_append = 16;
  const size_t rows_per_seal = 256;
  const size_t prefix = options.tiny ? 2048 : 11000;
  const size_t pool_size = 16;
  const double fixed_s = kFixedShare * options.seconds;
  const double flood_s = (1 - kFixedShare) * options.seconds;
  const double ingest_s = options.seconds + kIngestTailS;
  const size_t append_events =
      static_cast<size_t>(ingest_s * row_rate / rows_per_append);
  const size_t total_rows = prefix + append_events * rows_per_append;
  const std::vector<std::string> tenants = {"s0", "s1"};
  const std::vector<double> weights = {1, 1};

  Rng rng(pcor::SplitMix64Mix(options.seed ^ 0x5e7e));
  const ReleasePlan plan = MakeReleasePlan(
      rate, fixed_s, static_cast<size_t>(flood_s * 2000) + 64, tenants,
      weights, pool_size, &rng);
  const size_t fixed_n = plan.fixed_n;

  RealClock clock;
  const uint64_t server_seed = pcor::SplitMix64Mix(options.seed ^ 0x5e4e);
  Load load(plan.arrivals, plan.tenants, server_seed, &clock);
  pcor::ServeOptions serve;
  serve.release = ReleaseOptions();
  serve.seed = server_seed;
  serve.backpressure = pcor::BackpressurePolicy::kBlock;
  serve.queue_capacity = kQueueCapacity;
  if (options.trace) serve.pre_batch_hook = load.Hook();

  StreamSetup s;
  Samples setup_s, generate_s, build_s, pool_s;
  for (int rep = 0; rep < (options.tiny ? 1 : kSetupReps); ++rep) {
    s = StreamSetup{};
    const auto t0 = SteadyClock::now();
    pcor::SalaryDatasetSpec spec = pcor::ReducedSalarySpec();
    spec.num_planted = spec.num_planted * total_rows / spec.num_rows;
    spec.num_rows = total_rows;
    s.data = Generate(spec);
    s.rows.reserve(total_rows);
    for (size_t i = 0; i < total_rows; ++i) {
      s.rows.push_back(s.data.dataset.GetRow(i));
    }
    const auto t1 = SteadyClock::now();
    s.detector = Detector("zscore");
    const OutlierDetector* detector = s.detector.get();
    if (options.trace) {
      s.timed = std::make_unique<TimedDetector>(*s.detector);
      detector = s.timed.get();
    }
    s.stream = std::make_unique<pcor::StreamingPcorEngine>(
        s.data.dataset.schema(), *detector);
    s.server = std::make_unique<PcorServer>(*s.stream, serve);
    PCOR_CHECK(s.server
                   ->SubmitAppends(std::span<const Row>(s.rows.data(), prefix))
                   .ok());
    PCOR_CHECK(s.server->SealEpoch().ok());
    const auto t2 = SteadyClock::now();
    std::vector<uint32_t> candidates;
    for (uint32_t row : s.data.planted_outlier_rows) {
      if (row < prefix) candidates.push_back(row);
    }
    Rng pick(kWorkloadSeed);
    s.pool = pcor::SelectQueryOutliers(s.stream->Pin()->engine->verifier(),
                                       candidates, pool_size, &pick);
    PCOR_CHECK(!s.pool.empty()) << "no planted outlier verifies";
    generate_s.Add(std::chrono::duration<double>(t1 - t0).count());
    build_s.Add(std::chrono::duration<double>(t2 - t1).count());
    pool_s.Add(SecondsSince(t2));
    setup_s.Add(SecondsSince(t0));
  }
  PcorServer& server = *s.server;
  pcor::StreamingPcorEngine& stream = *s.stream;
  for (size_t t = 0; t < plan.tenants.size(); ++t) {
    pcor::TenantConfig config;
    config.weight = plan.weights[t];
    PCOR_CHECK(server.RegisterTenant(plan.tenants[t], config).ok());
  }
  load.Start(&server);

  // Ingest: its own driver thread appends at a fixed row rate and seals
  // every rows_per_seal rows, for the whole measurement.
  const int64_t origin_us = clock.NowMicros() + 1000;
  std::vector<pcor::TraceEvent> ingest;
  for (size_t i = 0; i < append_events; ++i) {
    pcor::TraceEvent e;
    e.at_us = origin_us +
              static_cast<int64_t>(i * rows_per_append * 1e6 / row_rate);
    e.tenant = "ingest";
    e.kind = pcor::TraceEventKind::kAppend;
    e.rows = rows_per_append;
    ingest.push_back(e);
    if ((i + 1) * rows_per_append % rows_per_seal == 0 ||
        i + 1 == append_events) {
      e.kind = pcor::TraceEventKind::kSeal;
      e.rows = 0;
      ingest.push_back(e);
    }
  }
  Samples append_us, seal_ms, ingest_lag_us, segments;
  size_t appended = 0, append_errors = 0, seal_errors = 0, seals = 0;
  size_t seals_with_invalidation = 0;
  std::vector<std::string> seal_spans;
  const pcor::StreamingStats stream0 = stream.stats();
  std::thread ingest_thread([&] {
    pcor::TraceDriver driver(ingest, &clock);
    size_t last_invalidations = stream0.cache_invalidations;
    driver.Run([&](const pcor::TraceEvent& e, int64_t scheduled_us,
                   int64_t fired_us) {
      ingest_lag_us.Add(static_cast<double>(fired_us - scheduled_us));
      if (e.kind == pcor::TraceEventKind::kAppend) {
        for (uint64_t r = 0; r < e.rows; ++r) {
          const auto a0 = SteadyClock::now();
          const bool ok = server.SubmitAppend(s.rows[prefix + appended]).ok();
          append_us.Add(std::chrono::duration<double, std::micro>(
                            SteadyClock::now() - a0)
                            .count());
          ok ? ++appended : ++append_errors;
        }
        return;
      }
      const int64_t start_us = clock.NowMicros();
      const auto s0 = SteadyClock::now();
      auto sealed = server.SealEpoch();
      seal_ms.Add(std::chrono::duration<double, std::milli>(
                      SteadyClock::now() - s0)
                      .count());
      ++seals;
      if (!sealed.ok()) ++seal_errors;
      const pcor::StreamingStats st = stream.stats();
      segments.Add(static_cast<double>(st.segments));
      if (st.cache_invalidations > last_invalidations) {
        ++seals_with_invalidation;
      }
      last_invalidations = st.cache_invalidations;
      if (options.trace) {
        seal_spans.push_back(pcor::strings::Format(
            "{\"span\":\"seal\",\"epoch\":%llu,\"start_us\":%lld,"
            "\"end_us\":%lld}",
            static_cast<unsigned long long>(sealed.ok() ? *sealed : 0),
            static_cast<long long>(start_us),
            static_cast<long long>(clock.NowMicros())));
      }
    });
  });

  // Releases: fixed-rate and overload segments while ingest goes on.
  Samples lag_us;
  const CycleRun run = RunCycles(
      &load, &clock, plan, fixed_s, flood_s, s.pool,
      [&stream] { return stream.memo()->CacheStats(); }, server, &lag_us);
  ingest_thread.join();
  load.Stop();
  const pcor::StreamingStats stream1 = stream.stats();
  const uint64_t final_epoch = server.stats().epoch;
  server.Shutdown();

  const auto& records = load.records();
  const Phase& fixed = run.fixed;
  const Phase& over = run.over;
  report->attempted = run.end + append_events * rows_per_append + seals;
  report->failed = fixed.failed + over.failed + append_errors + seal_errors;

  AddSetupMetrics(report, setup_s, generate_s, build_s, pool_s);
  AddLatencyMetrics(report, fixed, run.fixed_segments);
  AddFloodMetrics(report, run.flood_segments, pcor::DefaultThreadCount());
  report->Add("peak_rss_mb", PeakRssMb(), "MB", 1);
  AddLagMetrics(report, lag_us);
  report->Add("process.cpu_ms_per_release",
              run.cpu_ms / std::max<size_t>(1, fixed.ok), "ms", fixed.ok);
  AddSearchMetrics(report, fixed);
  AddMemoMetrics(report, pcor::LruCacheStats{}, run.memo, fixed.ok);
  report->Add("stream.seal_ms_p50", seal_ms.Quantile(0.5), "ms",
              seal_ms.size());
  report->Add("stream.seal_ms_p99", seal_ms.Quantile(0.99), "ms",
              seal_ms.size());
  // Share of the ingest schedule spent inside SealEpoch.
  report->Add("stream.seal_busy_share",
              seal_ms.Sum() / (ingest_s * 1e3), "ratio",
              seal_ms.size());
  report->Add("search.append_us_p99", append_us.Quantile(0.99), "us",
              append_us.size());
  report->Add("search.segments_mean", segments.Mean(), "count",
              segments.size());
  report->Add("search.compactions",
              static_cast<double>(stream1.compactions - stream0.compactions),
              "count", seals);
  report->notes.push_back(LagHistogram("release driver", lag_us));
  report->notes.push_back(LagHistogram("ingest driver", ingest_lag_us));
  report->notes.push_back(pcor::strings::Format(
      "%zu cycles; fixed rate: %zu releases at %.0f/s beside %.0f rows/s "
      "with a seal every %zu rows; overload: %zu releases; memo "
      "invalidations grew on %zu of %zu seals",
      kCycles, fixed_n, rate, row_rate, rows_per_seal, run.end - fixed_n,
      seals_with_invalidation, seals));
  if (options.trace) {
    AddServeMetrics(report, load, fixed, run.queue_high_water);
    AddLayerShares(report, run.layers, fixed.ok, fixed.release_s_sum, false);
    WriteSpans(options.spans_path, load, seal_spans);
  }

  // Output checks.
  report->Check(report->failed == 0,
                pcor::strings::Format("%zu operations failed or were refused",
                                      report->failed));
  report->Check(append_errors == 0 && appended == total_rows - prefix,
                pcor::strings::Format("%zu rows appended, %zu append errors",
                                      appended, append_errors));
  report->Check(final_epoch == prefix + appended,
                pcor::strings::Format("final epoch %llu, rows appended %zu",
                                      static_cast<unsigned long long>(
                                          final_epoch),
                                      prefix + appended));
  CheckLedger(server.accountant().TotalSpent(), fixed.ok + over.ok, report);
  // Snapshot consistency: a release pinned to epoch e replays bit for bit
  // on a fresh load-once engine over the first e rows.
  std::vector<Record> sample = SampleRecords(records, 0, fixed_n, 6);
  for (const Record& r : SampleRecords(records, fixed_n, run.end, 2)) {
    sample.push_back(r);
  }
  size_t mismatches = 0;
  for (const Record& r : sample) {
    std::vector<uint32_t> keep(r.epoch);
    std::iota(keep.begin(), keep.end(), 0u);
    auto prefix_data = s.data.dataset.SelectRows(keep);
    PCOR_CHECK(prefix_data.ok());
    const PcorEngine oracle(*prefix_data, *s.detector);
    Report one;
    CheckReplays(oracle, {r}, options.replay_seed_xor, &one);
    if (!one.failures.empty()) ++mismatches;
  }
  report->Check(mismatches == 0,
                pcor::strings::Format("%zu of %zu replayed releases differ "
                                      "from the served ones",
                                      mismatches, sample.size()));
  report->notes.push_back(pcor::strings::Format(
      "replay check: %zu sampled releases replayed on fresh engines over "
      "their epoch's rows, %zu mismatches",
      sample.size(), mismatches));
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"serve_warm", "batch_cold",
                                                 "stream_ingest"};
  return names;
}

bool RunWorkload(const std::string& name, const RunOptions& options,
                 Report* report) {
  report->workload = name;
  if (name == "serve_warm") {
    RunServeWarm(options, report);
  } else if (name == "batch_cold") {
    RunBatchCold(options, report);
  } else if (name == "stream_ingest") {
    RunStreamIngest(options, report);
  } else {
    return false;
  }
  return true;
}

void CheckForwardingIdentity(const std::string& workload, uint64_t seed,
                             std::vector<std::string>* failures) {
  const bool full = workload == "batch_cold";
  pcor::SalaryDatasetSpec spec =
      full ? pcor::FullSalarySpec() : pcor::ReducedSalarySpec();
  spec.num_rows = full ? 4000 : 2000;
  const pcor::GeneratedData data = Generate(spec);
  auto detector = Detector(workload == "serve_warm" ? "lof" : "zscore");
  const EngineHolder standard = BuildEngine(data.dataset, *detector, false);
  const EngineHolder timed = BuildEngine(data.dataset, *detector, true);
  Rng rng(seed);
  const std::vector<uint32_t> pool = pcor::SelectQueryOutliers(
      standard.engine->verifier(), data.planted_outlier_rows, 8, &rng);
  if (pool.empty()) {
    failures->push_back(workload + ": no planted outlier verifies");
    return;
  }
  std::vector<uint32_t> rows;
  for (int i = 0; i < 4; ++i) rows.insert(rows.end(), pool.begin(), pool.end());
  const auto a = standard.engine->ReleaseBatch(rows, ReleaseOptions(), seed);
  const auto b = timed.engine->ReleaseBatch(rows, ReleaseOptions(), seed);
  size_t differ = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (pcor::DigestBatchEntry(a.entries[i]) !=
        pcor::DigestBatchEntry(b.entries[i])) {
      ++differ;
    }
  }
  if (differ != 0 || a.failures != 0) {
    failures->push_back(pcor::strings::Format(
        "%s: forwarding engine differs from the standard engine on %zu of "
        "%zu releases (%zu failed)",
        workload.c_str(), differ, rows.size(), a.failures));
  }
}

}  // namespace perfbench
