// The release path computes each thing once:
//   - |D_C| rides in the verifier memo entry, so a warm-memo release with
//     the population-size utility never calls PopulationCount (counted
//     through a forwarding probe);
//   - DP-DFS and DP-BFS hand back the scores they searched with, equal to
//     utility.Score of each sample, so the final draw scores nothing again;
//   - ReleaseBatch fans out on one long-lived pool; the calling thread runs
//     no entry, and a batch issued from one of the pool's own workers still
//     completes, bit-identical to a serial run.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "src/common/threading.h"
#include "src/context/sharded_population_index.h"
#include "src/search/pcor.h"
#include "tests/testing_util.h"

namespace pcor {
namespace {

/// \brief Forwards every call to `inner`, counting PopulationCount calls
/// and recording which threads materialize populations.
class CountingProbe final : public PopulationProbe {
 public:
  explicit CountingProbe(std::shared_ptr<const PopulationProbe> inner)
      : inner_(std::move(inner)) {}

  const Dataset& dataset() const override { return inner_->dataset(); }
  size_t num_rows() const override { return inner_->num_rows(); }
  IndexStorage storage() const override { return inner_->storage(); }
  PopulationIndexStats MemoryStats() const override {
    return inner_->MemoryStats();
  }
  void PopulationInto(const ContextVec& c, BitVector* population,
                      BitVector* attr_union) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      materializing_threads_.insert(std::this_thread::get_id());
    }
    inner_->PopulationInto(c, population, attr_union);
  }
  size_t PopulationCount(const ContextVec& c) const override {
    count_calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_->PopulationCount(c);
  }
  size_t OverlapCount(const ContextVec& c1,
                      const ContextVec& c2) const override {
    return inner_->OverlapCount(c1, c2);
  }
  const BitVector& ValueBitmap(size_t attr, size_t value) const override {
    return inner_->ValueBitmap(attr, value);
  }
  uint32_t RowCode(uint32_t row, size_t attr) const override {
    return inner_->RowCode(row, attr);
  }
  double RowMetric(uint32_t row) const override {
    return inner_->RowMetric(row);
  }
  void GatherMetrics(const BitVector& population,
                     std::vector<uint32_t>* row_ids,
                     std::vector<double>* metric) const override {
    inner_->GatherMetrics(population, row_ids, metric);
  }
  ThreadPool* probe_pool() const override { return inner_->probe_pool(); }

  size_t count_calls() const {
    return count_calls_.load(std::memory_order_relaxed);
  }
  bool MaterializedOn(std::thread::id thread) const {
    std::lock_guard<std::mutex> lock(mu_);
    return materializing_threads_.count(thread) != 0;
  }

 private:
  std::shared_ptr<const PopulationProbe> inner_;
  mutable std::atomic<size_t> count_calls_{0};
  mutable std::mutex mu_;
  mutable std::set<std::thread::id> materializing_threads_;
};

void ExpectSameEntry(const BatchEntry& a, const BatchEntry& b) {
  ASSERT_EQ(a.status.ok(), b.status.ok()) << a.status.ToString();
  EXPECT_EQ(a.v_row, b.v_row);
  EXPECT_EQ(a.rng_seed, b.rng_seed);
  if (!a.status.ok()) return;
  EXPECT_EQ(a.release.context, b.release.context);
  EXPECT_EQ(a.release.starting_context, b.release.starting_context);
  EXPECT_EQ(a.release.num_candidates, b.release.num_candidates);
  EXPECT_EQ(a.release.probes, b.release.probes);
  EXPECT_DOUBLE_EQ(a.release.utility_score, b.release.utility_score);
  EXPECT_DOUBLE_EQ(a.release.epsilon_spent, b.release.epsilon_spent);
}

class ComputeOnceTest : public ::testing::Test {
 protected:
  ComputeOnceTest()
      : grid_(testing_util::MakeSpreadGridDataset()),
        detector_(testing_util::MakeTestDetector()) {}

  std::shared_ptr<CountingProbe> MakeProbe() const {
    return std::make_shared<CountingProbe>(
        std::make_shared<ShardedPopulationIndex>(grid_.dataset));
  }

  std::unique_ptr<PcorEngine> MakeEngine(
      std::shared_ptr<const PopulationProbe> probe,
      std::shared_ptr<ThreadPool> release_pool = nullptr) const {
    return std::make_unique<PcorEngine>(
        std::move(probe), detector_,
        std::make_shared<VerifierMemo>(VerifierOptions{}),
        grid_.dataset.num_rows(), VerifierOptions{}, std::move(release_pool));
  }

  static PcorOptions Options(SamplerKind kind) {
    PcorOptions options;
    options.sampler = kind;
    options.num_samples = 8;
    options.total_epsilon = 0.4;
    options.utility = UtilityKind::kPopulationSize;
    return options;
  }

  testing_util::GridData grid_;
  ZscoreDetector detector_;
};

TEST_F(ComputeOnceTest, WarmMemoReleaseMakesNoPopulationCount) {
  const auto probe = MakeProbe();
  const auto engine = MakeEngine(probe);
  for (SamplerKind kind :
       {SamplerKind::kBfs, SamplerKind::kDfs, SamplerKind::kDirect,
        SamplerKind::kUniform, SamplerKind::kRandomWalk}) {
    SCOPED_TRACE(SamplerKindName(kind));
    Rng cold_rng(99);
    auto cold = engine->Release(grid_.v_row, Options(kind), &cold_rng);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    const size_t before = probe->count_calls();
    Rng warm_rng(99);
    auto warm = engine->Release(grid_.v_row, Options(kind), &warm_rng);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    EXPECT_EQ(warm->f_evaluations, 0u) << "memo was not warm";
    EXPECT_EQ(probe->count_calls(), before);
    EXPECT_EQ(warm->context, cold->context);
    EXPECT_DOUBLE_EQ(warm->utility_score, cold->utility_score);
  }
  // |D_C| comes from the memo entry on cold releases too.
  EXPECT_EQ(probe->count_calls(), 0u);
}

TEST_F(ComputeOnceTest, GraphSamplersHandBackTheirScores) {
  const PcorEngine engine(grid_.dataset, detector_);
  const OutlierVerifier& verifier = engine.verifier();
  Rng start_rng(5);
  auto start = FindStartingContext(verifier, grid_.v_row,
                                   StartingContextOptions{}, &start_rng);
  ASSERT_TRUE(start.ok());
  const PopulationSizeUtility population(verifier);
  const OverlapUtility overlap(verifier, *start);
  for (const UtilityFunction* utility :
       {static_cast<const UtilityFunction*>(&population),
        static_cast<const UtilityFunction*>(&overlap)}) {
    for (SamplerKind kind : {SamplerKind::kBfs, SamplerKind::kDfs}) {
      SCOPED_TRACE(::testing::Message()
                   << SamplerKindName(kind) << " " << utility->name());
      SamplerRequest request;
      request.verifier = &verifier;
      request.utility = utility;
      request.v_row = grid_.v_row;
      request.start_context = *start;
      request.num_samples = 10;
      request.epsilon1 = 0.05;
      Rng rng(123);
      auto outcome = MakeSampler(kind)->Sample(request, &rng);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      ASSERT_EQ(outcome->scores.size(), outcome->samples.size());
      for (size_t i = 0; i < outcome->samples.size(); ++i) {
        EXPECT_EQ(outcome->scores[i],
                  utility->Score(outcome->samples[i], grid_.v_row))
            << i;
      }
    }
  }
}

TEST_F(ComputeOnceTest, BatchCallerRunsNoEntry) {
  const auto probe = MakeProbe();
  const auto engine = MakeEngine(probe);
  const std::vector<uint32_t> rows(12, grid_.v_row);
  const BatchReleaseReport report = engine->ReleaseBatch(
      rows, Options(SamplerKind::kBfs), /*seed=*/8, /*num_threads=*/3);
  EXPECT_EQ(report.threads, 3u);
  EXPECT_EQ(report.failures, 0u);
  // The cold memo made every executing thread materialize populations.
  EXPECT_FALSE(probe->MaterializedOn(std::this_thread::get_id()));
}

TEST_F(ComputeOnceTest, BatchIssuedFromAReleasePoolWorkerCompletes) {
  // The engine's own release pool runs the outer task, which then waits on
  // a batch fanned out over that same pool — with one worker, every other
  // worker the batch could want is the caller itself.
  std::vector<BatchRequest> requests(10);
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].v_row = grid_.v_row;
    requests[i].options =
        Options(i % 2 == 0 ? SamplerKind::kBfs : SamplerKind::kDfs);
  }
  const auto serial_engine = MakeEngine(MakeProbe());
  const BatchReleaseReport serial = serial_engine->ReleaseBatch(
      std::span<const BatchRequest>(requests), Options(SamplerKind::kBfs),
      /*seed=*/31, /*num_threads=*/1);
  for (size_t workers : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE(::testing::Message() << "workers=" << workers);
    auto pool = std::make_shared<ThreadPool>(workers);
    const auto engine = MakeEngine(MakeProbe(), pool);
    BatchReleaseReport nested;
    pool->Submit([&] {
      nested = engine->ReleaseBatch(std::span<const BatchRequest>(requests),
                                    Options(SamplerKind::kBfs), /*seed=*/31,
                                    /*num_threads=*/4);
    });
    pool->Wait();
    EXPECT_EQ(nested.threads, 4u);
    ASSERT_EQ(nested.entries.size(), serial.entries.size());
    EXPECT_EQ(nested.failures, serial.failures);
    for (size_t i = 0; i < serial.entries.size(); ++i) {
      SCOPED_TRACE(i);
      ExpectSameEntry(serial.entries[i], nested.entries[i]);
    }
  }
}

}  // namespace
}  // namespace pcor
