// Equivalence fuzz for OutlierVerifier::Evaluate: the population size a
// memo entry carries must equal the probe's own PopulationCount for every
// context, on every probe implementation the engine runs over — dense and
// compressed PopulationIndex, ShardedPopulationIndex at 1 and 7 shards,
// SegmentedPopulationProbe in seal-per-row and bursty layouts — for
// contexts below the detector's min_population, with the memo disabled,
// and across two epochs of one stream sharing a memo (each epoch must
// report its own count for the same context). The outlier flag must agree
// with the memoized outlier rows, and a second (memo-hit) lookup must
// answer exactly like the first.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/context/detector_cache.h"
#include "src/context/population_index.h"
#include "src/context/segmented_population_probe.h"
#include "src/context/sharded_population_index.h"
#include "src/data/salary_generator.h"
#include "src/search/streaming.h"
#include "tests/testing_util.h"

namespace pcor {
namespace {

ContextVec RandomContext(const Schema& schema, double density, Rng* rng) {
  ContextVec c(schema.total_values());
  for (size_t bit = 0; bit < c.num_bits(); ++bit) {
    if (rng->NextBernoulli(density)) c.Set(bit);
  }
  return c;
}

std::vector<ContextVec> FuzzContexts(const Schema& schema, uint64_t seed,
                                     int num_trials) {
  Rng rng(seed);
  std::vector<ContextVec> contexts;
  contexts.push_back(ContextVec(schema.total_values()));  // selects nothing
  contexts.push_back(context_ops::FullContext(schema));
  for (int t = 0; t < num_trials; ++t) {
    contexts.push_back(RandomContext(schema, 0.5, &rng));
    contexts.push_back(RandomContext(schema, 0.25, &rng));
    contexts.push_back(RandomContext(schema, 0.8, &rng));
  }
  return contexts;
}

// Rows to query per context: the first, middle and last member of D_C
// (population reported) plus one non-member (never an outlier, population
// reported as 0 without a lookup).
std::vector<uint32_t> QueryRows(const PopulationProbe& probe,
                                const ContextVec& c) {
  PopulationScratch scratch;
  const PopulationView view = probe.ViewOf(c, &scratch);
  std::vector<uint32_t> rows;
  if (view.size() > 0) {
    rows.push_back(view.row_ids()[0]);
    rows.push_back(view.row_ids()[view.size() / 2]);
    rows.push_back(view.row_ids()[view.size() - 1]);
  }
  for (uint32_t r = 0; r < probe.num_rows(); ++r) {
    if (!probe.ContextContainsRow(c, r)) {
      rows.push_back(r);
      break;
    }
  }
  return rows;
}

// Returns how many (context, member row) pairs were checked.
size_t ExpectEvaluateAgrees(const PopulationProbe& probe,
                            const OutlierDetector& detector,
                            const VerifierOptions& options, uint64_t seed,
                            int num_trials) {
  const OutlierVerifier verifier(probe, detector, options);
  size_t member_checks = 0;
  for (const ContextVec& c : FuzzContexts(probe.schema(), seed, num_trials)) {
    const size_t count = probe.PopulationCount(c);
    const auto outliers = verifier.OutliersInContext(c);
    for (uint32_t v : QueryRows(probe, c)) {
      SCOPED_TRACE(::testing::Message()
                   << c.ToBitString() << " v=" << v << " |D_C|=" << count);
      const OutlierEvaluation first = verifier.Evaluate(c, v);
      const OutlierEvaluation again = verifier.Evaluate(c, v);
      EXPECT_EQ(first.is_outlier, again.is_outlier);
      EXPECT_EQ(first.population, again.population);
      if (!probe.ContextContainsRow(c, v)) {
        EXPECT_FALSE(first.is_outlier);
        EXPECT_EQ(first.population, 0u);
        continue;
      }
      ++member_checks;
      EXPECT_EQ(first.population, count);
      EXPECT_EQ(first.is_outlier,
                std::binary_search(outliers->begin(), outliers->end(), v));
      EXPECT_EQ(first.is_outlier, verifier.IsOutlierInContext(c, v));
    }
  }
  return member_checks;
}

std::vector<std::shared_ptr<const PopulationSegment>> SegmentsOf(
    const Dataset& dataset, std::vector<uint32_t> boundaries,
    IndexStorage storage) {
  boundaries.push_back(static_cast<uint32_t>(dataset.num_rows()));
  std::vector<std::shared_ptr<const PopulationSegment>> segments;
  uint32_t begin = 0;
  for (const uint32_t end : boundaries) {
    auto rows = std::make_shared<Dataset>(dataset.schema());
    for (uint32_t r = begin; r < end; ++r) {
      rows->AppendRow(dataset.GetRow(r)).CheckOK();
    }
    segments.push_back(MakeSegment(begin, std::move(rows), storage));
    begin = end;
  }
  return segments;
}

Dataset SmallSalary() {
  SalaryDatasetSpec spec;
  spec.num_rows = 3'000;
  spec.num_jobs = 6;
  spec.num_employers = 5;
  spec.num_years = 4;
  spec.num_planted = 20;
  spec.seed = 77;
  auto generated = GenerateSalaryDataset(spec);
  generated.status().CheckOK();
  return std::move(generated->dataset);
}

// Three detector/memo configurations per probe: the grid detector, one
// whose min_population (60) puts most fuzzed contexts below it — their
// entries skip the detector but must still carry |D_C| — and the grid
// detector with memoization disabled (every lookup recomputes).
void ExpectEvaluateAgreesForAllConfigs(const PopulationProbe& probe,
                                       uint64_t seed, int num_trials) {
  const ZscoreDetector grid_detector = testing_util::MakeTestDetector();
  ZscoreOptions high_floor;
  high_floor.min_population = 60;
  const ZscoreDetector sparse_detector(high_floor);
  VerifierOptions no_cache;
  no_cache.enable_cache = false;
  {
    SCOPED_TRACE("cached");
    EXPECT_GT(ExpectEvaluateAgrees(probe, grid_detector, VerifierOptions{},
                                   seed, num_trials),
              0u);
  }
  {
    SCOPED_TRACE("below min_population");
    EXPECT_GT(ExpectEvaluateAgrees(probe, sparse_detector, VerifierOptions{},
                                   seed + 1, num_trials),
              0u);
  }
  {
    SCOPED_TRACE("enable_cache=false");
    EXPECT_GT(ExpectEvaluateAgrees(probe, grid_detector, no_cache, seed + 2,
                                   num_trials),
              0u);
  }
}

TEST(EvaluateEquivalenceTest, DenseAndCompressedIndex) {
  const Dataset grid = testing_util::MakeSpreadGridDataset().dataset;
  const Dataset salary = SmallSalary();
  for (IndexStorage storage :
       {IndexStorage::kDense, IndexStorage::kCompressed}) {
    SCOPED_TRACE(storage == IndexStorage::kDense ? "dense" : "compressed");
    ExpectEvaluateAgreesForAllConfigs(PopulationIndex(grid, storage), 11, 30);
    ExpectEvaluateAgreesForAllConfigs(PopulationIndex(salary, storage), 12, 8);
  }
}

TEST(EvaluateEquivalenceTest, ShardedIndexAtOneAndSevenShards) {
  const Dataset grid = testing_util::MakeSpreadGridDataset().dataset;
  const Dataset salary = SmallSalary();
  for (size_t shards : {size_t{1}, size_t{7}}) {
    SCOPED_TRACE(::testing::Message() << "shards=" << shards);
    ShardedIndexOptions options;
    options.shard_count = shards;
    const ShardedPopulationIndex sharded_grid(grid, options);
    const ShardedPopulationIndex sharded_salary(salary, options);
    ASSERT_EQ(sharded_salary.shard_count(), shards);
    ExpectEvaluateAgreesForAllConfigs(sharded_grid, 21, 30);
    ExpectEvaluateAgreesForAllConfigs(sharded_salary, 22, 8);
  }
}

TEST(EvaluateEquivalenceTest, SegmentedProbeSealPerRowAndBursty) {
  for (IndexStorage storage :
       {IndexStorage::kDense, IndexStorage::kCompressed}) {
    SCOPED_TRACE(storage == IndexStorage::kDense ? "dense" : "compressed");
    // Seal-per-row: every grid row its own segment.
    const Dataset grid = testing_util::MakeSpreadGridDataset().dataset;
    std::vector<uint32_t> per_row;
    for (uint32_t r = 1; r < grid.num_rows(); ++r) per_row.push_back(r);
    const SegmentedPopulationProbe per_row_probe(
        grid.schema(), SegmentsOf(grid, per_row, storage), storage,
        /*probe_threads=*/1);
    ExpectEvaluateAgreesForAllConfigs(per_row_probe, 31, 30);

    // Bursty: uneven, odd (never word-aligned) seal points.
    const Dataset salary = SmallSalary();
    Rng rng(41);
    std::vector<uint32_t> cuts;
    for (uint32_t at = 97; at + 1 < salary.num_rows();
         at += 50 + static_cast<uint32_t>(rng.NextBounded(400))) {
      cuts.push_back(at | 1u);
    }
    const SegmentedPopulationProbe bursty_probe(
        salary.schema(), SegmentsOf(salary, cuts, storage), storage,
        /*probe_threads=*/4);
    ExpectEvaluateAgreesForAllConfigs(bursty_probe, 32, 8);
  }
}

TEST(EvaluateEquivalenceTest, EachEpochOfAStreamReportsItsOwnCount) {
  // Two epochs share one memo. The same context must report each epoch's
  // own |D_C| — asked in both orders, and again once both entries are
  // resident — because the epoch is part of the memo key.
  const Dataset grid = testing_util::MakeSpreadGridDataset().dataset;
  const ZscoreDetector detector = testing_util::MakeTestDetector();
  StreamingPcorEngine stream(grid.schema(), detector);
  const uint32_t half = static_cast<uint32_t>(grid.num_rows() / 2);
  for (uint32_t r = 0; r < half; ++r) {
    ASSERT_TRUE(stream.Append(grid.GetRow(r)).ok());
  }
  stream.SealEpoch();
  const auto first = stream.Pin();
  for (uint32_t r = half; r < grid.num_rows(); ++r) {
    ASSERT_TRUE(stream.Append(grid.GetRow(r)).ok());
  }
  stream.SealEpoch();
  const auto second = stream.Pin();
  ASSERT_LT(first->epoch, second->epoch);
  ASSERT_EQ(first->engine->verifier().memo(),
            second->engine->verifier().memo());

  size_t differing = 0;
  for (const ContextVec& c : FuzzContexts(grid.schema(), 51, 40)) {
    const size_t count1 = first->probe->PopulationCount(c);
    const size_t count2 = second->probe->PopulationCount(c);
    if (count1 != count2) ++differing;
    // Rows sealed in the first epoch exist in both.
    for (uint32_t v : QueryRows(*first->probe, c)) {
      SCOPED_TRACE(::testing::Message() << c.ToBitString() << " v=" << v);
      if (!first->probe->ContextContainsRow(c, v)) continue;
      for (int pass = 0; pass < 2; ++pass) {
        EXPECT_EQ(second->engine->verifier().Evaluate(c, v).population,
                  count2);
        EXPECT_EQ(first->engine->verifier().Evaluate(c, v).population,
                  count1);
      }
    }
  }
  EXPECT_GT(differing, 0u) << "the fuzz never told the epochs apart";
}

}  // namespace
}  // namespace pcor
