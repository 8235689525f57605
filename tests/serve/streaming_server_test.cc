// Streaming-mode serving: SubmitAppend/SealEpoch grow the stream while
// continual-release requests ride the classic admission pipeline. The
// contracts under test: every streaming release charges its full
// effective epsilon, so a streaming and a classic server given the same
// submissions hold identical ledgers, seeds and released contexts;
// SubmitAppends is all-or-nothing; the determinism guarantee survives
// streaming (identical append/seal/submit interleavings at epoch
// granularity are bit-identical at any thread count); and no micro-batch
// straddles epochs.
#include "src/serve/server.h"

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/string_util.h"
#include "src/search/streaming.h"
#include "tests/testing_util.h"

namespace pcor {
namespace {

std::vector<Row> GridRows(const Dataset& dataset) {
  std::vector<Row> rows;
  for (size_t r = 0; r < dataset.num_rows(); ++r) {
    Row row;
    for (size_t a = 0; a < dataset.num_attributes(); ++a) {
      row.codes.push_back(dataset.code(r, a));
    }
    row.metric = dataset.metric(r);
    rows.push_back(std::move(row));
  }
  return rows;
}

class StreamingServerTest : public ::testing::Test {
 protected:
  StreamingServerTest()
      : grid_(testing_util::MakeSpreadGridDataset()),
        detector_(testing_util::MakeTestDetector()) {}

  ServeOptions Options() const {
    ServeOptions options;
    options.release.sampler = SamplerKind::kBfs;
    options.release.num_samples = 8;
    options.release.total_epsilon = 0.4;
    options.max_delay_us = 50;
    options.seed = 424242;
    return options;
  }

  // A stream sealed at exactly the classic fixture.
  void SeedStream(StreamingPcorEngine* stream) {
    ASSERT_TRUE(stream->AppendRows(GridRows(grid_.dataset)).ok());
    ASSERT_EQ(stream->SealEpoch(), grid_.dataset.num_rows());
  }

  testing_util::GridData grid_;
  ZscoreDetector detector_;
};

TEST_F(StreamingServerTest, ClassicServerRejectsStreamingCalls) {
  PcorEngine engine(grid_.dataset, detector_);
  PcorServer server(engine, Options());
  EXPECT_FALSE(server.streaming());
  EXPECT_TRUE(
      server.SubmitAppend(Row{{0, 0}, 1.0}).IsFailedPrecondition());
  EXPECT_TRUE(server.SealEpoch().status().IsFailedPrecondition());
}

TEST_F(StreamingServerTest, AppendsSealAndServeWithEpochAnnotations) {
  StreamingPcorEngine stream(testing_util::GridSchema(), detector_);
  const ServeOptions options = Options();
  PcorServer server(stream, options);
  EXPECT_TRUE(server.streaming());

  ASSERT_TRUE(server.SubmitAppends(GridRows(grid_.dataset)).ok());
  auto sealed = server.SealEpoch();
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(*sealed, grid_.dataset.num_rows());

  BatchRequest request;
  request.v_row = grid_.v_row;
  std::vector<Future<BatchEntry>> futures;
  for (size_t k = 0; k < 9; ++k) {
    auto submitted = server.SubmitAsync(request, "tenant");
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(submitted).value());
  }
  for (size_t k = 0; k < futures.size(); ++k) {
    SCOPED_TRACE(k);
    const BatchEntry entry = futures[k].Get();
    ASSERT_TRUE(entry.status.ok()) << entry.status.ToString();
    EXPECT_EQ(entry.release.epoch, grid_.dataset.num_rows());
    EXPECT_EQ(entry.rng_seed,
              PcorServer::RequestSeed(options.seed, "tenant", k));
  }
  // Every release paid its full epsilon: sequential composition.
  EXPECT_DOUBLE_EQ(server.accountant().SpentBy("tenant"), 9 * 0.4);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.appends, grid_.dataset.num_rows());
  EXPECT_EQ(stats.epochs_sealed, 1u);
  EXPECT_EQ(stats.epoch, grid_.dataset.num_rows());
  EXPECT_EQ(stats.released, 9u);
  EXPECT_DOUBLE_EQ(stats.epsilon_spent, 9 * 0.4);
}

TEST_F(StreamingServerTest, SubmitAppendsIsAllOrNothing) {
  // A span with a bad row at index 2 must buffer nothing and count
  // nothing — not the valid prefix before the bad row.
  StreamingPcorEngine stream(testing_util::GridSchema(), detector_);
  PcorServer server(stream, Options());
  ASSERT_TRUE(server.SubmitAppend(Row{{0, 0}, 100.0}).ok());

  std::vector<Row> span = {Row{{0, 1}, 101.0}, Row{{1, 0}, 102.0},
                           Row{{0, 9}, 103.0},  // out of domain
                           Row{{1, 1}, 104.0}};
  EXPECT_TRUE(server.SubmitAppends(span).IsOutOfRange());
  EXPECT_EQ(stream.buffered_rows(), 1u) << "span prefix leaked into tail";
  EXPECT_EQ(server.stats().appends, 1u);

  span[2] = Row{{0, 2}, 103.0};
  ASSERT_TRUE(server.SubmitAppends(span).ok());
  EXPECT_EQ(stream.buffered_rows(), 5u);
  EXPECT_EQ(server.stats().appends, 5u);
}

TEST_F(StreamingServerTest, DefaultPolicyChargesFullEpsilonPerRelease) {
  // Streaming admission charges each request its own effective epsilon,
  // per-request overrides included, and the cap bounds the sum.
  StreamingPcorEngine stream(testing_util::GridSchema(), detector_);
  ServeOptions options = Options();
  options.per_client_epsilon_cap = 2.0;
  PcorServer server(stream, options);
  SeedStream(&stream);

  BatchRequest request;
  request.v_row = grid_.v_row;
  BatchRequest expensive = request;
  expensive.options = options.release;
  expensive.options->total_epsilon = 1.0;

  auto first = server.SubmitAsync(expensive, "tenant");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->Get().status.ok());
  EXPECT_DOUBLE_EQ(server.accountant().SpentBy("tenant"), 1.0);

  // 1.0 + 0.4 + 0.4 fits the 2.0 cap; a third 0.4 does not.
  size_t admitted = 0;
  Status rejection = Status::OK();
  for (size_t k = 0; k < 8; ++k) {
    auto submitted = server.SubmitAsync(request, "tenant");
    if (!submitted.ok()) {
      rejection = submitted.status();
      break;
    }
    ++admitted;
    ASSERT_TRUE(submitted->Get().status.ok());
  }
  EXPECT_EQ(admitted, 2u);
  EXPECT_TRUE(rejection.IsPrivacyBudgetExceeded()) << rejection.ToString();
  EXPECT_DOUBLE_EQ(server.accountant().SpentBy("tenant"), 1.8);
  EXPECT_EQ(server.stats().rejected_budget, 1u);
}

TEST_F(StreamingServerTest, RequestsBeforeFirstSealFailTypedAndCharged) {
  StreamingPcorEngine stream(testing_util::GridSchema(), detector_);
  PcorServer server(stream, Options());
  BatchRequest request;
  request.v_row = 0;
  auto submitted = server.SubmitAsync(request, "early");
  ASSERT_TRUE(submitted.ok());
  const BatchEntry entry = submitted->Get();
  EXPECT_TRUE(entry.status.IsFailedPrecondition())
      << entry.status.ToString();
  // Dispatched work keeps its admission charge (over-charging is the safe
  // direction).
  EXPECT_DOUBLE_EQ(server.accountant().SpentBy("early"), 0.4);
}

TEST_F(StreamingServerTest, BudgetRejectionReturnsTheStreamSlot) {
  // A rejected charge claims no Rng stream index: the next admitted
  // request takes index 1 (and its seed), so seeds stay dense.
  StreamingPcorEngine stream(testing_util::GridSchema(), detector_);
  ServeOptions options = Options();
  options.per_client_epsilon_cap = 0.4;  // one release only
  PcorServer server(stream, options);
  SeedStream(&stream);

  BatchRequest request;
  request.v_row = grid_.v_row;
  auto first = server.SubmitAsync(request, "t");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->Get().rng_seed,
            PcorServer::RequestSeed(options.seed, "t", 0));

  auto rejected = server.SubmitAsync(request, "t");
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsPrivacyBudgetExceeded());
  EXPECT_EQ(server.stats().rejected_budget, 1u);
  EXPECT_DOUBLE_EQ(server.accountant().SpentBy("t"), 0.4);

  // Raising the tenant cap admits the retry at index 1 — the index the
  // rejection never took.
  TenantConfig config;
  config.epsilon_cap = 10.0;
  ASSERT_TRUE(server.RegisterTenant("t", config).ok());
  auto retried = server.SubmitAsync(request, "t");
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  const BatchEntry entry = retried->Get();
  ASSERT_TRUE(entry.status.ok());
  EXPECT_EQ(entry.rng_seed, PcorServer::RequestSeed(options.seed, "t", 1));
  EXPECT_DOUBLE_EQ(server.accountant().SpentBy("t"), 0.8);
}

// What one server made of the parity plan below.
struct ParityRun {
  std::string admissions;           // status names, in submission order
  std::vector<BatchEntry> entries;  // the admitted ones, in order
  double spent_a = 0.0;
  double spent_b = 0.0;
  ServerStats stats;
};

TEST_F(StreamingServerTest, SingleAdmissionPathMatchesClassicServer) {
  // A classic server and a streaming server over the same (fully sealed)
  // rows take one per-tenant submission sequence, including a queue-full
  // door rejection under kReject and budget-cap rejections. Both servers
  // admit through the same path, so seeds, ledgers, refunds and released
  // contexts must agree bit for bit.
  auto drive = [&](auto make_server) {
    std::atomic<bool> gate{false};
    std::atomic<size_t> started{0};
    ServeOptions options = Options();
    options.per_client_epsilon_cap = 1.0;  // two 0.4 releases, not three
    options.queue_capacity = 1;
    options.max_batch = 1;
    options.max_delay_us = 0;
    options.backpressure = BackpressurePolicy::kReject;
    options.pre_batch_hook = [&](std::span<const BatchRequest>) {
      started.fetch_add(1);
      while (!gate.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    };
    std::unique_ptr<PcorServer> server = make_server(options);

    ParityRun run;
    BatchRequest request;
    request.v_row = grid_.v_row;
    BatchRequest cheaper = request;
    cheaper.options = options.release;
    cheaper.options->total_epsilon = 0.3;
    std::vector<Future<BatchEntry>> futures;
    auto submit = [&](const BatchRequest& r, const char* tenant) {
      auto submitted = server->SubmitAsync(r, tenant);
      if (!run.admissions.empty()) run.admissions += ' ';
      run.admissions += StatusCodeToString(submitted.status().code());
      if (submitted.ok()) futures.push_back(std::move(submitted).value());
    };
    auto collect = [&] {
      for (auto& future : futures) run.entries.push_back(future.Get());
      futures.clear();
    };

    submit(request, "a");  // dispatched, then held at the gate
    while (started.load() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    submit(request, "a");  // fills the one-slot queue
    submit(request, "b");  // queue full: refunded, index handed back
    submit(request, "a");  // 0.8 + 0.4 > 1.0
    gate.store(true);
    collect();
    submit(request, "b");  // takes b's returned index 0
    collect();
    submit(cheaper, "b");  // pays its own 0.3
    collect();
    submit(request, "b");  // 0.7 + 0.4 > 1.0
    server->Shutdown();
    run.spent_a = server->accountant().SpentBy("a");
    run.spent_b = server->accountant().SpentBy("b");
    run.stats = server->stats();
    return run;
  };

  PcorEngine engine(grid_.dataset, detector_);
  const ParityRun classic = drive([&](const ServeOptions& options) {
    return std::make_unique<PcorServer>(engine, options);
  });
  StreamingPcorEngine stream(testing_util::GridSchema(), detector_);
  SeedStream(&stream);
  const ParityRun streamed = drive([&](const ServeOptions& options) {
    return std::make_unique<PcorServer>(stream, options);
  });

  const std::string want =
      "OK OK ResourceExhausted PrivacyBudgetExceeded OK OK "
      "PrivacyBudgetExceeded";
  EXPECT_EQ(classic.admissions, want);
  EXPECT_EQ(streamed.admissions, want);
  ASSERT_EQ(classic.entries.size(), 4u);
  ASSERT_EQ(streamed.entries.size(), classic.entries.size());
  EXPECT_EQ(classic.entries[2].rng_seed,
            PcorServer::RequestSeed(Options().seed, "b", 0));
  for (size_t i = 0; i < classic.entries.size(); ++i) {
    SCOPED_TRACE(i);
    const BatchEntry& a = classic.entries[i];
    const BatchEntry& b = streamed.entries[i];
    ASSERT_TRUE(a.status.ok()) << a.status.ToString();
    ASSERT_TRUE(b.status.ok()) << b.status.ToString();
    EXPECT_EQ(a.rng_seed, b.rng_seed);
    EXPECT_EQ(a.release.context, b.release.context);
    EXPECT_EQ(a.release.description, b.release.description);
    EXPECT_EQ(a.release.utility_score, b.release.utility_score);
    EXPECT_EQ(a.release.epsilon_spent, b.release.epsilon_spent);
    EXPECT_EQ(a.release.probes, b.release.probes);
    EXPECT_EQ(a.release.epoch, b.release.epoch);
  }
  // Identical ledgers, refunds included: b's door-rejected charge came
  // back in both, and neither kept a budget-rejected charge.
  EXPECT_EQ(classic.spent_a, streamed.spent_a);
  EXPECT_EQ(classic.spent_b, streamed.spent_b);
  EXPECT_DOUBLE_EQ(classic.spent_a, 0.8);
  EXPECT_DOUBLE_EQ(classic.spent_b, 0.7);
  for (const ServerStats* stats : {&classic.stats, &streamed.stats}) {
    EXPECT_EQ(stats->submitted, 4u);
    EXPECT_EQ(stats->released, 4u);
    EXPECT_EQ(stats->rejected_queue, 1u);
    EXPECT_EQ(stats->rejected_budget, 2u);
  }
  EXPECT_EQ(classic.stats.epsilon_spent, streamed.stats.epsilon_spent);
}

TEST_F(StreamingServerTest, InterleavingsAreBitIdenticalAcrossThreadCounts) {
  // One reference run: serial submissions against a sealed epoch, then the
  // same per-tenant plan raced from many client threads against a server
  // with 16 release threads. Epoch-granular interleaving is identical
  // (all appends sealed before any submission), so every (tenant, k)
  // release must be bit-identical, and every tenant ledger holds exactly
  // its releases' epsilons.
  constexpr size_t kTenants = 6;
  constexpr size_t kPerTenant = 5;
  using Key = std::pair<std::string, size_t>;
  auto run = [&](size_t release_threads,
                 bool raced) -> std::map<Key, BatchEntry> {
    StreamingPcorEngine stream(testing_util::GridSchema(), detector_);
    ServeOptions options = Options();
    options.release_threads = release_threads;
    PcorServer server(stream, options);
    SeedStream(&stream);
    BatchRequest request;
    request.v_row = grid_.v_row;

    std::map<Key, BatchEntry> results;
    std::mutex results_mu;
    auto submit_plan = [&](size_t tenant) {
      const std::string id = strings::Format("tenant%zu", tenant);
      std::vector<Future<BatchEntry>> futures;
      for (size_t k = 0; k < kPerTenant; ++k) {
        auto submitted = server.SubmitAsync(request, id);
        ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
        futures.push_back(std::move(submitted).value());
      }
      for (size_t k = 0; k < futures.size(); ++k) {
        BatchEntry entry = futures[k].Get();
        std::lock_guard<std::mutex> lock(results_mu);
        results.emplace(Key{id, k}, std::move(entry));
      }
    };
    if (raced) {
      std::vector<std::thread> threads;
      for (size_t t = 0; t < kTenants; ++t) {
        threads.emplace_back([&, t] { submit_plan(t); });
      }
      for (auto& t : threads) t.join();
    } else {
      for (size_t t = 0; t < kTenants; ++t) submit_plan(t);
    }
    server.Shutdown(/*drain=*/true);
    for (size_t t = 0; t < kTenants; ++t) {
      const std::string id = strings::Format("tenant%zu", t);
      EXPECT_DOUBLE_EQ(server.accountant().SpentBy(id), kPerTenant * 0.4);
    }
    return results;
  };

  const std::map<Key, BatchEntry> want = run(/*release_threads=*/1,
                                             /*raced=*/false);
  const std::map<Key, BatchEntry> got = run(/*release_threads=*/16,
                                            /*raced=*/true);
  ASSERT_EQ(want.size(), kTenants * kPerTenant);
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [key, a] : want) {
    SCOPED_TRACE(key.first + "/" + std::to_string(key.second));
    const auto it = got.find(key);
    ASSERT_NE(it, got.end());
    const BatchEntry& b = it->second;
    ASSERT_TRUE(a.status.ok());
    ASSERT_TRUE(b.status.ok());
    EXPECT_EQ(a.rng_seed, b.rng_seed);
    EXPECT_EQ(a.release.context, b.release.context);
    EXPECT_EQ(a.release.description, b.release.description);
    EXPECT_DOUBLE_EQ(a.release.utility_score, b.release.utility_score);
    EXPECT_EQ(a.release.probes, b.release.probes);
    EXPECT_EQ(a.release.epoch, b.release.epoch);
    EXPECT_DOUBLE_EQ(a.release.epsilon_spent, b.release.epsilon_spent);
  }
}

TEST_F(StreamingServerTest, BatchesNeverStraddleEpochsUnderChurn) {
  // Appends and seals race a stream of submissions; whatever epoch each
  // micro-batch pins, every released entry must replay exactly through a
  // fresh engine over that epoch's prefix — which also proves the batch
  // executed against a single consistent snapshot.
  StreamingPcorEngine stream(testing_util::GridSchema(), detector_);
  ServeOptions options = Options();
  options.max_batch = 4;
  PcorServer server(stream, options);
  SeedStream(&stream);

  std::atomic<bool> stop{false};
  std::thread churner([&] {
    uint32_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      server.SubmitAppend(Row{{i % 3, (i / 3) % 3}, 99.0 + double(i % 5)})
          .CheckOK();
      if (++i % 8 == 0) {
        auto sealed = server.SealEpoch();
        ASSERT_TRUE(sealed.ok()) << sealed.status().ToString();
      }
    }
  });

  BatchRequest request;
  request.v_row = grid_.v_row;
  std::vector<Future<BatchEntry>> futures;
  for (size_t k = 0; k < 48; ++k) {
    auto submitted = server.SubmitAsync(request, "churn");
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted).value());
  }
  std::vector<BatchEntry> entries;
  for (auto& future : futures) entries.push_back(future.Get());
  stop.store(true, std::memory_order_relaxed);
  churner.join();

  // Rebuild each observed epoch's prefix dataset once and replay.
  std::map<uint64_t, std::unique_ptr<PcorEngine>> oracles;
  std::map<uint64_t, std::unique_ptr<Dataset>> prefixes;
  const std::shared_ptr<const EpochSnapshot> tip = stream.Pin();
  for (size_t k = 0; k < entries.size(); ++k) {
    SCOPED_TRACE(k);
    const BatchEntry& entry = entries[k];
    ASSERT_TRUE(entry.status.ok()) << entry.status.ToString();
    const uint64_t epoch = entry.release.epoch;
    ASSERT_GE(epoch, grid_.dataset.num_rows());
    ASSERT_LE(epoch, tip->epoch);
    if (oracles.find(epoch) == oracles.end()) {
      auto prefix = std::make_unique<Dataset>(testing_util::GridSchema());
      for (size_t r = 0; r < epoch; ++r) {
        prefix->AppendRow(tip->RowAt(static_cast<uint32_t>(r))).CheckOK();
      }
      oracles[epoch] =
          std::make_unique<PcorEngine>(*prefix, detector_);
      prefixes[epoch] = std::move(prefix);
    }
    Rng rng(entry.rng_seed);
    auto replay =
        oracles[epoch]->Release(grid_.v_row, options.release, &rng);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_EQ(replay->context, entry.release.context);
    EXPECT_DOUBLE_EQ(replay->utility_score, entry.release.utility_score);
    EXPECT_EQ(replay->probes, entry.release.probes);
  }
}

}  // namespace
}  // namespace pcor
