// Failure-path hardening for the serving front-end: shutdown with pending
// work (drain and abort), queue-full backpressure under both policies,
// exception propagation through futures, and admission after shutdown.
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/serve/server.h"
#include "tests/testing_util.h"

namespace pcor {
namespace {

using std::chrono::milliseconds;

class ServerStressTest : public ::testing::Test {
 protected:
  ServerStressTest()
      : grid_(testing_util::MakeSpreadGridDataset()),
        detector_(testing_util::MakeTestDetector()),
        engine_(grid_.dataset, detector_) {}

  ServeOptions BaseOptions() const {
    ServeOptions options;
    options.release.sampler = SamplerKind::kBfs;
    options.release.num_samples = 6;
    options.release.total_epsilon = 0.2;
    options.seed = 7;
    return options;
  }

  BatchRequest OutlierRequest() const {
    BatchRequest request;
    request.v_row = grid_.v_row;
    return request;
  }

  testing_util::GridData grid_;
  ZscoreDetector detector_;
  PcorEngine engine_;
};

TEST_F(ServerStressTest, ShutdownDrainCompletesPendingWork) {
  ServeOptions options = BaseOptions();
  // A huge coalescing window: everything submitted below is still pending
  // (queued or held open for stragglers) when Shutdown lands.
  options.max_batch = 64;
  options.max_delay_us = 30'000'000;
  PcorServer server(engine_, options);

  std::vector<Future<BatchEntry>> futures;
  for (size_t i = 0; i < 12; ++i) {
    auto future = server.SubmitAsync(OutlierRequest(), "drainer");
    ASSERT_TRUE(future.ok());
    futures.push_back(std::move(*future));
  }
  server.Shutdown(/*drain=*/true);

  for (auto& future : futures) {
    BatchEntry entry = future.Get();
    EXPECT_TRUE(entry.status.ok()) << entry.status.ToString();
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.released, 12u);
  EXPECT_EQ(stats.failed, 0u);
  // Drained work keeps its budget charge.
  EXPECT_DOUBLE_EQ(server.accountant().SpentBy("drainer"), 12 * 0.2);
}

TEST_F(ServerStressTest, ShutdownAbortFailsPendingWithTypedStatusAndRefunds) {
  ServeOptions options = BaseOptions();
  options.max_batch = 64;
  options.max_delay_us = 30'000'000;
  PcorServer server(engine_, options);

  std::vector<Future<BatchEntry>> futures;
  for (size_t i = 0; i < 10; ++i) {
    auto future = server.SubmitAsync(OutlierRequest(), "aborted");
    ASSERT_TRUE(future.ok());
    futures.push_back(std::move(*future));
  }
  EXPECT_DOUBLE_EQ(server.accountant().SpentBy("aborted"), 10 * 0.2);
  server.Shutdown(/*drain=*/false);

  for (auto& future : futures) {
    BatchEntry entry = future.Get();
    EXPECT_TRUE(entry.status.IsUnavailable()) << entry.status.ToString();
  }
  // Aborted work never touched the data: every charge is returned (up to
  // the accumulation residue of ten 0.2 add/subtract round trips).
  EXPECT_NEAR(server.accountant().SpentBy("aborted"), 0.0, 1e-12);
  EXPECT_EQ(server.stats().released, 0u);
}

TEST_F(ServerStressTest, SubmitAfterShutdownIsUnavailable) {
  PcorServer server(engine_, BaseOptions());
  server.Shutdown();
  auto future = server.SubmitAsync(OutlierRequest(), "latecomer");
  ASSERT_FALSE(future.ok());
  EXPECT_TRUE(future.status().IsUnavailable());
  EXPECT_DOUBLE_EQ(server.accountant().SpentBy("latecomer"), 0.0);
}

TEST_F(ServerStressTest, RejectPolicyReturnsResourceExhaustedWhenFull) {
  std::atomic<bool> gate_open{false};
  std::atomic<size_t> batches_started{0};
  ServeOptions options = BaseOptions();
  options.queue_capacity = 2;
  options.backpressure = BackpressurePolicy::kReject;
  options.max_batch = 1;  // the dispatcher holds exactly one in flight
  options.max_delay_us = 0;
  options.pre_batch_hook = [&](std::span<const BatchRequest>) {
    batches_started.fetch_add(1);
    while (!gate_open.load()) std::this_thread::sleep_for(milliseconds(1));
  };
  PcorServer server(engine_, options);

  std::vector<Future<BatchEntry>> futures;
  // First submission is popped by the dispatcher, which then blocks on the
  // gate inside the hook — the queue itself is empty again.
  auto first = server.SubmitAsync(OutlierRequest(), "pusher");
  ASSERT_TRUE(first.ok());
  futures.push_back(std::move(*first));
  while (batches_started.load() == 0) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  // Two more fill the queue to capacity; they are never rejected.
  for (size_t i = 0; i < 2; ++i) {
    auto future = server.SubmitAsync(OutlierRequest(), "pusher");
    ASSERT_TRUE(future.ok());
    futures.push_back(std::move(*future));
  }
  const double spent_before = server.accountant().SpentBy("pusher");
  // The queue is full and the dispatcher is gated: reject, typed.
  auto rejected = server.SubmitAsync(OutlierRequest(), "pusher");
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsResourceExhausted())
      << rejected.status().ToString();
  // The rejected admission's charge was rolled back.
  EXPECT_DOUBLE_EQ(server.accountant().SpentBy("pusher"), spent_before);
  EXPECT_EQ(server.stats().rejected_queue, 1u);

  gate_open.store(true);
  for (auto& future : futures) {
    EXPECT_TRUE(future.Get().status.ok());
  }
  server.Shutdown();
}

TEST_F(ServerStressTest, TenantDepthRejectionRefundsLikeOtherDoorRejections) {
  // A tenant at its max_queue_depth is a *door* rejection: the request
  // never touched the data, so its admission charge must be rolled back —
  // exactly like queue-full and shutdown rejections, and unlike
  // data-touching failures which keep their charge.
  std::atomic<bool> gate_open{false};
  std::atomic<size_t> batches_started{0};
  ServeOptions options = BaseOptions();
  options.queue_capacity = 64;  // global capacity is NOT the constraint
  options.max_batch = 1;
  options.max_delay_us = 0;
  options.pre_batch_hook = [&](std::span<const BatchRequest>) {
    batches_started.fetch_add(1);
    while (!gate_open.load()) std::this_thread::sleep_for(milliseconds(1));
  };
  PcorServer server(engine_, options);
  TenantConfig bounded;
  bounded.max_queue_depth = 1;
  ASSERT_TRUE(server.RegisterTenant("bounded", bounded).ok());

  std::vector<Future<BatchEntry>> futures;
  // First submission is popped by the dispatcher, which blocks on the gate
  // — the tenant's queue is empty again.
  auto first = server.SubmitAsync(OutlierRequest(), "bounded");
  ASSERT_TRUE(first.ok());
  futures.push_back(std::move(*first));
  while (batches_started.load() == 0) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  // The second fills the tenant's depth bound of 1.
  auto second = server.SubmitAsync(OutlierRequest(), "bounded");
  ASSERT_TRUE(second.ok());
  futures.push_back(std::move(*second));
  const double spent_before = server.accountant().SpentBy("bounded");

  // The third overflows the tenant bound: typed, counted, and refunded.
  auto rejected = server.SubmitAsync(OutlierRequest(), "bounded");
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsResourceExhausted())
      << rejected.status().ToString();
  EXPECT_DOUBLE_EQ(server.accountant().SpentBy("bounded"), spent_before);
  EXPECT_EQ(server.stats().rejected_depth, 1u);
  EXPECT_EQ(server.stats().rejected_queue, 0u);

  // Other tenants are untouched by the bounded tenant's backlog.
  auto other = server.SubmitAsync(OutlierRequest(), "unbounded");
  ASSERT_TRUE(other.ok());
  futures.push_back(std::move(*other));

  gate_open.store(true);
  for (auto& future : futures) {
    EXPECT_TRUE(future.Get().status.ok());
  }
  server.Shutdown();
  // Final ledger (up to the charge/refund round-trip residue): only the
  // two admitted requests kept their charge.
  EXPECT_NEAR(server.accountant().SpentBy("bounded"), 2 * 0.2, 1e-12);
}

TEST_F(ServerStressTest, RacingDoorRejectionsRefundEveryCharge) {
  // Hammer admissions for ONE tenant from several threads against a tiny
  // rejecting queue: door rejections race later index claims, so some
  // returned indices cannot be handed back and are skipped. Whatever the
  // interleaving, every rejected charge is refunded (the ledger holds
  // exactly the admitted releases) and no two admitted requests share an
  // Rng stream.
  ServeOptions options = BaseOptions();
  options.queue_capacity = 2;
  options.max_batch = 2;
  options.backpressure = BackpressurePolicy::kReject;
  options.pre_batch_hook = [](std::span<const BatchRequest>) {
    std::this_thread::sleep_for(milliseconds(1));
  };
  PcorServer server(engine_, options);

  std::mutex futures_mu;
  std::vector<Future<BatchEntry>> futures;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int k = 0; k < 40; ++k) {
        auto submitted = server.SubmitAsync(OutlierRequest(), "hammer");
        if (!submitted.ok()) {
          EXPECT_TRUE(submitted.status().IsResourceExhausted())
              << submitted.status().ToString();
          continue;
        }
        std::lock_guard<std::mutex> lock(futures_mu);
        futures.push_back(std::move(submitted).value());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_GT(futures.size(), 0u);
  std::set<uint64_t> seeds;
  for (auto& future : futures) {
    const BatchEntry entry = future.Get();
    EXPECT_TRUE(entry.status.ok()) << entry.status.ToString();
    EXPECT_TRUE(seeds.insert(entry.rng_seed).second)
        << "two admitted requests share an Rng stream";
  }
  server.Shutdown(/*drain=*/true);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, futures.size());
  EXPECT_EQ(stats.submitted + stats.rejected_queue, 4u * 40u);
  EXPECT_NEAR(server.accountant().SpentBy("hammer"),
              static_cast<double>(futures.size()) * 0.2, 1e-9);
}

TEST_F(ServerStressTest, BlockPolicyNeverRejectsUnderPressure) {
  ServeOptions options = BaseOptions();
  options.queue_capacity = 2;  // tiny buffer, heavy concurrent pressure
  options.backpressure = BackpressurePolicy::kBlock;
  options.max_batch = 4;
  options.max_delay_us = 100;
  PcorServer server(engine_, options);

  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 16;
  std::atomic<size_t> completed{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      const std::string client = "blocker-" + std::to_string(t);
      for (size_t i = 0; i < kPerThread; ++i) {
        auto future = server.SubmitAsync(OutlierRequest(), client);
        ASSERT_TRUE(future.ok()) << future.status().ToString();
        EXPECT_TRUE(future->Get().status.ok());
        completed.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(completed.load(), kThreads * kPerThread);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.released, kThreads * kPerThread);
  EXPECT_EQ(stats.rejected_queue, 0u);
}

TEST_F(ServerStressTest, HookExceptionPropagatesToEveryFutureInTheBatch) {
  std::atomic<bool> armed{true};
  ServeOptions options = BaseOptions();
  // max_batch == submissions per wave and an effectively infinite delay:
  // the dispatcher provably coalesces each wave into exactly one batch
  // (it blocks until the 4th arrives, then dispatches without waiting).
  options.max_batch = 4;
  options.max_delay_us = 30'000'000;
  options.pre_batch_hook = [&](std::span<const BatchRequest> batch) {
    if (armed.exchange(false)) {
      throw std::runtime_error("verifier backend disappeared mid-batch");
    }
    (void)batch;
  };
  PcorServer server(engine_, options);

  std::vector<Future<BatchEntry>> futures;
  for (size_t i = 0; i < 4; ++i) {
    auto future = server.SubmitAsync(OutlierRequest(), "doomed");
    ASSERT_TRUE(future.ok());
    futures.push_back(std::move(*future));
  }
  size_t threw = 0;
  for (auto& future : futures) {
    try {
      (void)future.Get();
    } catch (const ServeError& e) {
      // Rewrapped per future (see ServeError): type changes, message
      // survives verbatim.
      EXPECT_STREQ(e.what(), "verifier backend disappeared mid-batch");
      ++threw;
    }
  }
  EXPECT_EQ(threw, futures.size())
      << "every future of the poisoned batch must observe the exception";

  // The dispatcher survived: a second full wave completes normally.
  std::vector<Future<BatchEntry>> wave2;
  for (size_t i = 0; i < 4; ++i) {
    auto future = server.SubmitAsync(OutlierRequest(), "survivor");
    ASSERT_TRUE(future.ok());
    wave2.push_back(std::move(*future));
  }
  for (auto& future : wave2) {
    EXPECT_TRUE(future.Get().status.ok());
  }
  EXPECT_GE(server.stats().failed, 4u);
}

TEST_F(ServerStressTest, DestructorDrainsOutstandingWork) {
  std::vector<Future<BatchEntry>> futures;
  {
    ServeOptions options = BaseOptions();
    options.max_batch = 64;
    options.max_delay_us = 30'000'000;
    PcorServer server(engine_, options);
    for (size_t i = 0; i < 6; ++i) {
      auto future = server.SubmitAsync(OutlierRequest(), "scoped");
      ASSERT_TRUE(future.ok());
      futures.push_back(std::move(*future));
    }
  }  // ~PcorServer == Shutdown(drain)
  for (auto& future : futures) {
    EXPECT_TRUE(future.Get().status.ok());
  }
}

TEST_F(ServerStressTest, ConcurrentShutdownCallsAreSafe) {
  ServeOptions options = BaseOptions();
  PcorServer server(engine_, options);
  auto future = server.SubmitAsync(OutlierRequest(), "c");
  ASSERT_TRUE(future.ok());
  std::vector<std::thread> stoppers;
  for (size_t i = 0; i < 4; ++i) {
    stoppers.emplace_back([&server] { server.Shutdown(/*drain=*/true); });
  }
  for (auto& t : stoppers) t.join();
  EXPECT_TRUE(future->Get().status.ok());
}

}  // namespace
}  // namespace pcor
