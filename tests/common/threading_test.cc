#include "src/common/threading.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>

namespace pcor {
namespace {

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPoolTest, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 10);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  const size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  ParallelFor(n, 8, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, SequentialFallback) {
  std::vector<size_t> order;
  ParallelFor(5, 1, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, ZeroIterationsIsNoop) {
  bool called = false;
  ParallelFor(0, 4, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, ComputesCorrectSum) {
  const size_t n = 10000;
  std::vector<double> out(n, 0.0);
  ParallelFor(n, 6, [&](size_t i) { out[i] = static_cast<double>(i); });
  double total = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_DOUBLE_EQ(total, static_cast<double>(n) * (n - 1) / 2.0);
}

TEST(DefaultThreadCountTest, AtLeastOne) {
  EXPECT_GE(DefaultThreadCount(), 1u);
}

TEST(PoolParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelFor(n, 0, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(PoolParallelForTest, MaxParallelOneRunsSeriallyInOrder) {
  ThreadPool pool(4);
  std::vector<size_t> order;
  pool.ParallelFor(5, 1, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(PoolParallelForTest, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, 0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(PoolParallelForTest, PoolIsReusableAfterALoop) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  pool.ParallelFor(100, 0, [&](size_t) { counter.fetch_add(1); });
  pool.ParallelFor(100, 2, [&](size_t) { counter.fetch_add(1); });
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 201);
}

TEST(PoolParallelForTest, OrderedSlotsAreIdenticalForEveryThreadCount) {
  // The determinism contract: fn(i) writing slot i yields the same gathered
  // vector whatever the parallelism, including 1.
  const size_t n = 4096;
  std::vector<double> serial(n);
  for (size_t i = 0; i < n; ++i) serial[i] = static_cast<double>(i) * 1.5;
  for (size_t max_parallel : {size_t{1}, size_t{2}, size_t{0}}) {
    ThreadPool pool(4);
    std::vector<double> out(n, -1.0);
    pool.ParallelFor(n, max_parallel, [&](size_t i) {
      out[i] = static_cast<double>(i) * 1.5;
    });
    EXPECT_EQ(out, serial) << "max_parallel=" << max_parallel;
  }
}

TEST(PoolParallelForTest, NestedLoopOnSamePoolDoesNotDeadlock) {
  // Outer chunks run on pool workers; each opens an inner ParallelFor on
  // the SAME pool. The caller-participation design must drain everything
  // even though every worker is already busy in the outer loop.
  ThreadPool pool(2);
  const size_t outer = 8, inner = 64;
  std::vector<std::atomic<int>> hits(outer * inner);
  pool.ParallelFor(outer, 0, [&](size_t o) {
    pool.ParallelFor(inner, 0, [&](size_t i) {
      hits[o * inner + i].fetch_add(1);
    });
  });
  for (size_t k = 0; k < outer * inner; ++k) {
    ASSERT_EQ(hits[k].load(), 1) << k;
  }
}

TEST(PoolParallelForTest, WorkerInitiatedLoopCompletes) {
  // A ParallelFor started from inside Submit'ed work (not the owner
  // thread) must complete too — this is the serving pattern, where batch
  // workers run releases whose probes open shard-scatter loops.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::atomic<bool> done{false};
  pool.Submit([&] {
    pool.ParallelFor(500, 0, [&](size_t) { counter.fetch_add(1); });
    done.store(true);
  });
  pool.Wait();
  EXPECT_TRUE(done.load());
  EXPECT_EQ(counter.load(), 500);
}

TEST(RunOnWorkersTest, CallerExecutesNoIndex) {
  ThreadPool pool(3);
  const size_t n = 300;
  std::vector<std::atomic<int>> hits(n);
  std::mutex mu;
  std::set<std::thread::id> runners;
  pool.RunOnWorkers(n, 0, [&](size_t i) {
    hits[i].fetch_add(1);
    std::lock_guard<std::mutex> lock(mu);
    runners.insert(std::this_thread::get_id());
  });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  EXPECT_EQ(runners.count(std::this_thread::get_id()), 0u);
  EXPECT_LE(runners.size(), 3u);
}

TEST(RunOnWorkersTest, ReturnsWithoutWaitingForUnrelatedTasks) {
  // The latch is per call: a long-running unrelated task must not hold
  // the caller (Wait() would).
  ThreadPool pool(2);
  std::atomic<bool> release_blocker{false};
  pool.Submit([&] {
    while (!release_blocker.load()) std::this_thread::yield();
  });
  std::atomic<int> counter{0};
  pool.RunOnWorkers(50, 1, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 50);
  release_blocker.store(true);
  pool.Wait();
}

TEST(RunOnWorkersTest, IssuedFromItsOwnWorkerCompletes) {
  // With one worker, the only thread that could drain the range is the
  // caller itself: it must help rather than wait on itself.
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  std::atomic<bool> done{false};
  pool.Submit([&] {
    pool.RunOnWorkers(200, 4, [&](size_t) { counter.fetch_add(1); });
    done.store(true);
  });
  pool.Wait();
  EXPECT_TRUE(done.load());
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, ReserveGrowsAndNeverShrinks) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0u);
  std::vector<size_t> order;
  pool.RunOnWorkers(4, 0, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3}));  // no workers: inline
  pool.Reserve(3);
  EXPECT_EQ(pool.num_threads(), 3u);
  pool.Reserve(2);
  EXPECT_EQ(pool.num_threads(), 3u);
  std::atomic<int> counter{0};
  pool.RunOnWorkers(100, 3, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 100);
  EXPECT_FALSE(pool.IsWorkerThread());
  std::atomic<bool> on_worker{false};
  pool.Submit([&] { on_worker.store(pool.IsWorkerThread()); });
  pool.Wait();
  EXPECT_TRUE(on_worker.load());
}

// Restores the real host topology when a test that injected a fake one
// ends, whatever its outcome.
class TopologyGuard {
 public:
  ~TopologyGuard() { SetTopologyForTest(CpuTopology{0, {}}); }
};

CpuTopology TwoNodeTopology() {
  CpuTopology topology;
  topology.num_nodes = 2;
  topology.cpus_of_node = {{0, 1}, {2, 3}};
  return topology;
}

TEST(CpuTopologyTest, SystemTopologyIsSane) {
  const CpuTopology& topology = SystemTopology();
  EXPECT_GE(topology.num_nodes, 1u);
  EXPECT_EQ(topology.cpus_of_node.size(), topology.num_nodes);
  for (const auto& cpus : topology.cpus_of_node) {
    EXPECT_FALSE(cpus.empty());
    EXPECT_TRUE(std::is_sorted(cpus.begin(), cpus.end()));
  }
  EXPECT_LT(CurrentNumaNode(), topology.num_nodes);
}

TEST(CpuTopologyTest, TestTopologyInjectsAndRestores) {
  {
    TopologyGuard guard;
    SetTopologyForTest(TwoNodeTopology());
    EXPECT_EQ(SystemTopology().num_nodes, 2u);
  }
  // Guard restored the probe: back to the real host.
  EXPECT_GE(SystemTopology().num_nodes, 1u);
}

TEST(CpuTopologyTest, ThreadNodeOverrideWinsAndClears) {
  TopologyGuard guard;
  SetTopologyForTest(TwoNodeTopology());
  SetCurrentThreadNumaNode(1);
  EXPECT_EQ(CurrentNumaNode(), 1u);
  SetCurrentThreadNumaNode(-1);  // back to CPU-derived (node < num_nodes)
  EXPECT_LT(CurrentNumaNode(), 2u);
}

TEST(ThreadPoolTest, PinnedWorkersRoundRobinAcrossNodes) {
  TopologyGuard guard;
  SetTopologyForTest(TwoNodeTopology());
  ThreadPoolOptions options;
  options.pin_to_numa_nodes = true;
  ThreadPool pool(4, options);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(pool.worker_node(i), i % 2) << "worker " << i;
  }
  // Each worker observes the node it was placed on, which is what routes
  // it to the node-local cache shard group. Every task waits at a 4-way
  // rendezvous before recording, so each of the 4 workers runs exactly
  // one of them and both nodes must be observed.
  std::mutex mu;
  std::condition_variable all_arrived;
  size_t arrived = 0;
  std::set<size_t> seen_nodes;
  for (int task = 0; task < 4; ++task) {
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      if (++arrived == 4) all_arrived.notify_all();
      all_arrived.wait(lock, [&] { return arrived == 4; });
      seen_nodes.insert(CurrentNumaNode());
    });
  }
  pool.Wait();
  EXPECT_EQ(seen_nodes, (std::set<size_t>{0, 1}));
}

TEST(ThreadPoolTest, UnpinnedPoolKeepsEveryWorkerOnNodeZero) {
  TopologyGuard guard;
  SetTopologyForTest(TwoNodeTopology());
  ThreadPoolOptions options;
  options.pin_to_numa_nodes = false;
  ThreadPool pool(4, options);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(pool.worker_node(i), 0u);
}

TEST(ThreadPoolTest, PinnedPoolStillRunsAllTasks) {
  // On the real host topology (possibly one node, possibly restricted
  // affinity masks) pinning must never lose work — placement is
  // best-effort, completion is not.
  ThreadPoolOptions options;
  options.pin_to_numa_nodes = true;
  ThreadPool pool(4, options);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 200);
}

}  // namespace
}  // namespace pcor
