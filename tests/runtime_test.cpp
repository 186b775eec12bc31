// Tests for src/runtime: queues under concurrency, worker pools, and the
// real-thread engine's Locking / IPS / Dispatch configurations processing
// real frames end to end.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>

#include "proto/stack.hpp"
#include "runtime/dispatch_engine.hpp"
#include "runtime/engine.hpp"
#include "runtime/queues.hpp"
#include "runtime/worker_pool.hpp"

namespace affinity {
namespace {

std::vector<std::uint8_t> frameFor(std::uint32_t stream, std::uint16_t port = 7000) {
  FrameSpec spec;
  spec.dst_port = port;
  spec.src_port = static_cast<std::uint16_t>(1000 + stream);
  const std::vector<std::uint8_t> payload{1, 2, 3, 4};
  return buildUdpFrame(spec, payload);
}

// ---------------------------------------------------------------- queues ---

TEST(MpmcQueue, FifoSingleThread) {
  MpmcQueue<int> q(8);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
}

TEST(MpmcQueue, TryPushRespectsCapacity) {
  MpmcQueue<int> q(2);
  EXPECT_TRUE(q.tryPush(1));
  EXPECT_TRUE(q.tryPush(2));
  EXPECT_FALSE(q.tryPush(3));
}

TEST(MpmcQueue, CloseDrainsThenEnds) {
  MpmcQueue<int> q(8);
  q.push(42);
  q.close();
  EXPECT_FALSE(q.push(43));
  EXPECT_EQ(q.pop().value(), 42);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(MpmcQueue, ConcurrentProducersConsumersLoseNothing) {
  MpmcQueue<int> q(64);
  constexpr int kPerProducer = 5000;
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  std::atomic<long long> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::jthread> threads;
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.pop()) {
        sum.fetch_add(*v);
        popped.fetch_add(1);
      }
    });
  }
  {
    std::vector<std::jthread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&q] {
        for (int i = 1; i <= kPerProducer; ++i) q.push(i);
      });
    }
  }  // join producers
  q.close();
  threads.clear();  // join consumers
  EXPECT_EQ(popped.load(), kProducers * kPerProducer);
  const long long expected = 3LL * (kPerProducer * (kPerProducer + 1LL)) / 2;
  EXPECT_EQ(sum.load(), expected);
}

TEST(SpscRing, FifoAndCapacity) {
  SpscRing<int> r(4);
  int v = 0;
  EXPECT_FALSE(r.tryPop(v));
  for (int i = 0; i < 4; ++i) {
    int item = i;
    EXPECT_TRUE(r.tryPush(item));
  }
  // May hold >=4 (rounded up), but is finite.
  int extra = 100;
  int pushed = 0;
  while (pushed < 100) {
    int item = extra;
    if (!r.tryPush(item)) break;
    ++pushed;
  }
  EXPECT_LT(pushed, 100);
  EXPECT_TRUE(r.tryPop(v));
  EXPECT_EQ(v, 0);
}

TEST(SpscRing, FailedPushLeavesItemIntact) {
  SpscRing<std::vector<int>> r(1);
  std::vector<int> a{1, 2, 3};
  while (r.tryPush(a)) a = {1, 2, 3};
  std::vector<int> keep{7, 8, 9};
  EXPECT_FALSE(r.tryPush(keep));
  EXPECT_EQ(keep, (std::vector<int>{7, 8, 9}));  // not moved-from
}

TEST(SpscRing, SpscStress) {
  SpscRing<int> r(128);
  constexpr int kN = 100000;
  long long sum = 0;
  std::jthread consumer([&] {
    int got = 0, v = 0;
    while (got < kN) {
      if (r.tryPop(v)) {
        sum += v;
        ++got;
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (int i = 1; i <= kN; ++i) {
    int item = i;
    while (!r.tryPush(item)) std::this_thread::yield();
  }
  consumer.join();
  EXPECT_EQ(sum, static_cast<long long>(kN) * (kN + 1) / 2);
}

// ----------------------------------------------------------- worker pool ---

TEST(WorkerPool, RunsBodiesAndStops) {
  WorkerPool pool;
  std::atomic<int> started{0};
  pool.start(3, [&](unsigned, std::stop_token st) {
    started.fetch_add(1);
    while (!st.stop_requested()) std::this_thread::yield();
  });
  while (started.load() < 3) std::this_thread::yield();
  pool.stopAndJoin();
  EXPECT_EQ(started.load(), 3);
}

TEST(WorkerPool, PinningReportsOutcome) {
  // On any Linux box pinning to CPU 0 should succeed.
  EXPECT_TRUE(pinThisThread(0));
  EXPECT_GE(availableCpus(), 1u);
}

// --------------------------------------------------------------- engines ---

TEST(LockingEngineTest, ProcessesAllSubmittedFrames) {
  LockingEngine eng(3, HostConfig{});
  eng.openPort(7000, /*session_queue=*/1 << 16);
  eng.start();
  constexpr int kN = 2000;
  for (int i = 0; i < kN; ++i) EXPECT_TRUE(eng.submit({frameFor(i % 7), 0}));
  eng.stop();
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(s.processed, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(s.delivered, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(std::accumulate(s.per_worker_processed.begin(), s.per_worker_processed.end(),
                            std::uint64_t{0}),
            static_cast<std::uint64_t>(kN));
}

TEST(LockingEngineTest, CountsDropsSeparately) {
  LockingEngine eng(2, HostConfig{});
  eng.openPort(7000);
  eng.start();
  eng.submit({frameFor(0, 7000), 0});
  eng.submit({frameFor(0, 9999), 0});  // no session -> processed, not delivered
  eng.stop();
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.processed, 2u);
  EXPECT_EQ(s.delivered, 1u);
}

TEST(LockingEngineTest, RejectsAfterStop) {
  LockingEngine eng(1, HostConfig{});
  eng.openPort(7000);
  eng.start();
  eng.stop();
  EXPECT_FALSE(eng.submit({frameFor(0), 0}));
  EXPECT_EQ(eng.stats().rejected, 1u);
}

TEST(IpsEngineTest, RoutesByStreamHash) {
  IpsEngine eng(4, HostConfig{});
  eng.openPort(7000, /*session_queue=*/1 << 16);
  eng.start();
  constexpr int kN = 4000;
  for (int i = 0; i < kN; ++i)
    EXPECT_TRUE(eng.submit({frameFor(i % 16), static_cast<std::uint32_t>(i % 16)}));
  eng.stop();
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.processed, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(s.delivered, static_cast<std::uint64_t>(kN));
  // 16 streams over 4 workers round-robin: perfectly balanced load.
  for (std::uint64_t w : s.per_worker_processed) EXPECT_EQ(w, static_cast<std::uint64_t>(kN / 4));
}

TEST(LockingEngineTest, ReportsLatencyPercentiles) {
  LockingEngine eng(2, HostConfig{});
  eng.openPort(7000, 1 << 16);
  eng.start();
  for (int i = 0; i < 500; ++i) eng.submit({frameFor(i % 4), 0, {}});
  eng.stop();
  const EngineStats s = eng.stats();
  EXPECT_GT(s.latency_mean_us, 0.0);
  EXPECT_GT(s.latency_p50_us, 0.0);
  EXPECT_GE(s.latency_p99_us, s.latency_p50_us);
}

TEST(IpsEngineTest, ReportsLatencyPercentiles) {
  IpsEngine eng(2, HostConfig{});
  eng.openPort(7000, 1 << 16);
  eng.start();
  for (int i = 0; i < 500; ++i)
    eng.submit({frameFor(i % 4), static_cast<std::uint32_t>(i % 4), {}});
  eng.stop();
  const EngineStats s = eng.stats();
  EXPECT_GT(s.latency_mean_us, 0.0);
  EXPECT_GE(s.latency_p99_us, s.latency_p50_us);
}

TEST(IpsEngineTest, WorkerOfIsStable) {
  IpsEngine eng(4, HostConfig{});
  EXPECT_EQ(eng.workerOf(0), 0u);
  EXPECT_EQ(eng.workerOf(5), 1u);
  EXPECT_EQ(eng.workerOf(7), 3u);
}

class DispatchEngineParam : public ::testing::TestWithParam<DispatchPolicy> {};

TEST_P(DispatchEngineParam, ProcessesEverythingUnderEveryPolicy) {
  DispatchEngine eng(3, GetParam(), HostConfig{});
  eng.openPort(7000, 1 << 16);
  eng.start();
  constexpr int kN = 3000;
  for (int i = 0; i < kN; ++i)
    ASSERT_TRUE(eng.submit({frameFor(i % 9), static_cast<std::uint32_t>(i % 9), {}}));
  eng.stop();
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.processed, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(s.delivered, static_cast<std::uint64_t>(kN));
  EXPECT_GT(s.latency_p50_us, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Policies, DispatchEngineParam,
                         ::testing::Values(DispatchPolicy::kRoundRobin,
                                           DispatchPolicy::kMruWorker,
                                           DispatchPolicy::kStreamHash));

TEST(DispatchEngineTest, RouteFollowsPolicy) {
  DispatchEngine rr(4, DispatchPolicy::kRoundRobin, HostConfig{});
  EXPECT_EQ(rr.route(0), 0u);
  EXPECT_EQ(rr.route(0), 1u);
  EXPECT_EQ(rr.route(0), 2u);

  DispatchEngine hash(4, DispatchPolicy::kStreamHash, HostConfig{});
  EXPECT_EQ(hash.route(5), 1u);
  EXPECT_EQ(hash.route(5), 1u);
  EXPECT_EQ(hash.route(6), 2u);

  DispatchEngine mru(4, DispatchPolicy::kMruWorker, HostConfig{});
  EXPECT_EQ(mru.route(3), mru.route(9)) << "MRU sticks to the last worker";
}

TEST(DispatchEngineTest, StreamHashNeverMigratesAStream) {
  DispatchEngine eng(4, DispatchPolicy::kStreamHash, HostConfig{});
  eng.openPort(7000, 1 << 16);
  eng.start();
  constexpr int kN = 2000;
  for (int i = 0; i < kN; ++i)
    eng.submit({frameFor(2), 2, {}});  // one stream only
  eng.stop();
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.per_worker_processed[2], static_cast<std::uint64_t>(kN));
  EXPECT_EQ(s.per_worker_processed[0] + s.per_worker_processed[1] + s.per_worker_processed[3],
            0u);
}

TEST(DispatchEngineTest, NamesAreStable) {
  EXPECT_STREQ(dispatchPolicyName(DispatchPolicy::kRoundRobin), "RoundRobin");
  EXPECT_STREQ(dispatchPolicyName(DispatchPolicy::kMruWorker), "MRUWorker");
  EXPECT_STREQ(dispatchPolicyName(DispatchPolicy::kStreamHash), "StreamHash");
}

// ------------------------------------------------- robustness additions ---

TEST(MpmcQueue, TryPopAndDrained) {
  MpmcQueue<int> q(4);
  int v = 0;
  EXPECT_FALSE(q.tryPop(v));
  q.push(1);
  q.push(2);
  EXPECT_TRUE(q.tryPop(v));
  EXPECT_EQ(v, 1);
  EXPECT_FALSE(q.drained());
  q.close();
  EXPECT_FALSE(q.drained());  // one item left
  EXPECT_TRUE(q.tryPop(v));
  EXPECT_EQ(v, 2);
  EXPECT_TRUE(q.drained());
}

TEST(MpmcQueue, PopForTimesOutThenDelivers) {
  MpmcQueue<int> q(4);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.popFor(std::chrono::milliseconds(10)).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(5));
  q.push(9);
  EXPECT_EQ(q.popFor(std::chrono::milliseconds(10)).value(), 9);
}

TEST(MpmcQueue, FailedTryPushLeavesItemIntact) {
  MpmcQueue<std::vector<int>> q(1);
  EXPECT_TRUE(q.tryPush({1}));
  std::vector<int> keep{7, 8, 9};
  EXPECT_FALSE(q.tryPush(std::move(keep)));
  EXPECT_EQ(keep, (std::vector<int>{7, 8, 9}));  // not moved-from
}

TEST(WorkerPool, InjectedKillStopsWorkerAtNextTick) {
  WorkerPool pool;
  std::atomic<int> ticks{0};
  pool.start(1, [&](unsigned w, std::stop_token) {
    while (pool.tick(w)) {
      ticks.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  while (ticks.load() < 3) std::this_thread::yield();
  pool.injectKill(0);
  while (!pool.control(0).exited.load()) std::this_thread::yield();
  EXPECT_GE(pool.control(0).faults_taken.load(), 1u);
  pool.stopAndJoin();
}

TEST(WorkerPool, InjectedStallFreezesHeartbeat) {
  WorkerPool pool;
  pool.start(1, [&](unsigned w, std::stop_token st) {
    while (!st.stop_requested()) {
      if (!pool.tick(w)) return;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  auto& ctl = pool.control(0);
  while (ctl.heartbeat.load() < 5) std::this_thread::yield();
  pool.injectStall(0, std::chrono::milliseconds(80));
  // Wait for the stall to start (faults_taken counts the served stall).
  while (ctl.faults_taken.load() == 0) std::this_thread::yield();
  // After the stall is served the heartbeat advances again.
  const std::uint64_t after_stall = ctl.heartbeat.load();
  while (ctl.heartbeat.load() == after_stall) std::this_thread::yield();
  pool.stopAndJoin();
}

TEST(LockingEngineTest, SplitsRejectedByCause) {
  EngineOptions opts;
  opts.queue_capacity = 2;
  opts.overload = OverloadPolicy::kRejectNewest;
  LockingEngine eng(1, HostConfig{}, opts);
  eng.openPort(7000);
  eng.start();
  // Stall the only worker so nothing drains the 2-slot queue; pushes past
  // capacity must then reject as queue-full.
  eng.injectWorkerStall(0, std::chrono::milliseconds(200));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // stall takes hold
  int rejected = 0;
  for (int i = 0; i < 50; ++i)
    if (!eng.submit({frameFor(0), 0, {}})) ++rejected;
  const EngineStats mid = eng.stats();
  EXPECT_GT(mid.rejected_queue_full, 0u);
  EXPECT_EQ(mid.rejected_stopped, 0u);
  EXPECT_EQ(mid.rejected, mid.rejected_queue_full);
  eng.stop();
  EXPECT_FALSE(eng.submit({frameFor(0), 0, {}}));
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.rejected_stopped, 1u);
  EXPECT_EQ(s.rejected, s.rejected_queue_full + s.rejected_stopped);
  EXPECT_TRUE(s.conserved());
}

TEST(IpsEngineTest, SplitsRejectedByCause) {
  IpsEngine eng(1, HostConfig{});
  eng.openPort(7000);
  eng.start();
  eng.stop();
  EXPECT_FALSE(eng.submit({frameFor(0), 0, {}}));
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.rejected_stopped, 1u);
  EXPECT_EQ(s.rejected_queue_full, 0u);
  EXPECT_EQ(s.rejected, 1u);
}

TEST(DispatchEngineTest, SplitsRejectedByCause) {
  EngineOptions opts;
  opts.queue_capacity = 2;
  opts.overload = OverloadPolicy::kRejectNewest;
  DispatchEngine eng(1, DispatchPolicy::kStreamHash, HostConfig{}, opts);
  eng.openPort(7000, 1 << 16);
  eng.start();
  // Flood one worker faster than it can drain under a tiny ring; with
  // reject-newest at least one submit must fail as queue-full.
  int rejected = 0;
  for (int i = 0; i < 5000 && rejected == 0; ++i)
    if (!eng.submit({frameFor(0), 0, {}})) ++rejected;
  eng.stop();
  EXPECT_FALSE(eng.submit({frameFor(0), 0, {}}));
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.rejected_queue_full, static_cast<std::uint64_t>(rejected));
  EXPECT_EQ(s.rejected_stopped, 1u);
  EXPECT_EQ(s.rejected, s.rejected_queue_full + s.rejected_stopped);
}

TEST(LockingEngineTest, SurvivesWorkerKillWithoutLosingFrames) {
  EngineOptions opts;
  opts.queue_capacity = 64;
  opts.watchdog = true;
  opts.stall_timeout = std::chrono::milliseconds(5000);  // only kills trip it
  LockingEngine eng(2, HostConfig{}, opts);
  eng.openPort(7000, 1 << 16);
  eng.start();
  constexpr int kN = 4000;
  for (int i = 0; i < kN; ++i) {
    if (i == 500) eng.injectWorkerKill(0);
    ASSERT_TRUE(eng.submit({frameFor(i % 5), 0, {}}));
  }
  eng.stop();
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(s.processed, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(s.delivered, static_cast<std::uint64_t>(kN));
  EXPECT_TRUE(s.conserved());
  EXPECT_GE(s.worker_failures, 1u);
}

TEST(DispatchEngineTest, WatchdogCountsAKilledWorker) {
  // One watchdog for every engine shape: on the shared stack it counts the
  // failure (re-homing is for private stacks), and stop() reconciles the
  // frames stranded in the dead worker's queue.
  EngineOptions opts;
  opts.queue_capacity = 1024;
  opts.watchdog = true;
  opts.watchdog_interval = std::chrono::milliseconds(1);
  opts.stall_timeout = std::chrono::milliseconds(5000);  // only kills trip it
  DispatchEngine eng(2, DispatchPolicy::kStreamHash, HostConfig{}, opts);
  eng.openPort(7000, 1 << 16);
  eng.start();
  eng.injectWorkerKill(0);
  // No frames in flight while polling: stats() merges owner-written
  // per-worker arrays, so it is only race-free on an idle engine.
  for (int spin = 0; spin < 5000 && eng.stats().worker_failures == 0; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  constexpr int kN = 400;
  for (int i = 0; i < kN; ++i) {
    const auto stream = static_cast<std::uint32_t>(i % 4);
    ASSERT_TRUE(eng.submit({frameFor(stream), stream, {}}));
  }
  eng.stop();
  const EngineStats s = eng.stats();
  EXPECT_GE(s.worker_failures, 1u);
  EXPECT_EQ(s.rehomed, 0u);
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(s.processed, static_cast<std::uint64_t>(kN));
  EXPECT_TRUE(s.conserved());
}

TEST(LockingEngineTest, ReconcilesQueueWhenEveryWorkerDies) {
  LockingEngine eng(1, HostConfig{});
  eng.openPort(7000, 1 << 16);
  eng.start();
  eng.injectWorkerKill(0);
  // The lone worker exits at its next tick; subsequent frames sit in the
  // queue until stop() reconciles them inline.
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(eng.submit({frameFor(0), 0, {}}));
  eng.stop();
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.processed, 100u);
  EXPECT_EQ(s.delivered, 100u);
  EXPECT_TRUE(s.conserved());
}

TEST(LockingEngineTest, BlockingSubmitFailsWhenEveryWorkerDies) {
  // Regression: with every worker dead, a full queue can never drain, so an
  // unbounded kBlock submit must fail (rejected_queue_full) instead of
  // spinning forever.
  EngineOptions opts;
  opts.queue_capacity = 4;
  opts.overload = OverloadPolicy::kBlock;  // no deadline
  LockingEngine eng(1, HostConfig{}, opts);
  eng.openPort(7000, 1 << 16);
  eng.start();
  eng.injectWorkerKill(0);
  int ok = 0, rejected = 0;
  for (int i = 0; i < 200; ++i) {
    if (eng.submit({frameFor(0), 0, {}}))
      ++ok;
    else
      ++rejected;
  }
  EXPECT_GT(rejected, 0) << "submit blocked forever on a dead engine";
  eng.stop();
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(ok));
  EXPECT_EQ(s.processed, static_cast<std::uint64_t>(ok));
  EXPECT_EQ(s.rejected_queue_full, static_cast<std::uint64_t>(rejected));
  EXPECT_TRUE(s.conserved());
}

TEST(IpsEngineTest, SurvivesTotalWorkerLoss) {
  // Regression: when the LAST worker dies, its redirect chain resolves to
  // itself. The watchdog's flush must park the backlog (not forward it back
  // into the queue it is draining — that cycled forever), and a blocking
  // submit must fail once no consumer can ever free ring space. stop()
  // reconciles everything parked.
  EngineOptions opts;
  opts.queue_capacity = 8;
  opts.overload = OverloadPolicy::kBlock;  // no deadline
  opts.watchdog = true;
  opts.watchdog_interval = std::chrono::milliseconds(1);
  opts.stall_timeout = std::chrono::milliseconds(5000);  // only kills trip it
  IpsEngine eng(2, HostConfig{}, opts);
  eng.openPort(7000, 1 << 16);
  eng.start();
  eng.injectWorkerKill(0);
  eng.injectWorkerKill(1);
  int ok = 0, rejected = 0;
  for (int i = 0; i < 400; ++i) {
    const auto stream = static_cast<std::uint32_t>(i % 4);
    if (eng.submit({frameFor(stream), stream, {}}))
      ++ok;
    else
      ++rejected;
  }
  EXPECT_GT(rejected, 0) << "submit blocked forever with all workers dead";
  // Let the watchdog reach the self-redirect flush of the last worker.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  eng.stop();
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(ok));
  EXPECT_EQ(s.processed, static_cast<std::uint64_t>(ok));
  EXPECT_EQ(s.rejected_queue_full, static_cast<std::uint64_t>(rejected));
  EXPECT_TRUE(s.conserved());
  EXPECT_EQ(s.worker_failures, 2u);
}

TEST(IpsEngineTest, RehomesStreamsOfKilledWorker) {
  EngineOptions opts;
  opts.queue_capacity = 256;
  opts.watchdog = true;
  opts.watchdog_interval = std::chrono::milliseconds(1);
  opts.stall_timeout = std::chrono::milliseconds(5000);  // only kills trip it
  IpsEngine eng(2, HostConfig{}, opts);
  eng.openPort(7000, 1 << 16);
  eng.start();
  constexpr int kN = 6000;
  for (int i = 0; i < kN; ++i) {
    if (i == kN / 3) eng.injectWorkerKill(0);
    const auto stream = static_cast<std::uint32_t>(i % 4);
    ASSERT_TRUE(eng.submit({frameFor(stream), stream, {}}));
  }
  // Give the watchdog a beat to notice the exit before checking redirect.
  for (int spin = 0; spin < 2000 && eng.workerOf(0) == 0u; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(eng.workerOf(0), 1u) << "streams of worker 0 re-homed to worker 1";
  eng.stop();
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(s.processed, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(s.delivered, static_cast<std::uint64_t>(kN));
  EXPECT_TRUE(s.conserved());
  EXPECT_EQ(s.worker_failures, 1u);
}

TEST(IpsEngineTest, RecoversFromStalledWorker) {
  EngineOptions opts;
  opts.queue_capacity = 256;
  opts.watchdog = true;
  opts.watchdog_interval = std::chrono::milliseconds(1);
  opts.stall_timeout = std::chrono::milliseconds(30);
  IpsEngine eng(2, HostConfig{}, opts);
  eng.openPort(7000, 1 << 16);
  eng.start();
  constexpr int kN = 3000;
  for (int i = 0; i < kN; ++i) {
    if (i == kN / 4) eng.injectWorkerStall(0, std::chrono::milliseconds(500));
    const auto stream = static_cast<std::uint32_t>(i % 4);
    ASSERT_TRUE(eng.submit({frameFor(stream), stream, {}}));
  }
  eng.stop();
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.processed, static_cast<std::uint64_t>(kN));
  EXPECT_TRUE(s.conserved());
  // 500ms stall vs 30ms timeout: the watchdog must have declared it.
  EXPECT_GE(s.worker_failures, 1u);
}

TEST(IpsEngineTest, PerStreamOrderPreserved) {
  // With one worker per stream-class and SPSC rings, packets of a stream are
  // processed in submission order: deliver increasing payloads and check the
  // session queue drains in order.
  IpsEngine eng(2, HostConfig{});
  eng.openPort(7000, /*session_queue=*/4096);
  eng.start();
  FrameSpec spec;
  for (std::uint8_t i = 0; i < 200; ++i) {
    const std::vector<std::uint8_t> payload{i};
    eng.submit({buildUdpFrame(spec, payload), 0});
  }
  eng.stop();
  EXPECT_EQ(eng.stats().processed, 200u);
}

}  // namespace
}  // namespace affinity
