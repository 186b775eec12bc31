// Golden-seed regression test: pins RunMetrics for three fixed
// (config, seed, workload) triples to the exact values produced by the
// original seed kernel. The event calendar breaks ties on (time, sequence),
// so a run's event order — and therefore every derived statistic — is a pure
// function of the seed. Any kernel change that perturbs ordering, however
// subtly, shows up here as a bit-level metric drift.
//
// The constants were captured from the seed-kernel binary with full
// precision (%.17g round-trips a double exactly); the calendar-queue kernel
// must reproduce them bit-for-bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <vector>

#include "cachesim/rd_capture.hpp"
#include "core/experiment.hpp"
#include "core/parallel_sim.hpp"
#include "core/scenario.hpp"
#include "core/sweep_runner.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/chaos.hpp"
#include "util/config.hpp"

namespace affinity {
namespace {

struct Golden {
  double mean_delay_us, p50_delay_us, p95_delay_us, p99_delay_us, ci95_delay_us;
  double mean_service_us, mean_lock_wait_us;
  double throughput_per_us, utilization, mean_queue_len;
  std::uint64_t arrived, completed, backlog_end;
  bool saturated;
  std::uint64_t reclassifications;
};

void expectExactly(const RunMetrics& m, const Golden& g) {
  // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the whole point is bit-for-bit
  // reproduction, not closeness.
  EXPECT_EQ(m.mean_delay_us, g.mean_delay_us);
  EXPECT_EQ(m.p50_delay_us, g.p50_delay_us);
  EXPECT_EQ(m.p95_delay_us, g.p95_delay_us);
  EXPECT_EQ(m.p99_delay_us, g.p99_delay_us);
  EXPECT_EQ(m.ci95_delay_us, g.ci95_delay_us);
  EXPECT_EQ(m.mean_service_us, g.mean_service_us);
  EXPECT_EQ(m.mean_lock_wait_us, g.mean_lock_wait_us);
  EXPECT_EQ(m.throughput_per_us, g.throughput_per_us);
  EXPECT_EQ(m.utilization, g.utilization);
  EXPECT_EQ(m.mean_queue_len, g.mean_queue_len);
  EXPECT_EQ(m.arrived, g.arrived);
  EXPECT_EQ(m.completed, g.completed);
  EXPECT_EQ(m.backlog_end, g.backlog_end);
  EXPECT_EQ(m.saturated, g.saturated);
  EXPECT_EQ(m.reclassifications, g.reclassifications);
}

TEST(GoldenSeed, LockingMruPoisson) {
  SimConfig c = defaultSimConfig();  // 8 procs, Locking/MRU
  c.seed = 12345;
  c.warmup_us = 20'000.0;
  c.measure_us = 150'000.0;
  const RunMetrics m = runOnce(c, ExecTimeModel::standard(), makePoissonStreams(16, 0.02));
  expectExactly(m, Golden{215.42210779173973, 211.68374390497655, 250.79400633851003,
                          274.20517683433837, 2.7714679014081289, 212.10216182978752,
                          0.56981715208325845, 0.019786666666666668, 0.52593677314464249,
                          0.054415882051270695, 3349, 2968, 4, false, 0});
}

TEST(GoldenSeed, IpsWiredPoisson) {
  SimConfig c = defaultSimConfig();
  c.policy.paradigm = Paradigm::kIps;
  c.policy.ips = IpsPolicy::kWired;
  c.seed = 999;
  c.warmup_us = 20'000.0;
  c.measure_us = 150'000.0;
  const RunMetrics m = runOnce(c, ExecTimeModel::standard(), makePoissonStreams(16, 0.03));
  expectExactly(m, Golden{228.30822699308376, 177.94182389224551, 440.86403679977246,
                          601.90817884310445, 8.5590940190164808, 146.24273045090067, 0.0,
                          0.03032, 0.55425707780654576, 2.4887902646508961, 5153, 4548, 5,
                          false, 0});
}

// --------------------------------------- conservative-parallel identity ---
//
// SimConfig::parallel_procs shards the simulated processors across real
// threads (core/parallel_sim, docs/PARALLEL_SIM.md). The contract is strict:
// whatever the thread count, every RunMetrics field — floating-point stats
// included — must be bit-identical to the serial run. Eligible IPS/wired
// configurations exercise the real shard + commit-log-replay machinery;
// everything else must take the serial fallback and trivially match.

void expectIdenticalMetrics(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.mean_delay_us, b.mean_delay_us);
  EXPECT_EQ(a.p50_delay_us, b.p50_delay_us);
  EXPECT_EQ(a.p95_delay_us, b.p95_delay_us);
  EXPECT_EQ(a.p99_delay_us, b.p99_delay_us);
  EXPECT_EQ(a.ci95_delay_us, b.ci95_delay_us);
  EXPECT_EQ(a.mean_service_us, b.mean_service_us);
  EXPECT_EQ(a.mean_lock_wait_us, b.mean_lock_wait_us);
  EXPECT_EQ(a.offered_rate_per_us, b.offered_rate_per_us);
  EXPECT_EQ(a.throughput_per_us, b.throughput_per_us);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.mean_queue_len, b.mean_queue_len);
  EXPECT_EQ(a.arrived, b.arrived);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.backlog_end, b.backlog_end);
  EXPECT_EQ(a.saturated, b.saturated);
  EXPECT_EQ(a.reclassifications, b.reclassifications);
  EXPECT_EQ(a.steals, b.steals);
  EXPECT_EQ(a.stolen_jobs, b.stolen_jobs);
  EXPECT_EQ(a.flow_migrations, b.flow_migrations);
  EXPECT_EQ(a.tfn_feedback, b.tfn_feedback);
  EXPECT_EQ(a.tfn_deferred, b.tfn_deferred);
  EXPECT_EQ(a.tfn_applied, b.tfn_applied);
  EXPECT_EQ(a.tfn_stale, b.tfn_stale);
  ASSERT_EQ(a.per_stream_mean_delay_us.size(), b.per_stream_mean_delay_us.size());
  for (std::size_t s = 0; s < a.per_stream_mean_delay_us.size(); ++s) {
    EXPECT_EQ(a.per_stream_mean_delay_us[s], b.per_stream_mean_delay_us[s]) << "stream " << s;
  }
}

TEST(GoldenSeed, ParallelMatchesSerial) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(fs::path(AFF_SOURCE_ROOT) / "scenarios")) {
    if (entry.path().extension() == ".ini") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  for (const auto& path : files) {
    SCOPED_TRACE(path.filename().string());
    std::string error;
    const auto cfg = ConfigFile::load(path.string(), &error);
    ASSERT_TRUE(cfg.has_value()) << error;
    auto sc = buildScenario(*cfg, &error);
    ASSERT_TRUE(sc.has_value()) << error;
    // Shrink long windows so the full scenario sweep stays test-sized; the
    // identity must hold for any window.
    sc->config.warmup_us = std::min(sc->config.warmup_us, 10'000.0);
    sc->config.measure_us = std::min(sc->config.measure_us, 80'000.0);
    sc->config.parallel_procs = 0;
    const RunMetrics serial = runOnce(sc->config, sc->model, sc->streams);
    for (const unsigned threads : {2u, 4u, 8u}) {
      SCOPED_TRACE(threads);
      SimConfig pc = sc->config;
      pc.parallel_procs = threads;
      const RunMetrics par = runOnce(pc, sc->model, sc->streams);
      expectIdenticalMetrics(serial, par);
    }
  }
}

// Guard against the gate passing vacuously: an eligible configuration must
// actually shard onto threads, and a known-ineligible one must report why
// it fell back.
TEST(GoldenSeed, ParallelActuallyShards) {
  SimConfig c = defaultSimConfig();
  c.policy.paradigm = Paradigm::kIps;
  c.policy.ips = IpsPolicy::kWired;
  c.seed = 999;
  c.warmup_us = 20'000.0;
  c.measure_us = 150'000.0;
  const RunMetrics serial = runOnce(c, ExecTimeModel::standard(), makePoissonStreams(16, 0.03));

  c.parallel_procs = 4;
  ParallelRunInfo pinfo;
  const RunMetrics par =
      runParallel(c, ExecTimeModel::standard(), makePoissonStreams(16, 0.03), &pinfo);
  EXPECT_TRUE(pinfo.parallel) << pinfo.fallback_reason;
  EXPECT_EQ(pinfo.shards, 4u);
  EXPECT_GT(pinfo.epochs, 0u);
  EXPECT_GT(pinfo.lookahead_us, 0.0);
  expectIdenticalMetrics(serial, par);
  // Same triple as IpsWiredPoisson above: the parallel path must reproduce
  // the pinned golden constants too, not merely agree with today's serial.
  EXPECT_EQ(par.mean_delay_us, 228.30822699308376);
  EXPECT_EQ(par.utilization, 0.55425707780654576);

  SimConfig locking = defaultSimConfig();
  locking.seed = 12345;
  locking.warmup_us = 10'000.0;
  locking.measure_us = 50'000.0;
  locking.parallel_procs = 4;
  ParallelRunInfo linfo;
  (void)runParallel(locking, ExecTimeModel::standard(), makePoissonStreams(16, 0.02), &linfo);
  EXPECT_FALSE(linfo.parallel);
  ASSERT_NE(linfo.fallback_reason, nullptr);
  EXPECT_STREQ(linfo.fallback_reason, "paradigm is not ips");

  // The IPS-wired config above, on the shared-LLC reuse model: the config
  // is eligible, but the LLC term reads any-processor ages, which couple
  // the shards — the run must fall back to serial and match it bit for bit.
  RdCaptureParams capture;
  capture.co_runners = 8;
  const ExecTimeModel llc(cachedDefaultRdModel(MachineParams::modern2020(), capture),
                          ReloadParams::measuredUdpReceive().splitForSharedLlc(),
                          FootprintShares{});
  SimConfig llc_serial_config = c;
  llc_serial_config.parallel_procs = 0;
  const RunMetrics llc_serial = runOnce(llc_serial_config, llc, makePoissonStreams(16, 0.03));
  ParallelRunInfo llc_info;
  const RunMetrics llc_par = runParallel(c, llc, makePoissonStreams(16, 0.03), &llc_info);
  EXPECT_FALSE(llc_info.parallel);
  ASSERT_NE(llc_info.fallback_reason, nullptr);
  EXPECT_STREQ(llc_info.fallback_reason,
               "shared LLC couples processors through any-processor ages");
  expectIdenticalMetrics(llc_serial, llc_par);
}

// ------------------------------------------- steal-affinity determinism ---
//
// Work stealing in the simulator is an event-time decision (no wall-clock,
// no extra RNG draws), so a steal-affinity run — steals, batches, Flow
// Director pin migrations and all — must be a pure function of the seed,
// whatever the sweep worker count. This is the guard that keeps the new
// scheduling layer inside the repo's bit-exactness discipline.

SimConfig stealAffinityConfig(std::uint64_t seed) {
  SimConfig c = defaultSimConfig();
  c.policy.locking = LockingPolicy::kStealAffinity;
  c.dispatch = net::NicDispatchMode::kFlowDirector;  // pins migrate on steals
  c.seed = seed;
  c.warmup_us = 10'000.0;
  c.measure_us = 120'000.0;
  return c;
}

void expectSameRun(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.mean_delay_us, b.mean_delay_us);
  EXPECT_EQ(a.p99_delay_us, b.p99_delay_us);
  EXPECT_EQ(a.throughput_per_us, b.throughput_per_us);
  EXPECT_EQ(a.arrived, b.arrived);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.backlog_end, b.backlog_end);
  EXPECT_EQ(a.steals, b.steals);
  EXPECT_EQ(a.stolen_jobs, b.stolen_jobs);
  EXPECT_EQ(a.flow_migrations, b.flow_migrations);
  EXPECT_EQ(a.tfn_feedback, b.tfn_feedback);
  EXPECT_EQ(a.tfn_deferred, b.tfn_deferred);
  EXPECT_EQ(a.tfn_applied, b.tfn_applied);
  EXPECT_EQ(a.tfn_stale, b.tfn_stale);
}

TEST(StealDeterminism, RepeatedSeedsAreBitIdentical) {
  for (std::uint64_t seed : {1ULL, 42ULL, 20260806ULL}) {
    const RunMetrics a =
        runOnce(stealAffinityConfig(seed), ExecTimeModel::standard(),
                makeBatchStreams(16, 0.03, 8.0));
    const RunMetrics b =
        runOnce(stealAffinityConfig(seed), ExecTimeModel::standard(),
                makeBatchStreams(16, 0.03, 8.0));
    expectSameRun(a, b);
    // Bursty traffic at this load must actually engage the steal path —
    // otherwise this guard pins nothing.
    EXPECT_GT(a.steals, 0u);
    EXPECT_GT(a.flow_migrations, 0u);
  }
}

TEST(StealDeterminism, TransportFriendlyRepeatedSeedsAreBitIdentical) {
  // Same discipline for the transport-friendly dispatcher: its feedback,
  // deferral, apply and staleness decisions are all event-time functions of
  // the seed, so the whole deferred-repin ledger must reproduce exactly.
  for (std::uint64_t seed : {1ULL, 42ULL, 20260806ULL}) {
    SimConfig c = stealAffinityConfig(seed);
    c.dispatch = net::NicDispatchMode::kTransportFriendly;
    const RunMetrics a =
        runOnce(c, ExecTimeModel::standard(), makeBatchStreams(16, 0.03, 8.0));
    const RunMetrics b =
        runOnce(c, ExecTimeModel::standard(), makeBatchStreams(16, 0.03, 8.0));
    expectSameRun(a, b);
    EXPECT_GT(a.steals, 0u);
    EXPECT_GT(a.tfn_feedback, 0u) << "completions must reach the dispatcher";
  }
}

TEST(StealDeterminism, SweepResultsIndependentOfJobCount) {
  const auto runPoint = [](std::size_t i) {
    return runOnce(stealAffinityConfig(derivePointSeed(7, i)), ExecTimeModel::standard(),
                   makeBatchStreams(16, 0.02 + 0.004 * static_cast<double>(i), 8.0));
  };
  const SweepRunner serial(1);
  const SweepRunner parallel(4);
  const std::vector<RunMetrics> a = serial.map(6, runPoint);
  const std::vector<RunMetrics> b = parallel.map(6, runPoint);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    expectSameRun(a[i], b[i]);
  }
}

// ----------------------------------------------------- chaos determinism ---
//
// The fault injector runs on the submit thread with its own seeded Rng, so
// the multiset of frames each engine processes — and therefore every
// parse-layer drop counter — is a pure function of the seed, independent of
// worker count, scheduling, and even injected worker kills (recovery moves
// frames between stacks but never invents or loses them). kSessionFull is
// the one timing-free exception to compare carefully: it depends on how
// valid frames distribute over per-worker session queues, so it is excluded
// when worker counts differ (see docs/ROBUSTNESS.md).

ChaosConfig chaosGuardConfig(unsigned workers) {
  ChaosConfig cfg;
  cfg.seed = 20260806;
  cfg.frames = 15'000;
  cfg.workers = workers;
  cfg.streams = 12;
  cfg.faults = {.drop = 0.02, .bitflip = 0.04, .truncate = 0.04,
                .duplicate = 0.02, .reorder = 0.02};
  cfg.kill_at = 5'000;
  cfg.kill_worker = 1;
  cfg.engine.stall_timeout = std::chrono::milliseconds(5000);  // kills only
  return cfg;
}

void expectSameParseDrops(const EngineStats& a, const EngineStats& b,
                          bool include_session_full) {
  for (std::size_t i = 1; i < a.dropped_by_reason.size(); ++i) {
    if (!include_session_full && static_cast<DropReason>(i) == DropReason::kSessionFull)
      continue;
    EXPECT_EQ(a.dropped_by_reason[i], b.dropped_by_reason[i])
        << dropReasonName(static_cast<DropReason>(i));
  }
}

TEST(ChaosDeterminism, FixedSeedGivesIdenticalDropCountsAcrossRuns) {
  for (EngineKind kind : {EngineKind::kLocking, EngineKind::kIps}) {
    const ChaosReport a = runChaos(kind, chaosGuardConfig(3));
    const ChaosReport b = runChaos(kind, chaosGuardConfig(3));
    ASSERT_TRUE(a.conserved) << a.describe();
    ASSERT_TRUE(b.conserved) << b.describe();
    EXPECT_EQ(a.faults.dropped, b.faults.dropped);
    EXPECT_EQ(a.faults.bitflips, b.faults.bitflips);
    EXPECT_EQ(a.faults.truncations, b.faults.truncations);
    EXPECT_EQ(a.faults.duplicates, b.faults.duplicates);
    EXPECT_EQ(a.faults.emitted, b.faults.emitted);
    EXPECT_EQ(a.stats.submitted, b.stats.submitted);
    // Locking runs one shared stack, so even kSessionFull is exact.
    expectSameParseDrops(a.stats, b.stats, kind == EngineKind::kLocking);
  }
}

TEST(ChaosDeterminism, ParseDropCountsIndependentOfWorkerCount) {
  // No kill in the 1-worker run (killing the only worker of a kBlock engine
  // would wedge submit by design); the 4-worker run keeps its kill, which
  // deliberately makes the comparison stronger: recovery must not perturb
  // the parse-layer counts either.
  ChaosConfig solo = chaosGuardConfig(1);
  solo.kill_at = 0;
  const ChaosReport w1 = runChaos(EngineKind::kIps, solo);
  const ChaosReport w4 = runChaos(EngineKind::kIps, chaosGuardConfig(4));
  ASSERT_TRUE(w1.conserved) << w1.describe();
  ASSERT_TRUE(w4.conserved) << w4.describe();
  EXPECT_EQ(w1.stats.submitted, w4.stats.submitted);
  // Parse-layer causes depend only on frame bytes, not on which stack (or
  // how many stacks) processed them.
  expectSameParseDrops(w1.stats, w4.stats, /*include_session_full=*/false);
}

// Observability must be pure observation: running the same golden triples
// with the metrics registry, the live time-weighted instruments, and the
// virtual-time tracer all enabled must reproduce the exact same bits as the
// bare runs above. Instrumentation that draws randomness, schedules events,
// or perturbs event ordering in any way fails here.
TEST(GoldenSeed, MetricsAndTracingDoNotPerturbResults) {
  obs::MetricsRegistry registry;
  obs::TraceSession trace(1 << 10);

  SimConfig c = defaultSimConfig();  // same triple as LockingMruPoisson
  c.seed = 12345;
  c.warmup_us = 20'000.0;
  c.measure_us = 150'000.0;
  c.metrics = &registry;
  c.metrics_exclusive = true;
  c.trace = &trace;
  const RunMetrics m = runOnce(c, ExecTimeModel::standard(), makePoissonStreams(16, 0.02));
  expectExactly(m, Golden{215.42210779173973, 211.68374390497655, 250.79400633851003,
                          274.20517683433837, 2.7714679014081289, 212.10216182978752,
                          0.56981715208325845, 0.019786666666666668, 0.52593677314464249,
                          0.054415882051270695, 3349, 2968, 4, false, 0});
  EXPECT_GT(registry.size(), 0u);
  EXPECT_GT(trace.recordedCount(), 0u);

  SimConfig ic = defaultSimConfig();  // same triple as IpsWiredPoisson
  ic.policy.paradigm = Paradigm::kIps;
  ic.policy.ips = IpsPolicy::kWired;
  ic.seed = 999;
  ic.warmup_us = 20'000.0;
  ic.measure_us = 150'000.0;
  ic.metrics = &registry;
  ic.trace = &trace;
  const RunMetrics im = runOnce(ic, ExecTimeModel::standard(), makePoissonStreams(16, 0.03));
  expectExactly(im, Golden{228.30822699308376, 177.94182389224551, 440.86403679977246,
                           601.90817884310445, 8.5590940190164808, 146.24273045090067, 0.0,
                           0.03032, 0.55425707780654576, 2.4887902646508961, 5153, 4548, 5,
                           false, 0});
}

TEST(GoldenSeed, AdaptiveHybridBatch) {
  SimConfig c = defaultSimConfig();
  c.policy.paradigm = Paradigm::kHybrid;
  c.adaptive_hybrid = true;
  c.seed = 777;
  c.warmup_us = 20'000.0;
  c.measure_us = 150'000.0;
  const RunMetrics m = runOnce(c, ExecTimeModel::standard(), makeBatchStreams(12, 0.025, 4.0));
  expectExactly(m, Golden{385.20016779657527, 272.96783521363142, 969.83474881773043,
                          1876.4578480882471, 158.32910156935648, 193.05205824749635,
                          5.1181081746209207, 0.025413333333333333, 0.62939502049219198,
                          19.176113585542243, 4344, 3812, 22, false, 12});
}

}  // namespace
}  // namespace affinity
