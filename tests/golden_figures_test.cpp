// golden_figures_test — pins the headline numbers behind EXPERIMENTS.md so a
// regression that bends a paper conclusion fails a test instead of silently
// shifting a table.
//
// Each test replicates its bench driver's exact configuration (16 streams,
// derivePointSeed(seed=1, point index), the full-run auto windows), so the
// pinned values are the same numbers the driver prints. The simulation is
// deterministic; the per-figure tolerances (named in golden_tolerance.hpp)
// only absorb benign floating-point reassociation from compiler/library
// changes, while shape assertions (orderings, crossovers, scaling ratios)
// encode the paper's conclusions themselves. docs/OBSERVABILITY.md explains
// the policy.
//
// Paper: Salehi, Kurose, Towsley, "The Performance Impact of Scheduling for
// Cache Affinity in Parallel Network Processing" (HPDC 1995): Figures 6-13.
#include <gtest/gtest.h>

#include "golden_tolerance.hpp"

#include "core/capacity.hpp"
#include "core/experiment.hpp"
#include "core/sweep_runner.hpp"

namespace affinity {
namespace {

// The bench drivers' full-run configuration (bench/common.hpp makeConfig
// with default flags).
SimConfig goldenConfig() {
  SimConfig c = defaultSimConfig();
  c.num_procs = 8;
  c.lock_overhead_us = 20.0;
  c.critical_section_us = 8.0;
  c.seed = 1;
  c.warmup_us = 200'000.0;
  c.measure_us = 2'000'000.0;
  return c;
}

// makeConfigFor: measurement window sized for the point's rate (80k packets).
SimConfig goldenConfigFor(double rate_per_us) {
  SimConfig c = goldenConfig();
  setAutoWindow(c, rate_per_us, 80'000);
  return c;
}

// The sweep-point seed the drivers use (splitmix of --seed=1 and the index).
std::uint64_t goldenSeed(std::uint64_t point_index) { return derivePointSeed(1, point_index); }

// Figure 6 (Locking): MRU beats Wired-Streams at 38k pkts/s, but Wired is
// the only policy still stable at 42k — the crossover the paper puts just
// above 40k pkts/s.
TEST(GoldenFigures, Fig6MruWiredCrossoverAbove40k) {
  const auto model = ExecTimeModel::standard();

  // rate 0.038 pkts/us = sweep index 9 of rateSweep(false)
  {
    const auto streams = makePoissonStreams(16, 0.038);
    SimConfig c = goldenConfigFor(0.038);
    c.seed = goldenSeed(9);
    c.policy.paradigm = Paradigm::kLocking;
    c.policy.locking = LockingPolicy::kMru;
    const RunMetrics mru = runOnce(c, model, streams);
    c.policy.locking = LockingPolicy::kWiredStreams;
    const RunMetrics wired = runOnce(c, model, streams);

    EXPECT_FALSE(mru.saturated);
    EXPECT_FALSE(wired.saturated);
    EXPECT_LT(mru.mean_delay_us, wired.mean_delay_us) << "MRU must win below the crossover";
    golden::expectPinned("fig6", mru.mean_delay_us, 360.8368, "MRU delay at 38k");
    golden::expectPinned("fig6", wired.mean_delay_us, 482.8502, "Wired delay at 38k");
  }

  // rate 0.042 pkts/us = sweep index 11: MRU has saturated, Wired has not.
  {
    const auto streams = makePoissonStreams(16, 0.042);
    SimConfig c = goldenConfigFor(0.042);
    c.seed = goldenSeed(11);
    c.policy.paradigm = Paradigm::kLocking;
    c.policy.locking = LockingPolicy::kMru;
    const RunMetrics mru = runOnce(c, model, streams);
    c.policy.locking = LockingPolicy::kWiredStreams;
    const RunMetrics wired = runOnce(c, model, streams);

    EXPECT_TRUE(mru.saturated) << "MRU must be past saturation at 42k";
    EXPECT_FALSE(wired.saturated) << "Wired must still be stable at 42k";
    golden::expectPinned("fig6", wired.mean_delay_us, 699.8590, "Wired delay at 42k");
    EXPECT_GT(mru.mean_delay_us, 10.0 * wired.mean_delay_us);
  }
}

// Figure 8 (IPS): at very light load (1k pkts/s) MRU — concentrating all
// stacks on few processors so the shared protocol text stays warm — beats
// both Random and Wired placement.
TEST(GoldenFigures, Fig8LowRateMruWin) {
  const auto model = ExecTimeModel::standard();
  const double rate = 0.001;  // index 2 of rateSweepWithLowEnd(false)
  const auto streams = makePoissonStreams(16, rate);

  double delay[3] = {0, 0, 0};
  const IpsPolicy policies[3] = {IpsPolicy::kRandom, IpsPolicy::kMru, IpsPolicy::kWired};
  for (int i = 0; i < 3; ++i) {
    SimConfig c = goldenConfigFor(rate);
    c.seed = goldenSeed(2);
    c.policy.paradigm = Paradigm::kIps;
    c.policy.ips = policies[i];
    delay[i] = runOnce(c, model, streams).mean_delay_us;
  }
  golden::expectPinned("fig8", delay[0], 226.9830, "Random delay at 1k");
  golden::expectPinned("fig8", delay[1], 197.1524, "MRU delay at 1k");
  golden::expectPinned("fig8", delay[2], 200.1067, "Wired delay at 1k");
  EXPECT_LT(delay[1], delay[2]) << "MRU must beat Wired at light load";
  EXPECT_LT(delay[2], delay[0]) << "Wired must beat Random at light load";
}

// Figure 9: maximum throughput capacity under a 1 ms delay bound — the
// paper's headline Locking 40.6k vs IPS 54.9k pkts/s (EXPERIMENTS.md).
TEST(GoldenFigures, Fig9CapacityLockingVsIps) {
  const auto model = ExecTimeModel::standard();
  const auto make = [](double rate) { return makePoissonStreams(16, rate); };

  SimConfig locking = goldenConfig();
  locking.policy.paradigm = Paradigm::kLocking;
  locking.policy.locking = LockingPolicy::kMru;
  locking.measure_us = 800'000.0;
  SimConfig ips = locking;
  ips.policy.paradigm = Paradigm::kIps;
  ips.policy.ips = IpsPolicy::kWired;

  const CapacityResult cl = findMaxRate(locking, model, make, 0.002, 0.08, 1000.0, 10);
  const CapacityResult ci = findMaxRate(ips, model, make, 0.002, 0.08, 1000.0, 10);
  const double locking_pkts_s = cl.max_rate_per_us * 1e6;
  const double ips_pkts_s = ci.max_rate_per_us * 1e6;

  // Pin against EXPERIMENTS.md's reported 40.6k / 54.9k.
  golden::expectPinned("fig9-capacity", locking_pkts_s, 40'600.0, "Locking capacity");
  golden::expectPinned("fig9-capacity", ips_pkts_s, 54'900.0, "IPS capacity");
  EXPECT_GT(ips_pkts_s / locking_pkts_s, 1.25) << "IPS must out-scale Locking by a wide margin";
}

// Figure 10: affinity scheduling (Stream-MRU) vs FCFS under Locking with no
// per-stream state variance (V=0) cuts mean delay by at least 40 % at 40k
// pkts/s.
TEST(GoldenFigures, Fig10StreamMruReductionAtLeast40Pct) {
  const auto model = ExecTimeModel::standard();
  const double rate = 0.040;  // index 10 of rateSweep(false)
  const auto streams = makePoissonStreams(16, rate);

  SimConfig c = goldenConfigFor(rate);
  c.seed = goldenSeed(10);
  c.policy.paradigm = Paradigm::kLocking;
  c.policy.locking = LockingPolicy::kFcfs;
  const RunMetrics base = runOnce(c, model, streams);
  c.policy.locking = LockingPolicy::kStreamMru;
  const RunMetrics aff = runOnce(c, model, streams);

  EXPECT_FALSE(base.saturated);
  EXPECT_FALSE(aff.saturated);
  golden::expectPinned("fig10", base.mean_delay_us, 584.72, "FCFS delay at 40k");
  golden::expectPinned("fig10", aff.mean_delay_us, 271.50, "Stream-MRU delay at 40k");
  const double reduction = (base.mean_delay_us - aff.mean_delay_us) / base.mean_delay_us * 100.0;
  EXPECT_GE(reduction, 40.0) << "affinity must cut delay by >= 40% (paper: ~50%)";
}

// Figure 12: burstiness crossover. At 12k pkts/s Locking and IPS swap
// places as the per-stream batch size grows: IPS wins at batch 1, loses
// badly (>= 2x) by batch 8 — bursts pile onto one wired processor.
TEST(GoldenFigures, Fig12BurstinessCrossover) {
  const auto model = ExecTimeModel::standard();

  const auto run_pair = [&](double batch, std::uint64_t idx) {
    const auto streams = makeBatchStreams(16, 0.012, batch, false);
    SimConfig lc = goldenConfig();
    lc.policy.paradigm = Paradigm::kLocking;
    lc.policy.locking = LockingPolicy::kMru;
    SimConfig ic = goldenConfig();
    ic.policy.paradigm = Paradigm::kIps;
    ic.policy.ips = IpsPolicy::kWired;
    lc.seed = ic.seed = goldenSeed(idx);
    const double l = runOnce(lc, model, streams).mean_delay_us;
    const double i = runOnce(ic, model, streams).mean_delay_us;
    return std::pair{l, i};
  };

  const auto [l1, i1] = run_pair(1.0, 0);  // batch 1 = sweep index 0
  golden::expectPinned("fig12", l1, 215.70, "Locking delay at batch 1");
  golden::expectPinned("fig12", i1, 186.79, "IPS delay at batch 1");
  EXPECT_LT(i1, l1) << "IPS must win at batch size 1";

  const auto [l8, i8] = run_pair(8.0, 3);  // batch 8 = sweep index 3
  golden::expectPinned("fig12", l8, 295.62, "Locking delay at batch 8");
  golden::expectPinned("fig12", i8, 808.11, "IPS delay at batch 8");
  EXPECT_GT(i8 / l8, 2.0) << "IPS must be >= 2x worse at batch size 8";
}

// Figure 12's bursty workload under steal-affinity, A-B on the NIC
// front-end: Flow Director (arXiv:1106.0443) migrates a stream's pin on
// every steal; the Transport-Friendly NIC (arXiv:1106.0445) repins only
// once the stream's in-flight prefix drains. Closing the reordering
// pathology must cost no delay, and it must cut the pin moves by an order
// of magnitude. Delivery order itself is pinned by ordering_test.
TEST(GoldenFigures, Fig12TfnMatchesFlowDirectorDelayWithFewerMigrations) {
  const auto model = ExecTimeModel::standard();
  const auto streams = makeBatchStreams(16, 0.03, 8.0);
  SimConfig c = defaultSimConfig();
  c.num_procs = 8;
  c.policy.locking = LockingPolicy::kStealAffinity;
  c.seed = 1;
  c.warmup_us = 20'000.0;
  c.measure_us = 120'000.0;
  c.dispatch = net::NicDispatchMode::kFlowDirector;
  const RunMetrics fdir = runOnce(c, model, streams);
  c.dispatch = net::NicDispatchMode::kTransportFriendly;
  const RunMetrics tfn = runOnce(c, model, streams);

  EXPECT_NEAR(tfn.mean_delay_us / fdir.mean_delay_us, 1.0, 0.05)
      << "TFN delay " << tfn.mean_delay_us << " us vs FDir " << fdir.mean_delay_us << " us";
  EXPECT_GT(fdir.flow_migrations, 10 * tfn.tfn_applied)
      << "FDir migrations " << fdir.flow_migrations << " vs TFN repins " << tfn.tfn_applied;
}

// Figure 13: single-stream capacity vs processor count. A single stream's
// IPS capacity is pinned near one processor's throughput regardless of
// machine size, while Locking scales with processors.
TEST(GoldenFigures, Fig13IpsSingleStreamPinned) {
  const auto model = ExecTimeModel::standard();
  const auto make = [](double rate) { return makePoissonStreams(1, rate); };

  const auto capacities = [&](unsigned procs, std::uint64_t idx) {
    SimConfig locking = goldenConfig();
    locking.seed = goldenSeed(idx);
    locking.num_procs = procs;
    locking.policy.paradigm = Paradigm::kLocking;
    locking.policy.locking = LockingPolicy::kMru;
    locking.measure_us = 600'000.0;
    SimConfig ips = locking;
    ips.policy.paradigm = Paradigm::kIps;
    ips.policy.ips = IpsPolicy::kWired;
    const CapacityResult cl = findMaxRate(locking, model, make, 0.001, 0.09, 2000.0, 10);
    const CapacityResult ci = findMaxRate(ips, model, make, 0.001, 0.09, 2000.0, 10);
    return std::pair{cl.max_rate_per_us * 1e6, ci.max_rate_per_us * 1e6};
  };

  const auto [l1, i1] = capacities(1, 0);  // procs=1 = sweep index 0
  golden::expectPinned("fig13-capacity", l1, 6127.9, "Locking capacity at 1 proc");
  golden::expectPinned("fig13-capacity", i1, 7257.8, "IPS capacity at 1 proc");

  const auto [l8, i8] = capacities(8, 2);  // procs=8 = sweep index 2
  golden::expectPinned("fig13-capacity", l8, 51410.2, "Locking capacity at 8 procs");
  golden::expectPinned("fig13-capacity", i8, 7170.9, "IPS capacity at 8 procs");

  EXPECT_GT(l8 / l1, 4.0) << "Locking must scale with processors";
  EXPECT_NEAR(i8 / i1, 1.0, 0.1) << "IPS single-stream capacity must stay pinned";
}

}  // namespace
}  // namespace affinity
