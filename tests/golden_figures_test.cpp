// golden_figures_test — pins the headline numbers behind EXPERIMENTS.md so a
// regression that bends a paper conclusion fails a test instead of silently
// shifting a table.
//
// Each pin is a cell of a figure definition in bench/figures.hpp — the one
// its bench driver prints — looked up by (figure, x, series) at the drivers'
// default flags, so the pinned values are the numbers the driver prints.
// The simulation is deterministic; the per-figure tolerances (named in
// golden_tolerance.hpp) only absorb benign floating-point reassociation from
// compiler/library changes, while shape assertions (orderings, crossovers,
// scaling ratios) encode the paper's conclusions themselves.
// docs/OBSERVABILITY.md explains the policy.
//
// Paper: Salehi, Kurose, Towsley, "The Performance Impact of Scheduling for
// Cache Affinity in Parallel Network Processing" (HPDC 1995): Figures 6-13.
#include <gtest/gtest.h>

#include "golden_tolerance.hpp"

#include "bench/figures.hpp"
#include "core/experiment.hpp"
#include "obs/metrics.hpp"

namespace affinity {
namespace {

using bench::FigureDef;
using bench::rowOf;
using bench::runCell;

const bench::FigureParams kDefaults;

// Figure 6 (Locking): MRU beats Wired-Streams at 38k pkts/s, but Wired is
// the only policy still stable at 42k — the crossover the paper puts just
// above 40k pkts/s.
TEST(GoldenFigures, Fig6MruWiredCrossoverAbove40k) {
  const auto model = ExecTimeModel::standard();
  const FigureDef fig = bench::fig06LockingDelay(kDefaults);

  {
    const std::size_t row = rowOf(fig, 0.038);
    const RunMetrics mru = runCell(fig, model, row, "MRU").run;
    const RunMetrics wired = runCell(fig, model, row, "WiredStreams").run;

    EXPECT_FALSE(mru.saturated);
    EXPECT_FALSE(wired.saturated);
    EXPECT_LT(mru.mean_delay_us, wired.mean_delay_us) << "MRU must win below the crossover";
    golden::expectPinned("fig6", mru.mean_delay_us, 360.8368, "MRU delay at 38k");
    golden::expectPinned("fig6", wired.mean_delay_us, 482.8502, "Wired delay at 38k");
  }

  // At 42k MRU has saturated, Wired has not.
  {
    const std::size_t row = rowOf(fig, 0.042);
    const RunMetrics mru = runCell(fig, model, row, "MRU").run;
    const RunMetrics wired = runCell(fig, model, row, "WiredStreams").run;

    EXPECT_TRUE(mru.saturated) << "MRU must be past saturation at 42k";
    EXPECT_FALSE(wired.saturated) << "Wired must still be stable at 42k";
    golden::expectPinned("fig6", wired.mean_delay_us, 699.8590, "Wired delay at 42k");
    EXPECT_GT(mru.mean_delay_us, 10.0 * wired.mean_delay_us);
  }
}

// Not a pinned cell but a cost bound on the same run: at a Fig 6 paper
// point the event kernel's dequeue scans at most 4 entries per executed
// event. The run's far-ahead control events (warmup reset, mid-window
// sample) must not widen the calendar's windows (docs/MODEL.md §7).
TEST(GoldenFigures, Fig6PointDequeueScansFewEntriesPerEvent) {
  obs::MetricsRegistry reg;
  bench::FigureParams params;
  params.metrics = &reg;
  const FigureDef fig = bench::fig06LockingDelay(params);
  (void)runCell(fig, ExecTimeModel::standard(), rowOf(fig, 0.012), "MRU");
  const obs::MeanStat& scan = reg.meanStat("sim.kernel.entries_scanned_per_event");
  ASSERT_EQ(scan.count(), 1u);
  EXPECT_LE(scan.mean(), 4.0);
}

// Figure 8 (IPS): at very light load (1k pkts/s) MRU — concentrating all
// stacks on few processors so the shared protocol text stays warm — beats
// both Random and Wired placement.
TEST(GoldenFigures, Fig8LowRateMruWin) {
  const auto model = ExecTimeModel::standard();
  const FigureDef fig = bench::fig08IpsDelay(kDefaults);
  const std::size_t row = rowOf(fig, 0.001);

  const double random = runCell(fig, model, row, "Random").run.mean_delay_us;
  const double mru = runCell(fig, model, row, "MRU").run.mean_delay_us;
  const double wired = runCell(fig, model, row, "Wired").run.mean_delay_us;
  golden::expectPinned("fig8", random, 226.9830, "Random delay at 1k");
  golden::expectPinned("fig8", mru, 197.1524, "MRU delay at 1k");
  golden::expectPinned("fig8", wired, 200.1067, "Wired delay at 1k");
  EXPECT_LT(mru, wired) << "MRU must beat Wired at light load";
  EXPECT_LT(wired, random) << "Wired must beat Random at light load";
}

// Figure 9: maximum throughput capacity under a 1 ms delay bound — the
// paper's headline Locking 40.6k vs IPS 54.9k pkts/s (EXPERIMENTS.md).
TEST(GoldenFigures, Fig9CapacityLockingVsIps) {
  const auto model = ExecTimeModel::standard();
  const FigureDef fig = bench::fig09Capacity(kDefaults);
  const std::size_t row = rowOf(fig, bench::kFig09DelayBoundUs);

  const double locking_pkts_s = runCell(fig, model, row, "Locking/MRU").max_rate_per_us * 1e6;
  const double ips_pkts_s = runCell(fig, model, row, "IPS/Wired").max_rate_per_us * 1e6;

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
  const FigureDef fig = bench::fig10ReductionLocking(kDefaults);
  const std::size_t row = rowOf(fig, 0.040);

  const RunMetrics base = runCell(fig, model, row, "FCFS V=0").run;
  const RunMetrics aff = runCell(fig, model, row, "StreamMRU V=0").run;

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
  const FigureDef fig = bench::fig12Burstiness(kDefaults);
  const auto delay = [&](double batch, const char* series) {
    return runCell(fig, model, rowOf(fig, batch), series).run.mean_delay_us;
  };

  const double l1 = delay(1.0, "Locking_MRU");
  const double i1 = delay(1.0, "IPS_Wired");
  golden::expectPinned("fig12", l1, 215.70, "Locking delay at batch 1");
  golden::expectPinned("fig12", i1, 186.79, "IPS delay at batch 1");
  EXPECT_LT(i1, l1) << "IPS must win at batch size 1";

  const double l8 = delay(8.0, "Locking_MRU");
  const double i8 = delay(8.0, "IPS_Wired");
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
  const FigureDef fig = bench::fig13Scalability(kDefaults);
  const auto capacity = [&](double procs, const char* series) {
    return runCell(fig, model, rowOf(fig, procs), series).max_rate_per_us * 1e6;
  };

  const double l1 = capacity(1, "Locking_MRU");
  const double i1 = capacity(1, "IPS_Wired");
  golden::expectPinned("fig13-capacity", l1, 6127.9, "Locking capacity at 1 proc");
  golden::expectPinned("fig13-capacity", i1, 7257.8, "IPS capacity at 1 proc");

  const double l8 = capacity(8, "Locking_MRU");
  const double i8 = capacity(8, "IPS_Wired");
  golden::expectPinned("fig13-capacity", l8, 50454.1, "Locking capacity at 8 procs");
  golden::expectPinned("fig13-capacity", i8, 7170.9, "IPS capacity at 8 procs");

  EXPECT_GT(l8 / l1, 4.0) << "Locking must scale with processors";
  EXPECT_NEAR(i8 / i1, 1.0, 0.1) << "IPS single-stream capacity must stay pinned";
}

}  // namespace
}  // namespace affinity
