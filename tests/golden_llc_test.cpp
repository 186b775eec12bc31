// golden_llc_test — the "2020s topology" golden shapes: headline figures
// 6/8/9/12 rerun on a shared-LLC machine (MachineParams::modern2020) under
// the reuse-distance cache model, pinned so EXPERIMENTS.md's "shared-LLC
// rerun" verdicts (which 1995 conclusions survive, which flip) are enforced
// by a test instead of drifting silently. Each pin is a cell of the llcFig*
// definitions in bench/figures.hpp, at the drivers' default flags: the
// tables bench/ext_llc_rerun prints.
//
// The headline FLIP pinned here: at 42k pkts/s the 1995 machine has
// Locking-MRU saturated while Wired-Streams still runs (the paper's Figure
// 6 crossover "just above 40k"); on the shared-LLC machine MRU is still
// stable at 42k and *beats* Wired — the LLC keeps migrated stream state
// warm, so the migration penalty MRU pays (and Wired exists to avoid) has
// shrunk below Wired's load-imbalance cost. The crossover moves past 42k.
//
// Also here (soak tier): the full-length RD-vs-cachesim differential
// battery over every shipped scenario (rd_model_test runs the same battery
// downsampled in quick).
#include <gtest/gtest.h>

#include <array>

#include "golden_tolerance.hpp"
#include "rd_differential.hpp"

#include "bench/figures.hpp"

namespace affinity {
namespace {

using bench::FigureDef;
using bench::rowOf;
using bench::runCell;

const bench::FigureParams kDefaults;

// Figure 6 rerun. Below the 1995 crossover the ordering survives (MRU
// wins); at 42k the 1995 verdict FLIPS: MRU is no longer saturated and
// beats Wired outright.
TEST(GoldenLlc, Fig6MruSurvives42kFlippingThe1995Crossover) {
  const ExecTimeModel model = bench::modern2020Model(kDefaults.procs);
  const FigureDef fig = bench::llcFig6(kDefaults);

  {
    const RunMetrics mru = runCell(fig, model, rowOf(fig, 0.038), "MRU").run;
    const RunMetrics wired = runCell(fig, model, rowOf(fig, 0.038), "Wired").run;
    EXPECT_FALSE(mru.saturated);
    EXPECT_FALSE(wired.saturated);
    EXPECT_LT(mru.mean_delay_us, wired.mean_delay_us) << "MRU must still win below 40k";
    golden::expectPinned("llc-fig6", mru.mean_delay_us, 273.3, "MRU delay at 38k");
    golden::expectPinned("llc-fig6", wired.mean_delay_us, 565.3, "Wired delay at 38k");
  }

  {
    const RunMetrics mru = runCell(fig, model, rowOf(fig, 0.042), "MRU").run;
    const RunMetrics wired = runCell(fig, model, rowOf(fig, 0.042), "Wired").run;
    // THE FLIP: the 1995 golden (golden_figures_test) asserts MRU saturated
    // here and Wired the only stable policy. With the shared LLC keeping
    // migrated stream state warm, MRU is stable AND faster.
    EXPECT_FALSE(mru.saturated) << "shared LLC must keep MRU stable at 42k";
    EXPECT_FALSE(wired.saturated);
    EXPECT_LT(mru.mean_delay_us, wired.mean_delay_us)
        << "MRU must beat Wired at 42k on the shared-LLC machine";
    golden::expectPinned("llc-fig6", mru.mean_delay_us, 703.7, "MRU delay at 42k");
    golden::expectPinned("llc-fig6", wired.mean_delay_us, 915.7, "Wired delay at 42k");
  }
}

// Figure 8 rerun: the light-load IPS placement ordering survives (MRU <
// Wired < Random) but the concentration win narrows — the shared LLC keeps
// protocol code warm on every processor, which was MRU's whole advantage.
TEST(GoldenLlc, Fig8MruWinSurvivesButNarrows) {
  const FigureDef fig = bench::llcFig8(kDefaults);
  const std::size_t row = rowOf(fig, 0.001);
  const auto delays = [&](const ExecTimeModel& model) {
    std::array<double, 3> d{};
    const char* series[3] = {"Random", "MRU", "Wired"};
    for (int i = 0; i < 3; ++i) d[i] = runCell(fig, model, row, series[i]).run.mean_delay_us;
    return d;
  };

  const auto legacy = delays(ExecTimeModel::standard());
  const auto modern = delays(bench::modern2020Model(kDefaults.procs));

  // Ordering survives on the modern machine.
  EXPECT_LT(modern[1], modern[2]) << "MRU must still beat Wired at light load";
  EXPECT_LT(modern[2], modern[0]) << "Wired must still beat Random at light load";
  // ...but the relative concentration win over Random narrows vs 1995.
  const double legacy_win = (legacy[0] - legacy[1]) / legacy[0];
  const double modern_win = (modern[0] - modern[1]) / modern[0];
  EXPECT_LT(modern_win, 0.5 * legacy_win)
      << "shared LLC must erode most of the code-warmth concentration win";
  golden::expectPinned("llc-fig8", modern[0], 227.1, "Random delay at 1k");
  golden::expectPinned("llc-fig8", modern[1], 221.4206, "MRU delay at 1k");
  golden::expectPinned("llc-fig8", modern[2], 224.7, "Wired delay at 1k");
}

// Figure 9 rerun: IPS's capacity advantage survives (still > 1.2x), and the
// shared LLC lifts Locking's capacity (its migrations got cheaper) while
// leaving wired IPS — which never migrates — essentially unchanged.
TEST(GoldenLlc, Fig9IpsCapacityAdvantageSurvives) {
  const ExecTimeModel modern = bench::modern2020Model(kDefaults.procs);
  const FigureDef fig = bench::llcFig9(kDefaults);
  const std::size_t row = rowOf(fig, bench::kFig09DelayBoundUs);

  const double l95 =
      runCell(fig, ExecTimeModel::standard(), row, "Locking/MRU").max_rate_per_us * 1e6;
  const double l20 = runCell(fig, modern, row, "Locking/MRU").max_rate_per_us * 1e6;
  const double i20 = runCell(fig, modern, row, "IPS/Wired").max_rate_per_us * 1e6;

  EXPECT_GT(i20 / l20, 1.2) << "IPS must still out-scale Locking on the shared-LLC machine";
  EXPECT_GT(l20, l95) << "shared LLC must lift Locking capacity";
  golden::expectPinned("llc-fig9-capacity", l20, 42'599.6094, "Locking capacity");
  golden::expectPinned("llc-fig9-capacity", i20, 54'787.1, "IPS capacity");
}

// Figure 12 rerun: the burstiness crossover survives unchanged in character
// — it is a queueing (load-imbalance) phenomenon, not a cache one, so the
// LLC cannot rescue wired IPS from burst pile-up.
TEST(GoldenLlc, Fig12BurstinessCrossoverSurvives) {
  const ExecTimeModel model = bench::modern2020Model(kDefaults.procs);
  const FigureDef fig = bench::llcFig12(kDefaults);
  const auto delay = [&](double batch, const char* series) {
    return runCell(fig, model, rowOf(fig, batch), series).run.mean_delay_us;
  };

  const double l1 = delay(1.0, "Locking_MRU");
  const double i1 = delay(1.0, "IPS_Wired");
  EXPECT_LT(i1, l1) << "IPS must still win at batch size 1";
  golden::expectPinned("llc-fig12", l1, 213.6, "Locking delay at batch 1");
  golden::expectPinned("llc-fig12", i1, 209.4, "IPS delay at batch 1");

  const double l8 = delay(8.0, "Locking_MRU");
  const double i8 = delay(8.0, "IPS_Wired");
  EXPECT_GT(i8 / l8, 2.0) << "IPS must still be >= 2x worse at batch size 8";
  golden::expectPinned("llc-fig12", l8, 289.0587, "Locking delay at batch 8");
  golden::expectPinned("llc-fig12", i8, 831.5, "IPS delay at batch 8");
}

// Full-length differential battery (quick tier runs the same machinery
// downsampled — rd_model_test.cpp).
TEST(GoldenLlc, FullLengthDifferentialBattery) {
  rd_diff::runDifferentialBattery(AFF_SOURCE_ROOT, 512);
}

}  // namespace
}  // namespace affinity
