// figures.hpp — the one definition of each pinned figure.
//
// A definition holds everything that decides a table's numbers: its x axis,
// each row's point seed, workload and base SimConfig, an optional capacity
// search, and its series. The bench drivers print these tables, and the
// golden tests (tests/golden_figures_test.cpp, tests/golden_llc_test.cpp)
// pin cells of the same definitions at the drivers' default flags, so a pin
// always checks a point that a driver prints.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/capacity.hpp"
#include "core/sweep_runner.hpp"

namespace affinity::bench {

/// The result-affecting driver flags. The defaults are the drivers' flag
/// defaults (CommonFlags::declare reads them from here).
struct FigureParams {
  int procs = 8;
  int streams = 16;
  double lock_overhead_us = 20.0;
  double critical_section_us = 8.0;
  std::uint64_t seed = 1;
  bool fast = false;  ///< short windows and axes (CI smoke run)
  /// Each run publishes its statistics here after it ends; may be null.
  obs::MetricsRegistry* metrics = nullptr;

  /// The drivers' base configuration.
  [[nodiscard]] SimConfig makeConfig() const;
  /// makeConfig() with the measurement window sized for the rate, so
  /// light-load points still complete enough packets.
  [[nodiscard]] SimConfig makeConfigFor(double rate_per_us) const;
};

/// Defaults of the driver-specific flags that feed a definition.
inline constexpr double kFig09DelayBoundUs = 1'000.0;
inline constexpr double kFig12RatePerUs = 0.012;
inline constexpr double kFig13DelayBoundUs = 2'000.0;

/// One column of a table: its name and its edit of the row's base config.
struct Series {
  std::string name;
  std::function<void(SimConfig&)> edit;
};

/// Bisection for the highest rate that is stable with mean delay under a bound.
struct CapacitySearch {
  double lo_rate_per_us;
  double hi_rate_per_us;
  double delay_bound_us;
  int iters;
};

/// One table: rows along the x axis, one column per series. A cell runs the
/// row's base config, edited by its series, on the row's workload.
struct FigureDef {
  std::vector<double> xs;
  /// derivePointSeed index of each row; empty means row i uses index i.
  std::vector<std::uint64_t> seed_index;
  /// Rows run at the base seed itself instead of a derived point seed.
  bool base_seed = false;
  /// The row's base config, from its x.
  std::function<SimConfig(double x)> config;
  /// The row's workload, from its x; under a capacity search, from the
  /// offered rate instead.
  StreamSetFactory workload;
  std::optional<CapacitySearch> capacity;
  std::vector<Series> series;
};

// Series and definition builders, shared by the figures below and by the
// extension drivers' own definitions.

/// The Locking paradigm under `policy`.
Series locking(std::string name, LockingPolicy policy);
/// The IPS paradigm under `policy`.
Series ips(std::string name, IpsPolicy policy);
/// The hybrid paradigm: streams [0, locking_streams) take the Locking/MRU
/// stack, the rest IPS/Wired stacks.
Series hybrid(std::string name, int locking_streams);
/// `base` renamed to `name`, with `edit` applied after base's own edit.
Series extend(const Series& base, std::string name, std::function<void(SimConfig&)> edit);
/// `streams` Poisson streams sharing the offered aggregate rate.
StreamSetFactory poisson(int streams);
/// Mean delay vs aggregate rate over Poisson streams, the window sized per
/// rate, each row at its derived point seed.
FigureDef delayVsRate(const FigureParams& p, std::vector<double> rates,
                      std::vector<Series> series);

/// One cell of a table.
struct Cell {
  RunMetrics run;  ///< under a capacity search: the run at the highest feasible rate
  double max_rate_per_us = 0.0;  ///< capacity searches only
};

/// The row of `x` on the axis; aborts when x is not on it.
[[nodiscard]] std::size_t rowOf(const FigureDef& def, double x);

/// Runs one cell: row `row`, the series named `series` (aborts when absent).
[[nodiscard]] Cell runCell(const FigureDef& def, const ExecTimeModel& model, std::size_t row,
                           std::string_view series);

/// Runs every cell through `runner`; the result is indexed [row][series]
/// and does not depend on the runner's job count.
[[nodiscard]] std::vector<std::vector<Cell>> runTable(const FigureDef& def,
                                                      const ExecTimeModel& model,
                                                      const SweepRunner& runner);

/// Standard arrival-rate sweep (packets/µs). With 8 processors and a warm
/// service time of ~136 µs the no-overhead capacity is ~0.059 pkts/µs; the
/// sweep spans light load to near saturation.
std::vector<double> rateSweep(bool fast);

/// Rate sweep extended down to very light load (hundreds of packets per
/// second), where the IPS policy crossover lives: concentrating stacks (MRU)
/// keeps the shared protocol text warm while everything else has decayed.
std::vector<double> rateSweepWithLowEnd(bool fast);

// The paper's figures (EXPERIMENTS.md records their shapes).
FigureDef fig06LockingDelay(const FigureParams& p);
FigureDef fig07LockingMarginal(const FigureParams& p);
FigureDef fig08IpsDelay(const FigureParams& p);
FigureDef fig09Delay(const FigureParams& p);
/// One row, at x = the delay bound.
FigureDef fig09Capacity(const FigureParams& p, double delay_bound_us = kFig09DelayBoundUs);
/// Series "FCFS V=0", "StreamMRU V=0", "FCFS V=35", ... for V = 0, 35, 70, 139 µs.
FigureDef fig10ReductionLocking(const FigureParams& p);
/// Series "Random V=0", "Wired V=0", ... as in fig10ReductionLocking.
FigureDef fig11ReductionIps(const FigureParams& p);
FigureDef fig12Burstiness(const FigureParams& p, double rate_per_us = kFig12RatePerUs);
FigureDef fig13Scalability(const FigureParams& p, double delay_bound_us = kFig13DelayBoundUs);

// The shared-LLC rerun (ext_llc_rerun): each runs under both the 1995 model
// and modern2020Model.
FigureDef llcFig6(const FigureParams& p);
FigureDef llcFig8(const FigureParams& p);
/// One row, at x = the delay bound.
FigureDef llcFig9(const FigureParams& p);
FigureDef llcFig12(const FigureParams& p);

/// The 2020s shared-LLC machine (MachineParams::modern2020) under the
/// reuse-distance model, profiles captured with `co_runners` processors on
/// the LLC, and the 1995 memory transient split into private-L2 and
/// shared-LLC parts (t_cold unchanged).
ExecTimeModel modern2020Model(unsigned co_runners);

}  // namespace affinity::bench
