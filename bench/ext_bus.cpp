// Memory-bus contention: the SGI Challenge's shared bus serializes L2
// reloads. With the bus modeled, cache-cold packets on different processors
// delay each other — which (a) caps multiprocessor capacity below N/t and
// (b) *amplifies* the affinity-scheduling benefit, since warm packets put
// almost nothing on the bus. The paper's platform model folds the bus into
// measured miss penalties; this extension makes contention explicit.
#include <cstdio>

#include "bench/common.hpp"

using namespace affinity;
using namespace affinity::bench;

int main(int argc, char** argv) {
  Cli cli("ext_bus", "memory-bus contention: capacity and affinity benefit");
  const auto flags = CommonFlags::declare(cli);
  const double& occupancy =
      cli.flag<double>("bus-occupancy", 0.35, "bus share of each L2-reload microsecond");
  cli.parse(argc, argv);

  // Each policy without and with the bus.
  std::vector<Series> series;
  for (const Series& policy : {locking("FCFS", LockingPolicy::kFcfs),
                               locking("StreamMRU", LockingPolicy::kStreamMru)}) {
    for (const auto& [suffix, occ] : {std::pair{"_nobus", 0.0}, std::pair{"_bus", occupancy}})
      series.push_back(extend(policy, policy.name + suffix,
                              [occ](SimConfig& c) { c.bus_occupancy_fraction = occ; }));
  }
  const auto model = ExecTimeModel::standard();
  const SweepRunner runner = flags.runner();
  const FigureDef sweep = delayVsRate(flags.params(), rateSweep(flags.fast), series);

  std::printf("# bus contention (occupancy %.2f) — mean delay, us\n", occupancy);
  TableWriter t({"rate_pkts_per_s", "FCFS_nobus", "FCFS_bus", "StreamMRU_nobus",
                 "StreamMRU_bus"},
                flags.csv, 1);
  const auto rows = runTable(sweep, model, runner);
  for (std::size_t i = 0; i < sweep.xs.size(); ++i) {
    t.beginRow();
    t.add(perSecond(sweep.xs[i]));
    for (const Cell& cell : rows[i]) {
      if (cell.run.saturated) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.0f*", cell.run.mean_delay_us);
        t.addText(buf);
      } else {
        t.add(cell.run.mean_delay_us);
      }
    }
  }
  t.print();

  // Affinity benefit with and without the bus, near the no-affinity knee.
  FigureDef probe = delayVsRate(flags.params(), {0.036}, series);
  probe.base_seed = true;
  const std::vector<Cell> cells = runTable(probe, model, runner)[0];
  const auto reduction = [&](std::size_t bus) {
    return reductionPercent(cells[bus].run.mean_delay_us, cells[2 + bus].run.mean_delay_us);
  };
  std::printf("\n# affinity reduction at %.0f pkts/s: %.1f%% without bus, %.1f%% with bus\n",
              perSecond(probe.xs[0]), reduction(0), reduction(1));
  return 0;
}
