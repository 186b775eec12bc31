// Figure 9 [reconstructed]: the paradigms head to head — best Locking policy
// vs best IPS policy: delay across the rate sweep, plus maximum throughput
// capacity under a delay bound. Expected shape (abstract): IPS delivers much
// lower message latency and significantly higher message throughput
// capacity.
#include <cstdio>

#include "bench/common.hpp"

using namespace affinity;
using namespace affinity::bench;

int main(int argc, char** argv) {
  Cli cli("fig09_locking_vs_ips", "Locking-best vs IPS-best: delay and capacity");
  const auto flags = CommonFlags::declare(cli);
  const double& bound =
      cli.flag<double>("delay-bound", kFig09DelayBoundUs, "capacity delay bound (us)");
  cli.parse(argc, argv);

  const auto model = ExecTimeModel::standard();
  const SweepRunner runner = flags.runner();
  const FigureDef fig = fig09Delay(flags.params());
  std::printf("# Figure 9 — Locking/MRU vs IPS/Wired, %d procs, %d streams\n", flags.procs,
              flags.streams);
  TableWriter t({"rate_pkts_per_s", "Locking_MRU", "IPS_Wired"}, flags.csv, 1);
  addDelayRows(t, fig, runTable(fig, model, runner), 1e6);
  t.print();

  const FigureDef capacity = fig09Capacity(flags.params(), bound);
  const std::vector<Cell> caps = runTable(capacity, model, runner)[0];
  std::printf("\n# maximum throughput capacity (mean delay <= %.0f us)\n", bound);
  TableWriter cap({"paradigm", "capacity_pkts_per_s", "mean_delay_at_cap_us"}, flags.csv, 1);
  for (std::size_t k = 0; k < caps.size(); ++k) {
    cap.beginRow();
    cap.addText(capacity.series[k].name);
    cap.add(perSecond(caps[k].max_rate_per_us));
    cap.add(caps[k].run.mean_delay_us);
  }
  cap.print();
  return 0;
}
