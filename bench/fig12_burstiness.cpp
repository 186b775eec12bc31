// Intra-stream burstiness (abstract / §5): mean packet delay vs intra-stream
// batch size at a fixed aggregate packet rate. Expected shape: IPS
// serializes each burst on one stack, so its delay grows steeply with batch
// size; Locking spreads a burst over processors and absorbs it.
#include <cstdio>

#include "bench/common.hpp"

using namespace affinity;
using namespace affinity::bench;

int main(int argc, char** argv) {
  Cli cli("fig12_burstiness", "delay vs intra-stream batch size: Locking vs IPS");
  const auto flags = CommonFlags::declare(cli);
  const double& rate = cli.flag<double>("rate", kFig12RatePerUs, "aggregate packet rate (pkts/us)");
  cli.parse(argc, argv);

  const FigureDef fig = fig12Burstiness(flags.params(), rate);
  std::printf("# Burstiness — fixed rate %.0f pkts/s, %d procs, %d streams; batch arrivals\n",
              perSecond(rate), flags.procs, flags.streams);
  TableWriter t({"batch_size", "Locking_MRU", "IPS_Wired", "IPS_over_Locking"}, flags.csv, 2);
  const auto rows = runTable(fig, ExecTimeModel::standard(), flags.runner());
  for (std::size_t i = 0; i < fig.xs.size(); ++i) {
    const double locking = rows[i][0].run.mean_delay_us;
    const double ips = rows[i][1].run.mean_delay_us;
    t.addRow({fig.xs[i], locking, ips, ips / locking});
  }
  t.print();
  return 0;
}
