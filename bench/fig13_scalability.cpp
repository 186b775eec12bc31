// Intra-stream scalability (abstract / §5): the maximum sustainable
// throughput of a SINGLE stream as processors are added. Expected shape:
// Locking scales with N (any processor can take the next packet); IPS is
// capped near one processor's service rate regardless of N.
#include <algorithm>
#include <cstdio>

#include "bench/common.hpp"

using namespace affinity;
using namespace affinity::bench;

int main(int argc, char** argv) {
  Cli cli("fig13_scalability", "single-stream max throughput vs processor count");
  const auto flags = CommonFlags::declare(cli);
  const double& bound =
      cli.flag<double>("delay-bound", kFig13DelayBoundUs, "capacity delay bound (us)");
  cli.parse(argc, argv);

  const FigureDef fig = fig13Scalability(flags.params(), bound);
  std::printf("# Intra-stream scalability — one stream, capacity under %.0f us mean delay\n",
              bound);
  TableWriter t({"procs", "Locking_MRU_pkts_per_s", "IPS_Wired_pkts_per_s", "speedup_ratio"},
                flags.csv, 1);
  const auto rows = runTable(fig, ExecTimeModel::standard(), flags.runner());
  for (std::size_t i = 0; i < fig.xs.size(); ++i) {
    const double locking = rows[i][0].max_rate_per_us;
    const double ips = rows[i][1].max_rate_per_us;
    t.addRow({fig.xs[i], perSecond(locking), perSecond(ips), locking / std::max(ips, 1e-9)});
  }
  t.print();
  return 0;
}
