// Figure 11: percentage reduction in mean packet delay achieved by affinity
// scheduling under IPS (Wired vs Random stack placement), vs arrival rate,
// for several fixed per-packet overheads V — the IPS counterpart of Fig 10.
#include <cstdio>

#include "bench/common.hpp"

using namespace affinity;
using namespace affinity::bench;

int main(int argc, char** argv) {
  Cli cli("fig11_reduction_ips", "IPS: % delay reduction from affinity vs rate and V");
  const auto flags = CommonFlags::declare(cli);
  cli.parse(argc, argv);

  const FigureDef fig = fig11ReductionIps(flags.params());
  std::printf("# Figure 11 — IPS, Wired vs Random, %d procs, %d streams; entries are %% reduction\n",
              flags.procs, flags.streams);
  TableWriter t({"rate_pkts_per_s", "V=0", "V=35us", "V=70us", "V=139us"}, flags.csv, 1);
  const auto rows = runTable(fig, ExecTimeModel::standard(), flags.runner());
  for (std::size_t i = 0; i < fig.xs.size(); ++i) {
    t.beginRow();
    t.add(perSecond(fig.xs[i]));
    for (std::size_t k = 0; k < rows[i].size(); k += 2)
      addReduction(t, rows[i][k].run, rows[i][k + 1].run);
  }
  t.print();
  return 0;
}
