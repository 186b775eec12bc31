// Figure 10: percentage reduction in mean packet delay achieved by affinity
// scheduling under Locking (the StreamMRU affinity bundle vs FCFS), as a
// function of arrival rate, for several values of the fixed per-packet
// data-touching overhead V. The paper: "the upper bound on the reduction
// (as given by the V=0 curves) is around 40-50%"; checksumming the largest
// FDDI packet costs V = 139 µs.
#include <cstdio>

#include "bench/common.hpp"

using namespace affinity;
using namespace affinity::bench;

int main(int argc, char** argv) {
  Cli cli("fig10_reduction_locking", "Locking: % delay reduction from affinity vs rate and V");
  const auto flags = CommonFlags::declare(cli);
  cli.parse(argc, argv);

  const FigureDef fig = fig10ReductionLocking(flags.params());
  std::printf(
      "# Figure 10 — Locking: affinity bundle (StreamMRU) vs FCFS, %d procs, %d streams\n"
      "# entries are %% reduction in mean delay; '>' = baseline saturated (lower bound);\n"
      "# 'sat' = both saturated\n",
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
