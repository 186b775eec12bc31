// Figure 8 [reconstructed]: affinity scheduling under IPS — mean packet
// delay vs arrival rate for Random (no affinity), MRU, and Wired stack
// placement. Expected shape (paper §5): wiring stacks to processors wins —
// except at low arrival rate, where MRU wins (concentrating the stacks keeps
// the shared protocol code warm).
#include <cstdio>

#include "bench/common.hpp"

using namespace affinity;
using namespace affinity::bench;

int main(int argc, char** argv) {
  Cli cli("fig08_ips_delay", "IPS: mean packet delay vs arrival rate, by stack policy");
  const auto flags = CommonFlags::declare(cli);
  cli.parse(argc, argv);

  const FigureDef fig = fig08IpsDelay(flags.params());
  std::printf("# Figure 8 — IPS, %d procs (one stack per proc), %d streams\n", flags.procs,
              flags.streams);
  TableWriter t({"rate_pkts_per_s", "Random", "MRU", "Wired"}, flags.csv, 1);
  const auto rows = runTable(fig, ExecTimeModel::standard(), flags.runner());
  for (std::size_t i = 0; i < fig.xs.size(); ++i) {
    t.beginRow();
    t.add(perSecond(fig.xs[i]));
    addDelays(t, rows[i]);
  }
  t.print();
  return 0;
}
