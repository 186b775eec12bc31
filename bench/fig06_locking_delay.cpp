// Figure 6: affinity scheduling under Locking — mean packet delay vs
// aggregate arrival rate for FCFS (no affinity), MRU, and Wired-Streams.
// Expected shape (paper §5.1): MRU below FCFS everywhere; Wired-Streams
// worse than MRU at low/moderate rate but best at high rate.
#include <cstdio>

#include "bench/common.hpp"

using namespace affinity;
using namespace affinity::bench;

int main(int argc, char** argv) {
  Cli cli("fig06_locking_delay", "Locking: mean packet delay vs arrival rate, by policy");
  const auto flags = CommonFlags::declare(cli);
  cli.parse(argc, argv);

  const FigureDef fig = fig06LockingDelay(flags.params());
  std::printf("# Figure 6 — Locking, %d procs, %d streams; delay in us, saturated marked *\n",
              flags.procs, flags.streams);
  TableWriter t({"rate_pkts_per_s", "FCFS", "MRU", "WiredStreams"}, flags.csv, 1);
  const auto rows = runTable(fig, ExecTimeModel::standard(), flags.runner());
  for (std::size_t i = 0; i < fig.xs.size(); ++i) {
    t.beginRow();
    t.add(perSecond(fig.xs[i]));
    for (const Cell& cell : rows[i]) {
      if (cell.run.saturated) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.1f*", cell.run.mean_delay_us);
        t.addText(buf);
      } else {
        t.add(cell.run.mean_delay_us);
      }
    }
  }
  t.print();
  return 0;
}
