// Figure 7 [reconstructed axes]: marginal contributions of the individual
// affinity policies under Locking — adds StreamMRU (MRU plus stream-to-
// processor affinity) between plain MRU and Wired-Streams, at two stream
// populations. Shows how much of the benefit comes from thread/processor
// affinity (code + shared data) vs stream wiring (per-stream state).
#include <cstdio>

#include "bench/common.hpp"

using namespace affinity;
using namespace affinity::bench;

int main(int argc, char** argv) {
  Cli cli("fig07_locking_marginal", "Locking: marginal contribution of each affinity policy");
  const auto flags = CommonFlags::declare(cli);
  const int& streams_hi = cli.flag<int>("streams-hi", 64, "large stream population");
  cli.parse(argc, argv);

  for (int nstreams : {flags.streams, streams_hi}) {
    FigureParams params = flags.params();
    params.streams = nstreams;
    const FigureDef fig = fig07LockingMarginal(params);
    std::printf("# Figure 7 — Locking, %d procs, %d streams\n", flags.procs, nstreams);
    TableWriter t({"rate_pkts_per_s", "FCFS", "MRU", "StreamMRU", "WiredStreams"}, flags.csv, 1);
    addDelayRows(t, fig, runTable(fig, ExecTimeModel::standard(), flags.runner()), 1e6);
    t.print();
    std::printf("\n");
  }
  return 0;
}
