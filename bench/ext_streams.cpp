// Stream-population sweep: mean delay vs the number of concurrent streams at
// a fixed aggregate rate. More streams dilute per-stream warmth (each
// stream's state is referenced more rarely and competes for cache), so
// stream-affinity policies lose their edge gradually while the no-affinity
// baseline is flat-to-worse throughout — the "supporting many concurrent
// streams" axis of the abstract.
#include <cstdio>

#include "bench/common.hpp"

using namespace affinity;
using namespace affinity::bench;

int main(int argc, char** argv) {
  Cli cli("ext_streams", "delay vs number of concurrent streams at fixed rate");
  const auto flags = CommonFlags::declare(cli);
  const double& rate = cli.flag<double>("rate", 0.02, "aggregate packet rate (pkts/us)");
  cli.parse(argc, argv);

  FigureDef def;
  def.xs = flags.fast ? std::vector<double>{8, 64} : std::vector<double>{4, 8, 16, 32, 64, 128};
  def.base_seed = true;
  def.config = [p = flags.params(), rate](double) { return p.makeConfigFor(rate); };
  def.workload = [rate](double streams) {
    return makePoissonStreams(static_cast<std::size_t>(streams), rate);
  };
  def.series = {locking("FCFS", LockingPolicy::kFcfs), locking("MRU", LockingPolicy::kMru),
                locking("StreamMRU", LockingPolicy::kStreamMru),
                ips("IPS_Wired", IpsPolicy::kWired)};

  std::printf("# stream population sweep — rate %.0f pkts/s, %d procs\n", perSecond(rate),
              flags.procs);
  TableWriter t({"streams", "FCFS", "MRU", "StreamMRU", "IPS_Wired"}, flags.csv, 1);
  addDelayRows(t, def, runTable(def, ExecTimeModel::standard(), flags.runner()));
  t.print();
  return 0;
}
