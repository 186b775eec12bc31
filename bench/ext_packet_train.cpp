// Extension (ii): burstiness and source locality via the Packet-Train model
// of Jain & Routhier [9] — trains of back-to-back packets per stream. Sweeps
// the mean train length at fixed packet rate. Trains reward affinity (the
// cars of a train reuse the warm stream state) but punish IPS at long trains
// (a whole train serializes on one stack).
#include <cstdio>

#include "bench/common.hpp"

using namespace affinity;
using namespace affinity::bench;

int main(int argc, char** argv) {
  Cli cli("ext_packet_train", "packet-train workload: delay vs mean train length");
  const auto flags = CommonFlags::declare(cli);
  const double& rate = cli.flag<double>("rate", 0.012, "aggregate packet rate (pkts/us)");
  const double& gap = cli.flag<double>("intercar-gap", 30.0, "gap between cars (us)");
  cli.parse(argc, argv);

  FigureDef def;
  def.xs = flags.fast ? std::vector<double>{1, 8} : std::vector<double>{1, 2, 4, 8, 12, 16};
  def.base_seed = true;
  def.config = [p = flags.params()](double) { return p.makeConfig(); };
  def.workload = [n = static_cast<std::size_t>(flags.streams), rate, gap](double len) {
    return makeTrainStreams(n, rate, len, gap);
  };
  def.series = {locking("FCFS", LockingPolicy::kFcfs), locking("MRU", LockingPolicy::kMru),
                locking("StreamMRU", LockingPolicy::kStreamMru),
                ips("IPS_Wired", IpsPolicy::kWired)};

  std::printf("# Extension ii — packet trains, rate %.0f pkts/s, intercar gap %.0f us\n",
              perSecond(rate), gap);
  TableWriter t({"train_len", "FCFS", "MRU", "StreamMRU", "IPS_Wired"}, flags.csv, 1);
  addDelayRows(t, def, runTable(def, ExecTimeModel::standard(), flags.runner()));
  t.print();
  return 0;
}
