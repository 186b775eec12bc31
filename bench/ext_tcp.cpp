// TCP applicability (paper §6): "our results are likely to hold directly
// for TCP" — TCP-specific processing is at most ~15% of packet time and the
// overhead breakdown matches UDP's. This bench reruns the headline policy
// comparison with the TCP receive-path parameters (and a slightly
// stream-state-heavier footprint: the TCP PCB is large) and checks the
// orderings persist.
#include <cstdio>

#include "bench/common.hpp"

using namespace affinity;
using namespace affinity::bench;

int main(int argc, char** argv) {
  Cli cli("ext_tcp", "the policy comparison under TCP/IP/FDDI receive parameters");
  const auto flags = CommonFlags::declare(cli);
  cli.parse(argc, argv);

  const ExecTimeModel model(FlushModel(MachineParams::sgiChallenge(), SstParams::mvsWorkload()),
                            ReloadParams::measuredTcpReceive(),
                            FootprintShares::measuredTcpReceive());
  FigureDef def = delayVsRate(
      flags.params(), rateSweep(flags.fast),
      {locking("FCFS", LockingPolicy::kFcfs), locking("MRU", LockingPolicy::kMru),
       locking("StreamMRU", LockingPolicy::kStreamMru), ips("IPS_Wired", IpsPolicy::kWired)});
  def.base_seed = true;

  std::printf("# TCP receive path — t_warm=%.1f t_cold=%.1f (UDP: 135.7/284.3)\n", model.tWarm(),
              model.tCold());
  TableWriter t({"rate_pkts_per_s", "FCFS", "MRU", "StreamMRU", "IPS_Wired"}, flags.csv, 1);
  addDelayRows(t, def, runTable(def, model, flags.runner()), 1e6);
  t.print();
  return 0;
}
