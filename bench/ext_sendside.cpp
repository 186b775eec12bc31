// Extension (i): send-side UDP/IP/FDDI processing — the same policy
// comparison with the send path's measured reload parameters (cheaper warm
// path, smaller data footprint). The affinity conclusions should carry over.
#include <cstdio>

#include "bench/common.hpp"

using namespace affinity;
using namespace affinity::bench;

int main(int argc, char** argv) {
  Cli cli("ext_sendside", "send-side processing: Locking policies and IPS");
  const auto flags = CommonFlags::declare(cli);
  cli.parse(argc, argv);

  const ExecTimeModel model(FlushModel(MachineParams::sgiChallenge(), SstParams::mvsWorkload()),
                            ReloadParams::measuredUdpSend(), FootprintShares::measuredUdpSend());
  FigureDef def = delayVsRate(
      flags.params(), rateSweep(flags.fast),
      {locking("FCFS", LockingPolicy::kFcfs), locking("MRU", LockingPolicy::kMru),
       locking("WiredStreams", LockingPolicy::kWiredStreams), ips("IPS_Wired", IpsPolicy::kWired)});
  def.base_seed = true;

  std::printf("# Extension i — send-side UDP/IP/FDDI (t_warm=%.0f, t_cold=%.0f)\n", model.tWarm(),
              model.tCold());
  TableWriter t({"rate_pkts_per_s", "FCFS", "MRU", "WiredStreams", "IPS_Wired"}, flags.csv, 1);
  addDelayRows(t, def, runTable(def, model, flags.runner()), 1e6);
  t.print();
  return 0;
}
