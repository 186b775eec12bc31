// Hybrid policy (TR UM-CS-1994-075 / conclusions): a per-stream choice —
// hot, bursty streams go through the Locking stack (multi-processor burst
// absorption), the background population through IPS stacks (warm, lockless
// fast path). Workload: a few hot bursty streams over many quiet ones.
// Expected: Hybrid tracks IPS for the quiet streams and Locking for the hot
// ones, beating either pure paradigm on overall mean delay.
#include <cstdio>

#include "bench/common.hpp"

using namespace affinity;
using namespace affinity::bench;

namespace {

StreamSet hotColdBursty(std::size_t hot, std::size_t cold, double rate, double hot_share,
                        double batch) {
  StreamSet set;
  const double hot_rate = rate * hot_share / static_cast<double>(hot);
  const double cold_rate = rate * (1.0 - hot_share) / static_cast<double>(cold);
  for (std::size_t i = 0; i < hot; ++i)
    set.streams.push_back(std::make_unique<BatchPoissonArrivals>(hot_rate, batch, false));
  for (std::size_t i = 0; i < cold; ++i)
    set.streams.push_back(std::make_unique<PoissonArrivals>(cold_rate));
  return set;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("ext_hybrid", "hybrid Locking/IPS per-stream policy on a hot/cold workload");
  const auto flags = CommonFlags::declare(cli);
  const int& hot = cli.flag<int>("hot", 2, "number of hot bursty streams");
  const double& hot_share = cli.flag<double>("hot-share", 0.5, "rate share of hot streams");
  const double& batch = cli.flag<double>("batch", 16.0, "hot-stream batch size");
  cli.parse(argc, argv);

  const std::size_t cold = static_cast<std::size_t>(flags.streams) - hot;
  FigureDef def = delayVsRate(flags.params(), rateSweep(flags.fast),
                              {locking("Locking_MRU", LockingPolicy::kMru),
                               ips("IPS_Wired", IpsPolicy::kWired), hybrid("Hybrid", hot)});
  def.base_seed = true;
  def.workload = [hot = static_cast<std::size_t>(hot), cold, hot_share, batch](double rate) {
    return hotColdBursty(hot, cold, rate, hot_share, batch);
  };

  std::printf("# Hybrid — %d hot bursty streams (batch %.0f, %.0f%% of load) + %zu quiet\n", hot,
              batch, 100 * hot_share, cold);
  TableWriter t({"rate_pkts_per_s", "Locking_MRU", "IPS_Wired", "Hybrid"}, flags.csv, 1);
  addDelayRows(t, def, runTable(def, ExecTimeModel::standard(), flags.runner()), 1e6);
  t.print();
  return 0;
}
