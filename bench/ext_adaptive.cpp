// Adaptive hybrid: the TR's hybrid policy with automatic stream
// classification. Workload: a population of quiet streams in which some
// turn hot-and-bursty mid-run (video sessions starting). The adaptive
// controller reclassifies streams from windowed arrival statistics; compare
// against pure Locking, pure IPS, and the oracle hybrid that knows the hot
// set in advance.
#include <cstdio>

#include "bench/common.hpp"

using namespace affinity;
using namespace affinity::bench;

namespace {

StreamSet turningHotWorkload(std::size_t hot, std::size_t total, double rate, double hot_share,
                             double batch, double switch_time_us) {
  StreamSet set;
  const std::size_t cold = total - hot;
  const double hot_rate = rate * hot_share / static_cast<double>(hot);
  const double cold_rate = rate * (1.0 - hot_share) / static_cast<double>(cold);
  for (std::size_t i = 0; i < hot; ++i) {
    // Quiet at first, then hot+bursty.
    set.streams.push_back(std::make_unique<PhaseSwitchArrivals>(
        std::make_unique<PoissonArrivals>(cold_rate),
        std::make_unique<BatchPoissonArrivals>(hot_rate, batch, false), switch_time_us));
  }
  for (std::size_t i = 0; i < cold; ++i)
    set.streams.push_back(std::make_unique<PoissonArrivals>(cold_rate));
  return set;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("ext_adaptive", "adaptive hybrid vs pure paradigms on a shifting workload");
  const auto flags = CommonFlags::declare(cli);
  const int& hot = cli.flag<int>("hot", 3, "streams that turn hot mid-run");
  const double& batch = cli.flag<double>("batch", 16.0, "hot-phase batch size");
  const double& hot_share = cli.flag<double>("hot-share", 0.5, "hot streams' rate share");
  cli.parse(argc, argv);

  const FigureParams p = flags.params();
  FigureDef def = delayVsRate(
      p, rateSweep(flags.fast),
      {locking("Locking_MRU", LockingPolicy::kMru), ips("IPS_Wired", IpsPolicy::kWired),
       hybrid("Oracle_Hybrid", hot),
       extend(hybrid("", 0), "Adaptive_Hybrid", [](SimConfig& c) { c.adaptive_hybrid = true; })});
  def.base_seed = true;
  // The hot streams turn midway through each row's warmup.
  def.workload = [p, hot, hot_share, batch](double rate) {
    return turningHotWorkload(static_cast<std::size_t>(hot), static_cast<std::size_t>(p.streams),
                              rate, hot_share, batch, p.makeConfigFor(rate).warmup_us * 0.5);
  };

  std::printf("# Adaptive hybrid — %d of %d streams turn hot (batch %.0f) after warmup\n", hot,
              flags.streams, batch);
  TableWriter t({"rate_pkts_per_s", "Locking_MRU", "IPS_Wired", "Oracle_Hybrid",
                 "Adaptive_Hybrid", "reclassifications"},
                flags.csv, 1);
  const auto rows = runTable(def, ExecTimeModel::standard(), flags.runner());
  for (std::size_t i = 0; i < def.xs.size(); ++i) {
    t.beginRow();
    t.add(perSecond(def.xs[i]));
    addDelays(t, rows[i]);
    t.add(static_cast<double>(rows[i].back().run.reclassifications));
  }
  t.print();
  return 0;
}
