// Ablation: the per-level footprint decomposition is load-bearing
// (DESIGN.md §2). This bench sweeps the code share of the L2 transient —
// holding totals fixed — and shows the IPS low-rate policy crossover
// (MRU vs Wired) appear as code becomes the dominant L2 component, and the
// high-rate stream-affinity benefit under Locking shrink as the stream
// share is diluted.
#include <array>
#include <cstdio>

#include "bench/common.hpp"

using namespace affinity;
using namespace affinity::bench;

namespace {

ExecTimeModel modelWithL2CodeShare(double l2_code) {
  FootprintShares s;  // L1 shares stay at the defaults
  s.l2_code = l2_code;
  const double rest = 1.0 - l2_code;
  s.l2_shared = rest * (0.15 / 0.35);
  s.l2_stream = rest * (0.20 / 0.35);
  return ExecTimeModel(FlushModel(MachineParams::sgiChallenge(), SstParams::mvsWorkload()),
                       ReloadParams::measuredUdpReceive(), s);
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("ext_ablation_shares", "sensitivity of the policy crossovers to the L2 code share");
  const auto flags = CommonFlags::declare(cli);
  const double& low_rate = cli.flag<double>("low-rate", 0.0005, "low-rate probe (pkts/us)");
  const double& high_rate = cli.flag<double>("high-rate", 0.035, "high-rate probe (pkts/us)");
  cli.parse(argc, argv);

  // One row per probe (x is its index): IPS at the low rate, Locking at the
  // high rate. Each series sets both paradigms' placement; a row runs the
  // one its paradigm reads.
  const std::array<double, 2> rates{low_rate, high_rate};
  FigureDef def;
  def.xs = {0, 1};
  def.base_seed = true;
  def.config = [p = flags.params(), rates](double probe) {
    SimConfig c = p.makeConfigFor(rates[static_cast<std::size_t>(probe)]);
    c.policy.paradigm = probe == 0 ? Paradigm::kIps : Paradigm::kLocking;
    return c;
  };
  def.workload = [f = poisson(flags.streams), rates](double probe) {
    return f(rates[static_cast<std::size_t>(probe)]);
  };
  def.series = {{"Wired/FCFS",
                 [](SimConfig& c) {
                   c.policy.ips = IpsPolicy::kWired;
                   c.policy.locking = LockingPolicy::kFcfs;
                 }},
                {"MRU/StreamMRU", [](SimConfig& c) {
                   c.policy.ips = IpsPolicy::kMru;
                   c.policy.locking = LockingPolicy::kStreamMru;
                 }}};

  std::printf(
      "# Ablation — L2 transient share of the shared code; L1 shares fixed.\n"
      "# ips_mru_adv: IPS Wired-vs-MRU delay gap at %.0f pkts/s (positive = MRU wins,\n"
      "#              the paper's low-rate finding; needs a code-heavy L2 share).\n"
      "# lock_aff_red: %% delay reduction of StreamMRU vs FCFS at %.0f pkts/s.\n",
      perSecond(low_rate), perSecond(high_rate));
  TableWriter t({"l2_code_share", "ips_mru_adv_us", "lock_aff_red_pct"}, flags.csv, 2);
  const SweepRunner runner = flags.runner();
  for (double share : flags.fast ? std::vector<double>{0.2, 0.65}
                                 : std::vector<double>{0.1, 0.3, 0.5, 0.65, 0.8}) {
    const auto rows = runTable(def, modelWithL2CodeShare(share), runner);
    const auto delay = [&](std::size_t probe, std::size_t series) {
      return rows[probe][series].run.mean_delay_us;
    };
    t.addRow({share, delay(0, 0) - delay(0, 1), reductionPercent(delay(1, 0), delay(1, 1))});
  }
  t.print();
  return 0;
}
