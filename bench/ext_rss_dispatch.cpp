// Beyond the paper: NIC dispatch modes (RSS / Flow Director) and
// affinity-aware work stealing against the paper's own baselines.
//
// Table 1 re-runs the Figure 9 crossover (mean delay vs rate, Locking-MRU
// vs IPS-Wired) with the wired-family Locking scheduler behind each NIC
// dispatch mode, with and without stealing. Expected shape: direct and RSS
// differ only through queue-assignment balance (both are stateless maps);
// steal-affinity tracks plain wired at low load (stealing rarely engages
// below the min-queue threshold) and undercuts it as bursts build.
//
// Table 2 sits at the Figure 12 high-burstiness point (batch arrivals at a
// fixed aggregate rate) and is the load-imbalance story: an IPS stack
// serializes each burst, wired-no-steal strands bursts on their home
// processor, and steal-affinity spreads them while the bounded batch +
// per-steal penalty keep the migrated footprint — and thus the warm
// fraction sim.affinity.* — close to IPS's. The acceptance bar from the
// tracking issue: steal-affinity throughput >= IPS at this point with the
// L2 warm fraction within 10% of IPS's, steals visible via sched.steal.*.
//
// The transport-friendly (TFN) columns ride both tables: TFN seeds
// placement exactly like RSS and only moves a pin on consumer feedback
// once the old home has drained, so its delay curve must shadow RSS's and
// its per-core load spread (max-min per-proc busy fraction) must stay
// within 10 points of RSS's across the Figure 9 grid — the second smoke
// bar asserted below.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "obs/metrics.hpp"

using namespace affinity;
using namespace affinity::bench;

namespace {

struct PolicyPoint {
  const char* name;
  Paradigm paradigm;
  LockingPolicy locking;
  IpsPolicy ips;
  net::NicDispatchMode dispatch;
};

/// The burst-point series: paper baselines first, then the new machinery.
const PolicyPoint kBurstPolicies[] = {
    {"IPS_Wired", Paradigm::kIps, LockingPolicy::kFcfs, IpsPolicy::kWired,
     net::NicDispatchMode::kDirect},
    {"Wired_NoSteal", Paradigm::kLocking, LockingPolicy::kWiredStreams, IpsPolicy::kWired,
     net::NicDispatchMode::kDirect},
    {"Steal_direct", Paradigm::kLocking, LockingPolicy::kStealAffinity, IpsPolicy::kWired,
     net::NicDispatchMode::kDirect},
    {"Steal_rss", Paradigm::kLocking, LockingPolicy::kStealAffinity, IpsPolicy::kWired,
     net::NicDispatchMode::kRss},
    {"Steal_fdir", Paradigm::kLocking, LockingPolicy::kStealAffinity, IpsPolicy::kWired,
     net::NicDispatchMode::kFlowDirector},
    {"Steal_tfn", Paradigm::kLocking, LockingPolicy::kStealAffinity, IpsPolicy::kWired,
     net::NicDispatchMode::kTransportFriendly},
};

struct BurstRow {
  double throughput, delay, warm_l2;
  double steals, stolen, migrations;
};

}  // namespace

int main(int argc, char** argv) {
  Cli cli("ext_rss_dispatch",
          "NIC dispatch modes + steal-affinity vs the Figure 9/12 baselines");
  const auto flags = CommonFlags::declare(cli);
  const double& rate = cli.flag<double>("rate", 0.012, "burst-point aggregate rate (pkts/us)");
  const double& batch = cli.flag<double>("batch", 24.0, "burst-point intra-stream batch size");
  cli.parse(argc, argv);

  const auto model = ExecTimeModel::standard();
  const SweepRunner runner = flags.runner();
  const FigureParams params = flags.params();
  const auto base = [&](Paradigm paradigm, LockingPolicy locking,
                        net::NicDispatchMode dispatch) {
    SimConfig c = params.makeConfig();
    c.policy.paradigm = paradigm;
    c.policy.locking = locking;
    c.policy.ips = IpsPolicy::kWired;
    c.dispatch = dispatch;
    return c;
  };

  // --- Table 1: the Figure 9 crossover behind each dispatch mode ----------
  std::printf("# Fig. 9 crossover behind the NIC front-end — %d procs, %d streams, Poisson\n",
              flags.procs, flags.streams);
  TableWriter sweep_table({"rate_pkts_s", "Locking_MRU", "IPS_Wired", "Wired_direct",
                           "Wired_rss", "Steal_direct", "Steal_rss", "Steal_tfn"},
                          flags.csv, 2);
  const std::vector<double> rates = rateSweep(flags.fast);
  struct SweepRow {
    double mru, ips, wired_direct, wired_rss, steal_direct, steal_rss, steal_tfn;
    double spread_rss, spread_tfn;  // max-min per-proc busy fraction
  };
  const auto sweep_rows = runner.map(rates.size(), [&](std::size_t i) {
    const auto streams =
        makePoissonStreams(static_cast<std::size_t>(flags.streams), rates[i]);
    const auto run = [&](SimConfig c) {
      c.seed = derivePointSeed(flags.seed, i);
      setAutoWindow(c, rates[i], flags.fast ? 15'000 : 80'000);
      return runOnce(c, model, streams).mean_delay_us;
    };
    // The two steal columns that feed the load-spread bar also harvest the
    // per-proc busy fractions from a private registry.
    const auto runSpread = [&](SimConfig c, double* spread) {
      c.seed = derivePointSeed(flags.seed, i);
      setAutoWindow(c, rates[i], flags.fast ? 15'000 : 80'000);
      obs::MetricsRegistry reg;
      c.metrics = &reg;
      const double delay = runOnce(c, model, streams).mean_delay_us;
      double lo = 1.0, hi = 0.0;
      for (std::uint32_t p = 0; p < c.num_procs; ++p) {
        const double busy = reg.meanStat("sim.proc." + std::to_string(p) + ".busy_frac").mean();
        lo = std::min(lo, busy);
        hi = std::max(hi, busy);
      }
      *spread = hi - lo;
      return delay;
    };
    SimConfig mru = base(Paradigm::kLocking, LockingPolicy::kMru, net::NicDispatchMode::kDirect);
    SweepRow row{};
    row.mru = run(mru);
    row.ips = run(base(Paradigm::kIps, LockingPolicy::kFcfs, net::NicDispatchMode::kDirect));
    row.wired_direct =
        run(base(Paradigm::kLocking, LockingPolicy::kWiredStreams, net::NicDispatchMode::kDirect));
    row.wired_rss =
        run(base(Paradigm::kLocking, LockingPolicy::kWiredStreams, net::NicDispatchMode::kRss));
    row.steal_direct =
        run(base(Paradigm::kLocking, LockingPolicy::kStealAffinity, net::NicDispatchMode::kDirect));
    row.steal_rss =
        runSpread(base(Paradigm::kLocking, LockingPolicy::kStealAffinity, net::NicDispatchMode::kRss),
                  &row.spread_rss);
    row.steal_tfn = runSpread(
        base(Paradigm::kLocking, LockingPolicy::kStealAffinity, net::NicDispatchMode::kTransportFriendly),
        &row.spread_tfn);
    return row;
  });
  for (std::size_t i = 0; i < rates.size(); ++i)
    sweep_table.addRow({perSecond(rates[i]), sweep_rows[i].mru, sweep_rows[i].ips,
                        sweep_rows[i].wired_direct, sweep_rows[i].wired_rss,
                        sweep_rows[i].steal_direct, sweep_rows[i].steal_rss,
                        sweep_rows[i].steal_tfn});
  sweep_table.print();

  // Worst TFN-vs-RSS load-spread delta across the grid: consumer-driven
  // repins must not unbalance the queues relative to the stateless hash.
  double worst_spread_delta = 0.0;
  double worst_spread_rate = rates.empty() ? 0.0 : rates[0];
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const double delta = sweep_rows[i].spread_tfn - sweep_rows[i].spread_rss;
    if (delta > worst_spread_delta) {
      worst_spread_delta = delta;
      worst_spread_rate = rates[i];
    }
  }
  std::printf(
      "# tfn vs rss per-core load spread: worst delta %.3f (at %.0f pkts/s); bar 0.100\n",
      worst_spread_delta, perSecond(worst_spread_rate));

  // --- Table 2: the Figure 12 high-burstiness point -----------------------
  std::printf("\n# Burst point — batch %.0f at %.0f pkts/s aggregate (Fig. 12 regime)\n",
              batch, perSecond(rate));
  TableWriter burst_table({"policy", "throughput_per_us", "mean_delay_us", "warm_l2",
                           "steals", "stolen_jobs", "migrations"},
                          flags.csv, 4);
  const std::size_t n_policies = std::size(kBurstPolicies);
  const auto burst_rows = runner.map(n_policies, [&](std::size_t i) {
    const PolicyPoint& p = kBurstPolicies[i];
    const auto streams = makeBatchStreams(static_cast<std::size_t>(flags.streams), rate,
                                          batch, /*geometric=*/false);
    SimConfig c = base(p.paradigm, p.locking, p.dispatch);
    c.policy.ips = p.ips;
    // Every policy runs the same seed: identical arrival sequences, so the
    // burst-point rows differ only through scheduling.
    c.seed = derivePointSeed(flags.seed, 0);
    // A private registry per run: the warm fractions and steal counters
    // below must be this run's, not the table's aggregate.
    obs::MetricsRegistry reg;
    c.metrics = &reg;
    const RunMetrics m = runOnce(c, model, streams);
    return BurstRow{m.throughput_per_us,
                    m.mean_delay_us,
                    reg.meanStat("sim.affinity.l2_warm_fraction").mean(),
                    static_cast<double>(reg.counter("sim.sched.steal.count").value()),
                    static_cast<double>(reg.counter("sim.sched.steal.jobs").value()),
                    static_cast<double>(m.flow_migrations)};
  });
  for (std::size_t i = 0; i < n_policies; ++i) {
    burst_table.beginRow();
    burst_table.addText(kBurstPolicies[i].name);
    burst_table.add(burst_rows[i].throughput);
    burst_table.add(burst_rows[i].delay);
    burst_table.add(burst_rows[i].warm_l2);
    burst_table.add(burst_rows[i].steals);
    burst_table.add(burst_rows[i].stolen);
    burst_table.add(burst_rows[i].migrations);
  }
  burst_table.print();

  const BurstRow& ips = burst_rows[0];
  const BurstRow& steal = burst_rows[2];  // Steal_direct
  const double gap_pct = 100.0 * (ips.warm_l2 - steal.warm_l2) / ips.warm_l2;
  std::printf(
      "# steal-affinity vs IPS @ batch %.0f: throughput x%.3f, "
      "L2 warm fraction %.3f vs %.3f (gap %.1f%%)\n",
      batch, steal.throughput / ips.throughput, steal.warm_l2, ips.warm_l2, gap_pct);

  // The tracking-issue bar from the header comment, now asserted instead of
  // just printed: steal-affinity matches IPS throughput at the burst point
  // and keeps the L2 warm fraction within 10% of IPS's. The --fast window
  // is ~5x shorter, so the smoke run widens both tolerances rather than
  // flaking on sampling noise (EXPERIMENTS.md, bench status lines).
  // A second bar rides the Figure 9 grid: the transport-friendly front-end
  // may only repin on consumer feedback, so its per-core load spread must
  // stay within 10 points of the stateless RSS hash at every rate.
  const double min_tp_ratio = flags.fast ? 0.99 : 0.999;
  const double max_gap_pct = flags.fast ? 15.0 : 10.0;
  const double max_spread_delta = 0.10;
  char detail[200];
  std::snprintf(detail, sizeof detail,
                "steal/IPS throughput x%.3f, warm-L2 gap %.1f%%, tfn-rss spread delta %.3f (%s bar)",
                steal.throughput / ips.throughput, gap_pct, worst_spread_delta,
                flags.fast ? "fast" : "full");
  return smokeStatus("ext_rss_dispatch",
                     steal.throughput >= ips.throughput * min_tp_ratio &&
                         gap_pct <= max_gap_pct && worst_spread_delta <= max_spread_delta,
                     detail);
}
