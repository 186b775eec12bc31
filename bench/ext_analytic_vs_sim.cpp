// Analytic model vs simulation (the paper's §3 combines both): compares the
// closed-form predictor's mean delay against the discrete-event simulator
// for the main policies across the arrival-rate sweep, reporting the
// relative error. The predictor is what a capacity planner would use when a
// full simulation is too slow.
#include <cmath>
#include <cstdio>

#include "analytic/predictor.hpp"
#include "bench/common.hpp"

using namespace affinity;
using namespace affinity::bench;

int main(int argc, char** argv) {
  Cli cli("ext_analytic_vs_sim", "closed-form predictor vs discrete-event simulation");
  const auto flags = CommonFlags::declare(cli);
  cli.parse(argc, argv);

  const auto model = ExecTimeModel::standard();
  FigureDef def = delayVsRate(flags.params(), rateSweep(flags.fast),
                              {locking("MRU", LockingPolicy::kMru),
                               ips("IPSWired", IpsPolicy::kWired)});
  def.base_seed = true;

  std::printf("# analytic (A) vs simulated (S) mean delay, us; err = (A-S)/S\n");
  TableWriter t({"rate_pkts_per_s", "MRU_sim", "MRU_ana", "MRU_err%", "IPSWired_sim",
                 "IPSWired_ana", "IPSWired_err%"},
                flags.csv, 1);
  const auto emit = [&t](const RunMetrics& s, const Prediction& a) {
    if (s.saturated || !a.stable) {
      t.addText(s.saturated ? "sat" : "-");
      t.addText(a.stable ? "-" : "unstable");
      t.addText("-");
      return;
    }
    t.add(s.mean_delay_us);
    t.add(a.delay_us);
    t.add(100.0 * (a.delay_us - s.mean_delay_us) / s.mean_delay_us);
  };
  const auto rows = runTable(def, model, flags.runner());
  for (std::size_t i = 0; i < def.xs.size(); ++i) {
    PredictorInput in;
    in.num_procs = static_cast<unsigned>(flags.procs);
    in.num_streams = static_cast<unsigned>(flags.streams);
    in.rate_per_us = def.xs[i];
    in.lock_overhead_us = flags.lock_overhead;
    in.critical_section_us = flags.critical_section;
    t.beginRow();
    t.add(perSecond(def.xs[i]));
    emit(rows[i][0].run, predictLocking(model, LockingPolicy::kMru, in));
    emit(rows[i][1].run, predictIps(model, IpsPolicy::kWired, in));
  }
  t.print();
  return 0;
}
