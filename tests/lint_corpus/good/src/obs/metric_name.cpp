// afflint-corpus-rule: metric-name
#include "obs/metrics.hpp"

void exportStats(affinity::obs::MetricsRegistry& reg, const std::string& prefix,
                 const affinity::Histogram& h) {
  reg.counter("engine.rx.batches").inc();             // anchored, known domain
  reg.gauge("sweep.points_completed").set(1.0);
  reg.meanStat("sim.proc.busy_frac").add(0.5);
  reg.mergeHistogram("chaos.fault_gap_us", h);
  reg.counter(prefix + ".dropped.checksum").inc();    // fragment: domain comes from prefix
  reg.gauge(prefix + ".").set(3.0);                   // pure separator fragment
}
