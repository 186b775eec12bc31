// afflint-corpus-expect: metric-name
#include "obs/metrics.hpp"

void exportStats(affinity::obs::MetricsRegistry& reg, const std::string& prefix,
                 const affinity::Histogram& h) {
  reg.counter("CamelCase.batches").inc();          // uppercase characters
  reg.gauge("widget.queue_depth").set(1.0);        // unknown domain
  reg.meanStat("engine..rx_us").add(2.0);          // empty segment
  reg.mergeHistogram("engine._private", h);        // segment starts with '_'
  reg.counter(prefix + ".Batches").inc();          // bad fragment after concat
}
