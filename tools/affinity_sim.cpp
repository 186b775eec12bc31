// affinity_sim — run one configured experiment from a scenario file.
//
//   $ ./affinity_sim --config scenarios/paper_fig06_point.ini [--csv]
//   $ ./affinity_sim --config ... --trace-out trace.json   # open in Perfetto
//
// See src/core/scenario.hpp for the schema and scenarios/ for examples.
// --metrics-out/--trace-out export the run's metrics registry and a
// virtual-time Chrome trace (one track per simulated processor). The
// registry holds the statistics the run itself computed, so its
// sim.delay_us quantiles are the p50/p95/p99 this tool prints (a
// run.confident scenario that doubles its window publishes every attempt).
#include <cstdio>
#include <memory>

#include "core/scenario.hpp"
#include "core/experiment.hpp"
#include "core/parallel_sim.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace affinity;

int main(int argc, char** argv) {
  Cli cli("affinity_sim", "run a scenario file through the protocol-processing simulator");
  const std::string& path = cli.flag<std::string>("config", "", "scenario file (required)");
  const bool& csv = cli.flag<bool>("csv", false, "emit CSV");
  const std::string& metrics_out =
      cli.flag<std::string>("metrics-out", "", "write a metrics-registry JSON snapshot here");
  const std::string& trace_out = cli.flag<std::string>(
      "trace-out", "", "write a virtual-time Chrome trace_event JSON file here");
  cli.parse(argc, argv);
  if (path.empty()) {
    std::fprintf(stderr, "affinity_sim: --config is required\n");
    return 2;
  }

  std::string error;
  const auto cfg = ConfigFile::load(path, &error);
  if (!cfg) {
    std::fprintf(stderr, "affinity_sim: %s\n", error.c_str());
    return 1;
  }
  auto scenario = buildScenario(*cfg, &error);
  if (!scenario) {
    std::fprintf(stderr, "affinity_sim: %s\n", error.c_str());
    return 1;
  }

  obs::MetricsRegistry registry;
  std::unique_ptr<obs::TraceSession> trace;
  if (!metrics_out.empty()) scenario->config.metrics = &registry;
  if (!trace_out.empty()) {
    trace = std::make_unique<obs::TraceSession>();
    scenario->config.trace = trace.get();
  }

  std::printf("# %s — %s, %u procs, %zu streams, %.0f pkts/s offered\n", path.c_str(),
              scenario->config.policy.describe().c_str(), scenario->config.num_procs,
              scenario->streams.count(), scenario->streams.totalRatePerUs() * 1e6);

  // run.parallel scenarios go through runParallel directly so the tool can
  // report how the run executed (sim.parallel.* gauges + a banner line);
  // results are bit-identical either way (docs/PARALLEL_SIM.md).
  ParallelRunInfo pinfo;
  const bool want_parallel =
      scenario->config.parallel_procs > 1 && !scenario->run_until_confident;
  const RunMetrics m =
      scenario->run_until_confident
          ? runUntilConfident(scenario->config, scenario->model, scenario->streams)
      : want_parallel
          ? runParallel(scenario->config, scenario->model, scenario->streams, &pinfo)
          : runOnce(scenario->config, scenario->model, scenario->streams);
  if (want_parallel) {
    if (!metrics_out.empty()) exportParallelRunInfo(pinfo, registry);
    if (pinfo.parallel)
      std::printf("# parallel: %u shards\n", pinfo.shards);
    else
      std::printf("# parallel requested but ran serial: %s\n",
                  pinfo.fallback_reason != nullptr ? pinfo.fallback_reason : "ineligible");
  }

  if (!metrics_out.empty() && !registry.writeJson(metrics_out))
    std::fprintf(stderr, "warning: could not write --metrics-out %s\n", metrics_out.c_str());
  if (trace != nullptr && !trace->writeChromeTrace(trace_out))
    std::fprintf(stderr, "warning: could not write --trace-out %s\n", trace_out.c_str());

  TableWriter t({"metric", "value"}, csv, 3);
  const auto row = [&t](const char* name, double v) {
    t.beginRow();
    t.addText(name);
    t.add(v);
  };
  row("mean_delay_us", m.mean_delay_us);
  row("ci95_halfwidth_us", m.ci95_delay_us);
  row("p50_delay_us", m.p50_delay_us);
  row("p95_delay_us", m.p95_delay_us);
  row("p99_delay_us", m.p99_delay_us);
  row("mean_service_us", m.mean_service_us);
  row("mean_lock_wait_us", m.mean_lock_wait_us);
  row("throughput_pkts_per_s", m.throughput_per_us * 1e6);
  row("utilization", m.utilization);
  row("mean_queue_len", m.mean_queue_len);
  row("completed", static_cast<double>(m.completed));
  row("saturated", m.saturated ? 1.0 : 0.0);
  if (m.reclassifications > 0)
    row("reclassifications", static_cast<double>(m.reclassifications));
  t.print();

  if (scenario->config.per_stream_stats) {
    std::printf("\n# per-stream mean delay (us)\n");
    TableWriter ps({"stream", "mean_delay_us"}, csv, 1);
    for (std::size_t s = 0; s < m.per_stream_mean_delay_us.size(); ++s)
      ps.addRow({static_cast<double>(s), m.per_stream_mean_delay_us[s]});
    ps.print();
  }
  return m.saturated ? 3 : 0;
}
