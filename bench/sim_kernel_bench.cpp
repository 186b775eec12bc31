// sim_kernel_bench — events/sec of the discrete-event kernel, current vs
// the frozen seed kernel (bench/legacy_simulator.hpp), on schedule / cancel
// / run mixes shaped like the protocol simulation's event traffic (the
// workloads themselves live in bench/kernel_workloads.hpp, shared with
// perfbench). Also pins the disabled-tracing guard overhead below
// the 1 % budget from docs/OBSERVABILITY.md. Emits an aligned table on
// stdout and, with --json, a JSON file so the perf trajectory is tracked
// across PRs (scripts/run_perf_smoke.sh writes
// results/BENCH_sim_kernel.json).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "bench/kernel_workloads.hpp"
#include "bench/legacy_simulator.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace affinity;
using namespace affinity::bench;

int main(int argc, char** argv) {
  Cli cli("sim_kernel_bench", "event-kernel events/sec: current vs seed (legacy) kernel");
  const bool& fast = cli.flag<bool>("fast", false, "smaller event counts (CI smoke run)");
  const bool& csv = cli.flag<bool>("csv", false, "emit CSV instead of an aligned table");
  const int& reps = cli.flag<int>("reps", 3, "repetitions per workload (best kept)");
  const std::string& json_path =
      cli.flag<std::string>("json", "", "also write results as JSON to this path");
  const std::string& metrics_out =
      cli.flag<std::string>("metrics-out", "", "write a metrics-registry JSON snapshot here");
  const std::string& trace_out =
      cli.flag<std::string>("trace-out", "", "write a Chrome trace_event JSON file here");
  cli.parse(argc, argv);

  ObsOutput obs;
  obs.open(metrics_out, trace_out);

  const std::uint64_t n = fast ? 300'000 : 3'000'000;
  std::vector<KernelResult> results;
  obs::TraceSession* trace = obs.trace();
  const std::uint32_t bench_track = trace != nullptr ? trace->track("kernel bench") : 0;

  const auto run = [&](const char* name, auto&& new_fn, auto&& legacy_fn) {
    const double t0 = trace != nullptr ? trace->steadyNowUs() : 0.0;
    results.push_back(measureKernelPair(name, reps, new_fn, legacy_fn));
    if (trace != nullptr) trace->span(bench_track, "workload", t0, trace->steadyNowUs());
  };
  run(
      "hold64_schedule_run",
      [&](std::uint64_t s) { return benchHold<Simulator>(n, 64, s); },
      [&](std::uint64_t s) { return benchHold<legacy::Simulator>(n, 64, s); });
  run(
      "hold4096_schedule_run",
      [&](std::uint64_t s) { return benchHold<Simulator>(n, 4096, s); },
      [&](std::uint64_t s) { return benchHold<legacy::Simulator>(n, 4096, s); });
  run(
      "churn_schedule_cancel_run",
      [&](std::uint64_t s) { return benchChurn<Simulator>(n, 256, s); },
      [&](std::uint64_t s) { return benchChurn<legacy::Simulator>(n, 256, s); });
  run(
      "reentrant_chain", [&](std::uint64_t s) { return benchChain<Simulator>(n, s); },
      [&](std::uint64_t s) { return benchChain<legacy::Simulator>(n, s); });
  run(
      "batch64_same_ts",
      [&](std::uint64_t s) { return benchBatchAdmit<Simulator>(n, 64, s); },
      [&](std::uint64_t s) { return benchBatchAdmit<legacy::Simulator>(n, 64, s); });

  const double guard_pct = benchGuardOverheadPct<Simulator>(n, 64, reps);

  std::printf("# sim kernel — %s run, %llu events/workload, best of %d\n",
              fast ? "fast" : "full", static_cast<unsigned long long>(n), reps);
  TableWriter t({"workload", "new_Mev_per_s", "legacy_Mev_per_s", "speedup"}, csv, 2);
  double worst = 1e300;
  double new_time = 0.0;
  double legacy_time = 0.0;
  for (const KernelResult& r : results) {
    t.beginRow();
    t.addText(r.name.c_str());
    t.add(r.new_eps / 1e6);
    t.add(r.legacy_eps / 1e6);
    t.add(r.speedup());
    worst = std::min(worst, r.speedup());
    // Equal event budget per workload, so total-time ratio = harmonic weight.
    new_time += 1.0 / r.new_eps;
    legacy_time += 1.0 / r.legacy_eps;
  }
  t.print();
  const double aggregate = legacy_time / new_time;
  std::printf("# aggregate events/sec over the whole mix: %.2fx the seed kernel\n", aggregate);
  std::printf("# worst-case single-workload speedup: %.2fx\n", worst);
  std::printf("# disabled trace-guard overhead (frame-sized hold64): %.3f%% (budget < 1%%%s)\n",
              guard_pct,
              trace != nullptr ? "; tracing ACTIVE, number includes enabled cost" : "");

  if (obs::MetricsRegistry* reg = obs.metrics(); reg != nullptr) {
    for (const KernelResult& r : results) {
      reg->gauge("bench.kernel." + r.name + ".new_events_per_sec").set(r.new_eps);
      reg->gauge("bench.kernel." + r.name + ".legacy_events_per_sec").set(r.legacy_eps);
      reg->gauge("bench.kernel." + r.name + ".speedup").set(r.speedup());
    }
    reg->gauge("bench.kernel.aggregate_speedup").set(aggregate);
    reg->gauge("bench.kernel.worst_speedup").set(worst);
    reg->gauge("bench.kernel.trace_guard_overhead_pct").set(guard_pct);
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    AFF_CHECK(f != nullptr);
    std::fprintf(f, "{\n  \"bench\": \"sim_kernel\",\n  \"mode\": \"%s\",\n",
                 fast ? "fast" : "full");
    std::fprintf(f, "  \"events_per_workload\": %llu,\n  \"results\": [\n",
                 static_cast<unsigned long long>(n));
    for (std::size_t i = 0; i < results.size(); ++i) {
      const KernelResult& r = results[i];
      std::fprintf(f,
                   "    {\"workload\": \"%s\", \"new_events_per_sec\": %.0f, "
                   "\"legacy_events_per_sec\": %.0f, \"speedup\": %.3f}%s\n",
                   r.name.c_str(), r.new_eps, r.legacy_eps, r.speedup(),
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"aggregate_speedup\": %.3f,\n  \"worst_speedup\": %.3f,\n"
                 "  \"trace_guard_overhead_pct\": %.3f\n}\n",
                 aggregate, worst, guard_pct);
    std::fclose(f);
    std::printf("# wrote %s\n", json_path.c_str());
  }

  // The bar: no workload mix slower than the frozen seed kernel, and the
  // disabled trace guard inside its 1% budget (only checkable when tracing
  // is off — an active session measures the enabled cost instead).
  const bool guard_ok = trace != nullptr || guard_pct < 1.0;
  char detail[160];
  std::snprintf(detail, sizeof detail, "aggregate %.2fx seed, worst workload %.2fx, guard %.3f%%",
                aggregate, worst, guard_pct);
  return smokeStatus("sim_kernel_bench", aggregate >= 1.0 && guard_ok, detail);
}
