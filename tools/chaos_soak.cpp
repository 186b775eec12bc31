// chaos_soak — soak the real-thread engines (Locking / IPS / Dispatch)
// under a deterministic fault mix (frame faults + scheduled worker
// kill/stall) and audit the conservation ledger at shutdown:
//
//   submitted == delivered + Σ dropped_by_cause + dropped_oldest
//                + Σ evicted_inflight
//
//   $ ./chaos_soak --config scenarios/chaos_mixed_faults.ini
//   $ ./chaos_soak --frames 1000000 --engine all
//   $ ./chaos_soak --streams 100000 --frames 400000   # flow-table eviction
//
// Exits 0 iff every run conserves exactly (greppable "CHAOS SOAK PASS" /
// "CHAOS SOAK FAIL" status line). Flags override the config file.
#include <cstdio>
#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/chaos.hpp"
#include "util/cli.hpp"
#include "util/lockdep.hpp"

using namespace affinity;

int main(int argc, char** argv) {
  Cli cli("chaos_soak", "soak the engines under injected faults and audit conservation");
  const std::string& path = cli.flag<std::string>("config", "", "chaos scenario file (optional)");
  const std::string& engine = cli.flag<std::string>("engine", "all", "locking|ips|dispatch|all");
  const std::int64_t& frames = cli.flag<std::int64_t>("frames", 0, "override frame count");
  const std::int64_t& streams = cli.flag<std::int64_t>(
      "streams", 0, "override stream count (10^5 exercises flow-table eviction)");
  const std::int64_t& seed = cli.flag<std::int64_t>("seed", -1, "override seed");
  const std::string& metrics_out = cli.flag<std::string>(
      "metrics-out", "", "write the chaos ledger as a metrics-registry JSON snapshot here");
  const std::string& trace_out = cli.flag<std::string>(
      "trace-out", "", "write worker frame spans + fault instants as Chrome trace JSON here");
  const std::string& lockdep_out = cli.flag<std::string>(
      "lockdep-out", "", "write the observed lock-order graph as JSON here (AFF_LOCKDEP builds; "
                         "empty graph otherwise)");
  cli.parse(argc, argv);

  obs::MetricsRegistry registry;
  std::unique_ptr<obs::TraceSession> trace;
  if (!trace_out.empty()) {
    // Activate before the engines start so their workers pick up tracks.
    trace = std::make_unique<obs::TraceSession>();
    trace->activate();
  }

  ChaosConfig cfg;
  if (!path.empty()) {
    std::string error;
    const auto file = ConfigFile::load(path, &error);
    if (!file) {
      std::fprintf(stderr, "chaos_soak: %s\n", error.c_str());
      return 1;
    }
    auto loaded = loadChaosConfig(*file, &error);
    if (!loaded) {
      std::fprintf(stderr, "chaos_soak: %s: %s\n", path.c_str(), error.c_str());
      return 1;
    }
    cfg = *loaded;
  } else {
    // Default soak: every fault type, one kill, one stall.
    cfg.frames = 200'000;
    cfg.workers = 4;
    cfg.streams = 16;
    cfg.faults = {.drop = 0.01, .bitflip = 0.02, .truncate = 0.02,
                  .duplicate = 0.01, .reorder = 0.01};
    cfg.kill_at = cfg.frames / 4;
    cfg.kill_worker = 1;
    cfg.stall_at = cfg.frames / 2;
    cfg.stall_worker = 2;
  }
  if (frames > 0) {
    // Keep scheduled worker faults inside the (possibly overridden) run.
    const double scale = static_cast<double>(frames) / static_cast<double>(cfg.frames);
    cfg.kill_at = static_cast<std::uint64_t>(static_cast<double>(cfg.kill_at) * scale);
    cfg.stall_at = static_cast<std::uint64_t>(static_cast<double>(cfg.stall_at) * scale);
    cfg.frames = static_cast<std::uint64_t>(frames);
  }
  if (streams > 0) cfg.streams = static_cast<std::uint32_t>(streams);
  if (seed >= 0) cfg.seed = static_cast<std::uint64_t>(seed);
  if (!metrics_out.empty()) cfg.metrics = &registry;

  bool ok = true;
  const auto soak = [&](EngineKind kind) {
    std::printf("== chaos soak: %s engine, %llu frames ==\n", engineKindName(kind),
                static_cast<unsigned long long>(cfg.frames));
    const ChaosReport rep = runChaos(kind, cfg);
    std::fputs(rep.describe().c_str(), stdout);
    std::printf("\n");
    ok = ok && rep.conserved;
  };
  // "both" predates the dispatch engine; kept as a synonym for "all".
  const bool all = engine == "all" || engine == "both";
  if (engine == "locking" || all) soak(EngineKind::kLocking);
  if (engine == "ips" || all) soak(EngineKind::kIps);
  if (engine == "dispatch" || all) soak(EngineKind::kDispatch);
  if (engine != "locking" && engine != "ips" && engine != "dispatch" && !all) {
    std::fprintf(stderr, "chaos_soak: unknown --engine %s\n", engine.c_str());
    return 2;
  }

  // In AFF_LOCKDEP builds the soak doubles as a lock-discipline gate: any
  // ordering violation observed while the engines ran fails the run even
  // though no deadlock happened to materialize.
  if (lockdep::enabled() && lockdep::cycleCount() > 0) {
    for (const auto& report : lockdep::reports()) std::fprintf(stderr, "%s\n", report.c_str());
    std::fprintf(stderr, "chaos_soak: lockdep recorded %zu lock-order violation%s\n",
                 lockdep::cycleCount(), lockdep::cycleCount() == 1 ? "" : "s");
    ok = false;
  }
  if (!lockdep_out.empty()) {
    std::FILE* f = std::fopen(lockdep_out.c_str(), "w");
    if (f != nullptr) {
      lockdep::writeJson(f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "warning: could not write --lockdep-out %s\n", lockdep_out.c_str());
    }
  }

  // Greppable status line, same convention as scripts/run_perf_smoke.sh.
  std::printf("%s\n", ok ? "CHAOS SOAK PASS: every frame accounted for"
                         : "CHAOS SOAK FAIL: conservation ledger does not balance");

  if (trace != nullptr) {
    obs::TraceSession::deactivate();
    if (!trace->writeChromeTrace(trace_out))
      std::fprintf(stderr, "warning: could not write --trace-out %s\n", trace_out.c_str());
  }
  if (!metrics_out.empty() && !registry.writeJson(metrics_out))
    std::fprintf(stderr, "warning: could not write --metrics-out %s\n", metrics_out.c_str());
  return ok ? 0 : 4;
}
