// common.hpp — shared scaffolding for the experiment drivers.
//
// Every bench binary reproduces one table or figure of the paper: it sweeps
// the figure's x-axis, runs the simulation for each series, and prints the
// series as an aligned table (or CSV with --csv). EXPERIMENTS.md records the
// expected shapes next to the paper's.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/capacity.hpp"
#include "core/experiment.hpp"
#include "core/sweep_runner.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace affinity::bench {

/// Owns the optional sinks behind --metrics-out / --trace-out.
///
/// declare() creates one inert instance per driver; the first makeConfig()
/// or sweep() call after cli.parse() opens the sinks (flag values aren't
/// known earlier), and the destructor — end of main — writes the files.
/// Opening the trace sink also activates the session process-globally so
/// real-thread engines started afterwards pick it up.
class ObsOutput {
 public:
  ObsOutput() = default;
  ~ObsOutput() { flush(); }
  ObsOutput(const ObsOutput&) = delete;
  ObsOutput& operator=(const ObsOutput&) = delete;

  /// Idempotent: only the first call takes effect.
  void open(const std::string& metrics_path, const std::string& trace_path) {
    if (opened_) return;
    opened_ = true;
    metrics_path_ = metrics_path;
    trace_path_ = trace_path;
    if (!trace_path_.empty()) {
      trace_ = std::make_unique<obs::TraceSession>();
      trace_->activate();
    }
  }

  /// Writes whichever files were requested; safe to call more than once.
  void flush() {
    if (flushed_ || !opened_) return;
    flushed_ = true;
    if (trace_ != nullptr) obs::TraceSession::deactivate();
    if (!metrics_path_.empty() && !registry_.writeJson(metrics_path_))
      std::fprintf(stderr, "warning: could not write --metrics-out %s\n", metrics_path_.c_str());
    if (trace_ != nullptr && !trace_->writeChromeTrace(trace_path_))
      std::fprintf(stderr, "warning: could not write --trace-out %s\n", trace_path_.c_str());
  }

  /// Null unless --metrics-out was given.
  [[nodiscard]] obs::MetricsRegistry* metrics() {
    return opened_ && !metrics_path_.empty() ? &registry_ : nullptr;
  }
  /// Null unless --trace-out was given.
  [[nodiscard]] obs::TraceSession* trace() { return trace_.get(); }

 private:
  bool opened_ = false;
  bool flushed_ = false;
  std::string metrics_path_;
  std::string trace_path_;
  obs::MetricsRegistry registry_;
  std::unique_ptr<obs::TraceSession> trace_;
};

/// Flags shared by all experiment drivers.
struct CommonFlags {
  const int& procs;
  const int& streams;
  const double& lock_overhead;
  const double& critical_section;
  const std::uint64_t& seed;
  const bool& csv;
  const bool& fast;
  const int& jobs;
  const std::string& metrics_out;
  const std::string& trace_out;
  /// Shared by all copies of this CommonFlags (sweep() and makeConfig()
  /// route instrument pointers through it).
  std::shared_ptr<ObsOutput> obs;

  static CommonFlags declare(Cli& cli) {
    return CommonFlags{
        cli.flag<int>("procs", 8, "number of processors"),
        cli.flag<int>("streams", 16, "number of concurrent streams"),
        cli.flag<double>("lock-overhead", 20.0, "per-packet lock overhead under Locking (us)"),
        cli.flag<double>("critical-section", 8.0, "serialized critical section (us)"),
        cli.flag<std::uint64_t>("seed", 1, "simulation seed"),
        cli.flag<bool>("csv", false, "emit CSV instead of an aligned table"),
        cli.flag<bool>("fast", false, "short windows (CI smoke run)"),
        cli.flag<int>("jobs", 1, "sweep worker threads (0 = all hardware threads)"),
        cli.flag<std::string>("metrics-out", "", "write a metrics-registry JSON snapshot here"),
        cli.flag<std::string>("trace-out", "", "write a Chrome trace_event JSON file here"),
        std::make_shared<ObsOutput>(),
    };
  }

  /// Opens the observability sinks (no-op after the first call). Callable
  /// only after cli.parse().
  ObsOutput& observability() const {
    obs->open(metrics_out, trace_out);
    return *obs;
  }

  [[nodiscard]] SimConfig makeConfig() const {
    SimConfig c = defaultSimConfig();
    c.num_procs = static_cast<unsigned>(procs);
    c.lock_overhead_us = lock_overhead;
    c.critical_section_us = critical_section;
    c.seed = seed;
    c.warmup_us = fast ? 50'000.0 : 200'000.0;
    c.measure_us = fast ? 300'000.0 : 2'000'000.0;
    // Sweep sims share the registry across worker threads; each publishes
    // its statistics once, after its run. Never SimConfig::trace — virtual
    // times from parallel points would interleave meaninglessly on one
    // timeline.
    c.metrics = observability().metrics();
    return c;
  }

  /// makeConfig() with the measurement window sized for the sweep point's
  /// rate, so light-load points still complete enough packets.
  [[nodiscard]] SimConfig makeConfigFor(double rate_per_us) const {
    SimConfig c = makeConfig();
    setAutoWindow(c, rate_per_us, fast ? 15'000 : 80'000);
    return c;
  }
};

/// Standard arrival-rate sweep (packets/µs). With 8 processors and a warm
/// service time of ~136 µs the no-overhead capacity is ~0.059 pkts/µs; the
/// sweep spans light load to near saturation.
inline std::vector<double> rateSweep(bool fast) {
  if (fast) return {0.005, 0.015, 0.03};
  return {0.002, 0.005, 0.008, 0.012, 0.016, 0.020, 0.025, 0.030,
          0.035, 0.038, 0.040, 0.042, 0.044};
}

/// Rate sweep extended down to very light load (hundreds of packets per
/// second), where the IPS policy crossover lives: concentrating stacks (MRU)
/// keeps the shared protocol text warm while everything else has decayed.
inline std::vector<double> rateSweepWithLowEnd(bool fast) {
  if (fast) return {0.0005, 0.005, 0.03};
  std::vector<double> rates{0.0002, 0.0005, 0.001};
  for (double r : rateSweep(false)) rates.push_back(r);
  return rates;
}

/// Converts packets/µs to the paper's natural packets/s axis label value.
inline double perSecond(double per_us) { return per_us * 1e6; }

/// The greppable status line scripts/run_perf_smoke.sh keys on. A bench
/// with an acceptance bar prints exactly one of these as its last stdout
/// line and returns the result as its exit code, so `grep "PERF SMOKE"`
/// over a CI log tells the whole story and the smoke script propagates
/// failure without parsing tables. EXPERIMENTS.md documents each bar.
[[nodiscard]] inline int smokeStatus(const char* bench, bool pass, const std::string& detail) {
  std::printf("PERF SMOKE %s: %s (%s)\n", pass ? "PASS" : "FAIL", bench, detail.c_str());
  if (!pass) std::fprintf(stderr, "PERF SMOKE FAIL: %s (%s)\n", bench, detail.c_str());
  return pass ? 0 : 1;
}

/// Runs `fn(i)` for every sweep index across `--jobs` worker threads and
/// returns the results in index order (output is byte-identical for any job
/// count as long as `fn` is a pure function of its index — derive per-point
/// seeds from the index, don't share mutable state). Drivers compute all
/// rows through this, then print sequentially.
template <typename Fn>
auto sweep(const CommonFlags& flags, std::size_t n, Fn&& fn) {
  SweepRunner runner(static_cast<unsigned>(flags.jobs));
  ObsOutput& obs = flags.observability();
  runner.instrument(obs.metrics(), obs.trace());
  return runner.map(n, std::forward<Fn>(fn));
}

/// The derived seed for sweep point `i` (splitmix of --seed and i): every
/// point gets an independent random stream, and results don't depend on
/// which worker runs the point.
inline std::uint64_t pointSeed(const CommonFlags& flags, std::size_t i) {
  return derivePointSeed(flags.seed, static_cast<std::uint64_t>(i));
}

}  // namespace affinity::bench
