// common.hpp — shared scaffolding for the experiment drivers.
//
// Every bench binary reproduces one table or figure of the paper, or one
// extension of it, and prints it as an aligned table (or CSV with --csv).
// EXPERIMENTS.md records the expected shapes next to the paper's. A
// simulation sweep is a FigureDef (figures.hpp) run through runTable across
// --jobs worker threads: the pinned figures' definitions live in
// figures.cpp, every other driver builds its own from the same builders.
#pragma once

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/figures.hpp"
#include "core/experiment.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace affinity::bench {

/// Owns the optional sinks behind --metrics-out / --trace-out.
///
/// declare() creates one inert instance per driver; the first params()
/// or runner() call after cli.parse() opens the sinks (flag values aren't
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
  /// Shared by all copies of this CommonFlags (params() and runner() route
  /// instrument pointers through it).
  std::shared_ptr<ObsOutput> obs;

  static CommonFlags declare(Cli& cli) {
    const FigureParams d;
    return CommonFlags{
        cli.flag<int>("procs", d.procs, "number of processors"),
        cli.flag<int>("streams", d.streams, "number of concurrent streams"),
        cli.flag<double>("lock-overhead", d.lock_overhead_us,
                         "per-packet lock overhead under Locking (us)"),
        cli.flag<double>("critical-section", d.critical_section_us,
                         "serialized critical section (us)"),
        cli.flag<std::uint64_t>("seed", d.seed, "simulation seed"),
        cli.flag<bool>("csv", false, "emit CSV instead of an aligned table"),
        cli.flag<bool>("fast", d.fast, "short windows (CI smoke run)"),
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

  /// The flags that decide a figure's numbers.
  [[nodiscard]] FigureParams params() const {
    return {procs, streams, lock_overhead, critical_section, seed, fast,
            observability().metrics()};
  }

  /// A `--jobs`-wide sweep pool, instrumented with the observability sinks.
  [[nodiscard]] SweepRunner runner() const {
    SweepRunner r(static_cast<unsigned>(jobs));
    ObsOutput& sinks = observability();
    r.instrument(sinks.metrics(), sinks.trace());
    return r;
  }
};

/// Converts packets/µs to the paper's natural packets/s axis label value.
inline double perSecond(double per_us) { return per_us * 1e6; }

/// Appends each cell's mean delay to the current row.
inline void addDelays(TableWriter& t, const std::vector<Cell>& cells) {
  for (const Cell& c : cells) t.add(c.run.mean_delay_us);
}

/// Appends one row per x of `def`: x * x_scale, then each cell's mean delay.
inline void addDelayRows(TableWriter& t, const FigureDef& def,
                         const std::vector<std::vector<Cell>>& rows, double x_scale = 1.0) {
  for (std::size_t i = 0; i < def.xs.size(); ++i) {
    t.beginRow();
    t.add(def.xs[i] * x_scale);
    addDelays(t, rows[i]);
  }
}

/// Appends the % delay reduction of `aff` over `base` (Figs 10 and 11):
/// "sat" when `aff` saturated, ">N" when only `base` did.
inline void addReduction(TableWriter& t, const RunMetrics& base, const RunMetrics& aff) {
  if (aff.saturated) {
    t.addText("sat");
  } else if (base.saturated) {
    // The baseline's backlog is still growing; the true steady-state
    // reduction is at least this.
    char buf[32];
    std::snprintf(buf, sizeof buf, ">%.0f",
                  std::min(99.0, reductionPercent(base.mean_delay_us, aff.mean_delay_us)));
    t.addText(buf);
  } else {
    t.add(reductionPercent(base.mean_delay_us, aff.mean_delay_us));
  }
}

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

}  // namespace affinity::bench
