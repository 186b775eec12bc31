// metrics.hpp — metrics registry (docs/OBSERVABILITY.md).
//
// A MetricsRegistry is a name -> instrument map that the simulator, the
// sweep runner and the chaos harness publish into. Instruments are built
// for the two usage patterns in this repo:
//
//   * live updates from concurrent threads (engine workers, parallel sweep
//     points): Counter / Gauge / MeanStat update with relaxed atomics only
//     — no locks, no allocation, wait-free except for the bounded CAS loops
//     on double accumulators;
//   * finished accumulators published once per run: the simulator keeps its
//     statistics in src/stats and merges them in after the run (counters
//     by inc(n), OnlineStats by MeanStat::merge, a stats Histogram by
//     mergeHistogram, which takes the registry mutex).
//
// Registration (find-or-create by name) takes a mutex — it happens once per
// metric, never per sample. References returned by the registry are stable
// for the registry's lifetime, so hot paths hold instrument pointers and
// never touch the map again. snapshot() / writeJson() are read-side and may
// run while writers are active (counters are then merely approximately
// consistent with each other, exactly consistent per instrument).
//
// Naming scheme: dotted lowercase paths, "<domain>.<subsystem>.<metric>",
// e.g. "sim.affinity.l2_warm_fraction", "chaos.ips.worker.3.processed".
// Per-entity instruments embed the entity index as a path segment.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "stats/histogram.hpp"
#include "stats/online.hpp"
#include "util/mutex.hpp"

namespace affinity::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous level.
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Streaming mean/min/max over added samples (no per-sample storage).
class MeanStat {
 public:
  void add(double x) noexcept { accumulate(1, x, x, x); }
  /// Adds every sample a finished OnlineStats saw (no-op when it is empty).
  void merge(const OnlineStats& s) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;

 private:
  void accumulate(std::uint64_t n, double sum, double lo, double hi) noexcept;

  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// One exported sample of any instrument (see MetricsRegistry::snapshot).
struct MetricSample {
  enum class Kind : std::uint8_t { kCounter, kGauge, kMean, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  // Populated per kind; unused fields stay zero.
  std::uint64_t count = 0;   ///< counter value / sample count
  double value = 0.0;        ///< gauge value / mean
  double min = 0.0, max = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  std::uint64_t overflow = 0;

  [[nodiscard]] const char* kindName() const noexcept;
};

/// The registry. Instruments are created on first use and live as long as
/// the registry; lookups of an existing name with a different kind abort
/// (two subsystems disagreeing about a name is a bug worth dying for).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name) AFF_EXCLUDES(mu_);
  Gauge& gauge(const std::string& name) AFF_EXCLUDES(mu_);
  MeanStat& meanStat(const std::string& name) AFF_EXCLUDES(mu_);
  /// Adds a finished histogram's samples to the one named `name` (the first
  /// merge fixes the geometry; a later one with another geometry aborts).
  void mergeHistogram(const std::string& name, const Histogram& h) AFF_EXCLUDES(mu_);

  [[nodiscard]] std::size_t size() const AFF_EXCLUDES(mu_);

  /// All instruments, sorted by name (deterministic export order).
  [[nodiscard]] std::vector<MetricSample> snapshot() const AFF_EXCLUDES(mu_);

  /// Writes the snapshot as a JSON document. The file form returns false on
  /// I/O failure.
  void writeJson(std::FILE* out) const;
  [[nodiscard]] bool writeJson(const std::string& path) const;

 private:
  struct Entry {
    MetricSample::Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<MeanStat> mean;
    std::unique_ptr<Histogram> histogram;  ///< read and written under mu_ only
  };

  // Returns a reference that outlives the lock: entries are pointer-stable
  // (std::map nodes) and, once the instrument exists, immutable-in-shape —
  // so hot paths hold instrument pointers without ever re-entering mu_.
  // Callers must finish creating the instrument before releasing mu_
  // (creation after unlock would race a concurrent registration).
  Entry& find_or_create_locked(const std::string& name,
                               MetricSample::Kind kind) AFF_REQUIRES(mu_);

  // Innermost-tier lock: registration/snapshot may run under an engine
  // stack mutex; nothing is acquired while it is held.
  mutable Mutex mu_{"MetricsRegistry::mu_"};
  // std::map keeps names sorted for snapshot(); entries are pointer-stable.
  std::map<std::string, Entry> entries_ AFF_GUARDED_BY(mu_);
};

/// Escapes a string for embedding in a JSON document (shared by the metrics
/// and trace exporters).
std::string jsonEscape(const std::string& s);

}  // namespace affinity::obs
