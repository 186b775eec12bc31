// obs_test — the observability layer: instrument semantics, registry
// find-or-create, JSON export validity, Chrome-trace structural guarantees
// (sorted timestamps, matched B/E pairs — what Perfetto requires), the
// process-global session guard, and a ProtocolSim run exporting both
// metrics and a virtual-time trace.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/sweep_runner.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stats/time_weighted.hpp"

namespace affinity::obs {
namespace {

namespace fs = std::filesystem;

std::string tempPath(const char* name) {
  return (fs::temp_directory_path() / name).string();
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---- a minimal JSON validity checker -------------------------------------
// Enough JSON to verify our exporters emit well-formed documents: objects,
// arrays, strings with escapes, numbers, true/false/null. Returns false on
// the first syntax error.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skipWs();
    if (!value()) return false;
    skipWs();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skipWs();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skipWs();
      if (!string()) return false;
      skipWs();
      if (peek() != ':') return false;
      ++pos_;
      skipWs();
      if (!value()) return false;
      skipWs();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skipWs();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skipWs();
      if (!value()) return false;
      skipWs();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || std::isxdigit(static_cast<unsigned char>(s_[pos_])) == 0)
              return false;
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::string_view sv(lit);
    if (s_.compare(pos_, sv.size(), sv) != 0) return false;
    pos_ += sv.size();
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' || s_[pos_] == '\r'))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---- instruments ----------------------------------------------------------

TEST(Metrics, CounterAndGauge) {
  Counter c;
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);

  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.set(1.5);  // last write wins
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(Metrics, MeanStatTracksMinMeanMax) {
  MeanStat m;
  EXPECT_EQ(m.count(), 0u);
  EXPECT_DOUBLE_EQ(m.mean(), 0.0);
  for (double x : {4.0, 2.0, 6.0}) m.add(x);
  EXPECT_EQ(m.count(), 3u);
  EXPECT_DOUBLE_EQ(m.mean(), 4.0);
  EXPECT_DOUBLE_EQ(m.min(), 2.0);
  EXPECT_DOUBLE_EQ(m.max(), 6.0);

  // The same samples published as finished accumulators.
  OnlineStats first;
  for (double x : {4.0, 2.0}) first.add(x);
  OnlineStats second;
  second.add(6.0);
  MeanStat merged;
  merged.merge(OnlineStats{});  // an empty accumulator adds nothing
  EXPECT_EQ(merged.count(), 0u);
  merged.merge(first);
  merged.merge(second);
  EXPECT_EQ(merged.count(), 3u);
  EXPECT_DOUBLE_EQ(merged.mean(), 4.0);
  EXPECT_DOUBLE_EQ(merged.min(), 2.0);
  EXPECT_DOUBLE_EQ(merged.max(), 6.0);
}

TEST(Metrics, MeanStatConcurrentAdds) {
  MeanStat m;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&m] {
      for (int i = 1; i <= kPerThread; ++i) m.add(static_cast<double>(i));
    });
  for (auto& t : pool) t.join();
  EXPECT_EQ(m.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(m.mean(), (kPerThread + 1) / 2.0);
  EXPECT_DOUBLE_EQ(m.min(), 1.0);
  EXPECT_DOUBLE_EQ(m.max(), kPerThread);
}

TEST(Metrics, TimeWeightedAverage) {
  // Queue levels are kept in a TimeWeighted and published as avg/peak gauges.
  TimeWeighted tw;
  tw.set(0.0, 0.0);
  tw.set(10.0, 4.0);  // level 0 for [0,10)
  tw.set(30.0, 1.0);  // level 4 for [10,30), level 1 for [30,40)
  // (0*10 + 4*20 + 1*10) / 40 = 2.25
  EXPECT_DOUBLE_EQ(tw.average(40.0), 2.25);
  EXPECT_DOUBLE_EQ(tw.maxLevel(), 4.0);
  EXPECT_DOUBLE_EQ(tw.level(), 1.0);
}

TEST(Metrics, LatencyHistoQuantiles) {
  Histogram h(0.05, 9, 32);
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));
  MetricsRegistry reg;
  reg.mergeHistogram("sim.delay_us", h);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  const MetricSample& s = snap.front();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.overflow, 0u);
  EXPECT_NEAR(s.value, 50.5, 1e-9);
  // Bucketed quantiles land within one log-bucket (~7.5 %) of the truth.
  EXPECT_NEAR(s.p50, 50.0, 50.0 * 0.08);
  EXPECT_NEAR(s.p95, 95.0, 95.0 * 0.08);
  EXPECT_NEAR(s.p99, 99.0, 99.0 * 0.08);
}

TEST(Metrics, LatencyHistoOverflowAndUnderflow) {
  Histogram h(1.0, 2, 8);  // covers [1, 100)
  h.add(0.5);              // underflow
  h.add(1e9);              // overflow
  h.add(10.0);
  MetricsRegistry reg;
  reg.mergeHistogram("sim.delay_us", h);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap.front().count, 3u);
  EXPECT_EQ(snap.front().overflow, 1u);
}

// ---- registry -------------------------------------------------------------

TEST(Registry, FindOrCreateReturnsStableInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x.count");
  a.inc(5);
  Counter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 5u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(RegistryDeathTest, KindMismatchAborts) {
  MetricsRegistry reg;
  reg.counter("x.conflicted");
  EXPECT_DEATH(reg.gauge("x.conflicted"), "CHECK failed");
}

TEST(Registry, SnapshotSortedByName) {
  MetricsRegistry reg;
  reg.counter("z.last").inc();
  reg.gauge("a.first").set(1.0);
  reg.meanStat("m.middle").add(3.0);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a.first");
  EXPECT_EQ(snap[1].name, "m.middle");
  EXPECT_EQ(snap[2].name, "z.last");
  EXPECT_EQ(snap[1].count, 1u);
  EXPECT_DOUBLE_EQ(snap[1].value, 3.0);
}

TEST(Registry, WriteJsonIsValidJson) {
  MetricsRegistry reg;
  reg.counter("sim.packets.arrived").inc(7);
  reg.gauge("engine.locking.delivered").set(123.0);
  reg.meanStat("sim.run.mean_delay_us").add(251.5);
  Histogram delays(0.1, 8, 32);
  delays.add(100.0);
  reg.mergeHistogram("sim.delay_us", delays);
  // A name that needs escaping must not break the document.
  reg.counter("weird\"name\\with\tescapes").inc();

  const std::string path = tempPath("obs_test_metrics.json");
  ASSERT_TRUE(reg.writeJson(path));
  const std::string text = readFile(path);
  EXPECT_TRUE(JsonChecker(text).valid()) << text;
  EXPECT_NE(text.find("sim.packets.arrived"), std::string::npos);
  EXPECT_NE(text.find("histogram"), std::string::npos);
  fs::remove(path);
}

TEST(Registry, NonFiniteValuesExportAsNull) {
  // JSON has no NaN or infinity; printf's "nan"/"-nan"/"inf" would make the
  // whole document unreadable.
  MetricsRegistry reg;
  reg.gauge("sim.nan_gauge").set(std::numeric_limits<double>::quiet_NaN());
  reg.gauge("sim.neg_nan_gauge").set(-std::numeric_limits<double>::quiet_NaN());
  reg.gauge("sim.inf_gauge").set(std::numeric_limits<double>::infinity());
  reg.meanStat("sim.nan_mean").add(std::numeric_limits<double>::quiet_NaN());

  const std::string path = tempPath("obs_test_nonfinite_metrics.json");
  ASSERT_TRUE(reg.writeJson(path));
  const std::string text = readFile(path);
  EXPECT_TRUE(JsonChecker(text).valid()) << text;
  EXPECT_NE(text.find("\"value\": null"), std::string::npos) << text;
  EXPECT_NE(text.find("\"mean\": null"), std::string::npos) << text;
  fs::remove(path);
}

TEST(RegistryDeathTest, HistogramGeometryMismatchAborts) {
  MetricsRegistry reg;
  reg.mergeHistogram("sim.delay_us", Histogram(0.1, 8, 32));
  EXPECT_DEATH(reg.mergeHistogram("sim.delay_us", Histogram(0.05, 8, 32)), "CHECK failed");
}

TEST(Registry, JsonEscape) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(jsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

// ---- trace sessions -------------------------------------------------------

// Parses the "traceEvents" array of our own exporter output well enough to
// check the structural guarantees: we rely on the exporter's one-event-per-
// line layout rather than a full JSON parser.
struct ParsedEvent {
  char phase = '?';
  double ts = 0.0;
  int tid = -1;
};

std::vector<ParsedEvent> parseEvents(const std::string& text) {
  std::vector<ParsedEvent> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const auto ph = line.find("\"ph\": \"");
    if (ph == std::string::npos) continue;
    ParsedEvent e;
    e.phase = line[ph + 7];
    if (const auto ts = line.find("\"ts\": "); ts != std::string::npos)
      e.ts = std::stod(line.substr(ts + 6));
    if (const auto tid = line.find("\"tid\": "); tid != std::string::npos)
      e.tid = std::stoi(line.substr(tid + 7));
    out.push_back(e);
  }
  return out;
}

void expectStructurallyValidTrace(const std::string& text) {
  ASSERT_TRUE(JsonChecker(text).valid()) << "trace is not valid JSON";
  const auto events = parseEvents(text);
  ASSERT_FALSE(events.empty());

  // Non-metadata events must be globally sorted by timestamp.
  double last_ts = -1.0;
  std::map<int, int> depth;  // tid -> open span depth
  for (const auto& e : events) {
    if (e.phase == 'M') continue;
    EXPECT_GE(e.ts, last_ts) << "timestamps must be nondecreasing";
    last_ts = e.ts;
    if (e.phase == 'B') ++depth[e.tid];
    if (e.phase == 'E') {
      --depth[e.tid];
      EXPECT_GE(depth[e.tid], 0) << "E without matching B on tid " << e.tid;
    }
  }
  for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0) << "unclosed span on tid " << tid;
}

TEST(Trace, SpansAndInstantsExportStructurallyValid) {
  TraceSession session(64);
  const std::uint32_t t0 = session.track("worker 0");
  const std::uint32_t t1 = session.track("worker 1");
  session.span(t0, "frame", 10.0, 15.0, 7, 0);
  session.instant(t1, "fault", 12.0, 3);
  session.span(t1, "frame", 12.5, 14.0, 8, 1);
  session.span(t0, "frame", 16.0, 16.0, 9, 0);  // zero-length span is legal
  EXPECT_EQ(session.trackCount(), 2u);
  EXPECT_EQ(session.recordedCount(), 4u);
  EXPECT_EQ(session.droppedCount(), 0u);

  const std::string path = tempPath("obs_test_trace.json");
  ASSERT_TRUE(session.writeChromeTrace(path));
  const std::string text = readFile(path);
  expectStructurallyValidTrace(text);
  EXPECT_NE(text.find("\"worker 1\""), std::string::npos) << "track names exported as metadata";
  EXPECT_NE(text.find("displayTimeUnit"), std::string::npos);
  fs::remove(path);
}

TEST(Trace, RingOverflowKeepsPairsMatched) {
  TraceSession session(8);  // tiny ring: most spans get overwritten
  const std::uint32_t t = session.track("hot worker");
  for (int i = 0; i < 100; ++i) {
    const double b = 10.0 * i;
    session.span(t, "frame", b, b + 5.0, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(session.recordedCount(), 100u);
  EXPECT_EQ(session.droppedCount(), 92u);

  const std::string path = tempPath("obs_test_trace_wrap.json");
  ASSERT_TRUE(session.writeChromeTrace(path));
  const std::string text = readFile(path);
  expectStructurallyValidTrace(text);
  // Exactly the 8 newest spans survive: 8 B + 8 E + metadata.
  const auto events = parseEvents(text);
  int begins = 0;
  for (const auto& e : events) begins += e.phase == 'B' ? 1 : 0;
  EXPECT_EQ(begins, 8);
  fs::remove(path);
}

TEST(Trace, ActiveGuardLifecycle) {
  EXPECT_EQ(TraceSession::active(), nullptr) << "tracing must be off by default";
  {
    TraceSession session;
    EXPECT_EQ(TraceSession::active(), nullptr) << "constructing must not activate";
    session.activate();
    EXPECT_EQ(TraceSession::active(), &session);
  }
  // Destruction of the active session must clear the global slot.
  EXPECT_EQ(TraceSession::active(), nullptr);

  TraceSession a;
  a.activate();
  TraceSession::deactivate();
  EXPECT_EQ(TraceSession::active(), nullptr);
}

TEST(Trace, SteadyNowIsMonotonic) {
  TraceSession session;
  const double t0 = session.steadyNowUs();
  const double t1 = session.steadyNowUs();
  EXPECT_GE(t0, 0.0);
  EXPECT_GE(t1, t0);
}

// ---- the simulator's own trace + metrics ----------------------------------

TEST(Trace, ProtocolSimExportsValidTraceAndMetrics) {
  SimConfig c = defaultSimConfig();
  c.num_procs = 4;
  c.seed = 7;
  c.warmup_us = 10'000.0;
  c.measure_us = 100'000.0;
  c.policy.paradigm = Paradigm::kLocking;
  c.policy.locking = LockingPolicy::kMru;

  MetricsRegistry reg;
  TraceSession trace;
  c.metrics = &reg;
  c.trace = &trace;

  const auto model = ExecTimeModel::standard();
  const auto streams = makePoissonStreams(8, 0.02);
  const RunMetrics m = runOnce(c, model, streams);
  EXPECT_GT(m.completed, 0u);

  // Metrics: the headline instruments exist and agree with RunMetrics.
  const auto snap = reg.snapshot();
  EXPECT_GT(snap.size(), 10u);
  bool found_delay = false;
  for (const auto& s : snap) {
    if (s.name == "sim.run.mean_delay_us") {
      found_delay = true;
      EXPECT_NEAR(s.value, m.mean_delay_us, 1e-9);
    }
  }
  EXPECT_TRUE(found_delay);
  EXPECT_EQ(reg.counter("sim.packets.completed").value(), m.completed);

  // Trace: per-processor virtual-time spans, structurally valid.
  EXPECT_GE(trace.trackCount(), 4u);
  EXPECT_GT(trace.recordedCount(), 0u);
  const std::string path = tempPath("obs_test_sim_trace.json");
  ASSERT_TRUE(trace.writeChromeTrace(path));
  const std::string text = readFile(path);
  expectStructurallyValidTrace(text);
  EXPECT_NE(text.find("service"), std::string::npos) << "sim spans must be named";
  fs::remove(path);
}

TEST(Registry, ZeroReloadTransientExportsValidJson) {
  // ΔL1 = 0 is a valid model (nothing to reload at L1). The level counts as
  // perfectly warm, and the exported warm fraction must be a number, not
  // the NaN of 0/0, or the document stops being JSON.
  ReloadParams reload = ReloadParams::measuredUdpReceive();
  reload.dl1_us = 0.0;
  const ExecTimeModel model(FlushModel(MachineParams::sgiChallenge(), SstParams::mvsWorkload()),
                            reload, FootprintShares{});
  SimConfig c = defaultSimConfig();
  c.num_procs = 4;
  c.warmup_us = 10'000.0;
  c.measure_us = 100'000.0;
  MetricsRegistry reg;
  c.metrics = &reg;
  const RunMetrics m = runOnce(c, model, makePoissonStreams(8, 0.02));
  ASSERT_GT(m.completed, 0u);

  EXPECT_EQ(reg.meanStat("sim.affinity.l1_warm_fraction").mean(), 1.0);
  const std::string path = tempPath("obs_test_zero_reload_metrics.json");
  ASSERT_TRUE(reg.writeJson(path));
  const std::string text = readFile(path);
  EXPECT_TRUE(JsonChecker(text).valid()) << text;
  fs::remove(path);
}

const MetricSample* findSample(const std::vector<MetricSample>& snap, const std::string& name) {
  for (const auto& s : snap)
    if (s.name == name) return &s;
  return nullptr;
}

TEST(Registry, SimPublishesTheAccumulatorsRunMetricsComesFrom) {
  // The registry holds the run's own statistics, not a second copy kept
  // beside them: every published figure equals its RunMetrics field exactly.
  SimConfig c = defaultSimConfig();
  c.num_procs = 4;
  c.seed = 11;
  c.warmup_us = 10'000.0;
  c.measure_us = 100'000.0;
  c.policy.paradigm = Paradigm::kLocking;
  c.policy.locking = LockingPolicy::kStealAffinity;
  MetricsRegistry reg;
  c.metrics = &reg;
  const RunMetrics m =
      runOnce(c, ExecTimeModel::standard(), makeBatchStreams(8, 0.012, 4.0));
  ASSERT_GT(m.completed, 0u);
  ASSERT_GT(m.steals, 0u) << "the run must exercise the steal counters";

  const auto snap = reg.snapshot();
  const MetricSample* delay = findSample(snap, "sim.delay_us");
  ASSERT_NE(delay, nullptr);
  EXPECT_EQ(delay->count, m.completed);
  EXPECT_EQ(delay->p50, m.p50_delay_us);
  EXPECT_EQ(delay->p95, m.p95_delay_us);
  EXPECT_EQ(delay->p99, m.p99_delay_us);
  EXPECT_EQ(reg.counter("sim.packets.arrived").value(), m.arrived);
  EXPECT_EQ(reg.counter("sim.packets.completed").value(), m.completed);
  EXPECT_EQ(reg.counter("sim.sched.steal.count").value(), m.steals);
  EXPECT_EQ(reg.counter("sim.sched.steal.jobs").value(), m.stolen_jobs);
  EXPECT_EQ(reg.meanStat("sim.service_us").count(), m.completed);
  EXPECT_NEAR(reg.meanStat("sim.service_us").mean(), m.mean_service_us,
              1e-9 * m.mean_service_us);
  for (unsigned p = 0; p < c.num_procs; ++p) {
    const std::string base = "sim.proc." + std::to_string(p);
    const MetricSample* avg = findSample(snap, base + ".queue_depth_avg");
    const MetricSample* peak = findSample(snap, base + ".queue_depth_peak");
    ASSERT_NE(avg, nullptr);
    ASSERT_NE(peak, nullptr);
    EXPECT_GE(peak->value, avg->value);
  }
}

TEST(Registry, SweepPointsShareOneRegistry) {
  // Parallel sweep points merge into one registry under its mutex; the
  // merged histogram is the same whatever the worker count.
  const auto model = ExecTimeModel::standard();
  const auto sweep = [&](unsigned jobs, MetricsRegistry& reg) {
    std::vector<SweepPoint> points;
    for (std::uint64_t i = 0; i < 6; ++i) {
      SweepPoint p;
      p.config = defaultSimConfig();
      p.config.num_procs = 4;
      p.config.seed = derivePointSeed(2026, i);
      p.config.warmup_us = 5'000.0;
      p.config.measure_us = 40'000.0;
      p.config.metrics = &reg;
      p.streams = makePoissonStreams(8, 0.008 + 0.002 * static_cast<double>(i));
      points.push_back(std::move(p));
    }
    return SweepRunner(jobs).run(model, points);
  };
  MetricsRegistry shared;
  const auto results = sweep(4, shared);
  MetricsRegistry serial;
  sweep(1, serial);

  std::uint64_t completed = 0;
  for (const auto& m : results) completed += m.completed;
  const auto snap = shared.snapshot();
  const auto serial_snap = serial.snapshot();
  const MetricSample* delay = findSample(snap, "sim.delay_us");
  const MetricSample* serial_delay = findSample(serial_snap, "sim.delay_us");
  ASSERT_NE(delay, nullptr);
  ASSERT_NE(serial_delay, nullptr);
  EXPECT_EQ(delay->count, completed);
  EXPECT_EQ(delay->p50, serial_delay->p50);
  EXPECT_EQ(delay->p95, serial_delay->p95);
  EXPECT_EQ(delay->p99, serial_delay->p99);
  EXPECT_EQ(shared.counter("sim.run.count").value(), results.size());
}

}  // namespace
}  // namespace affinity::obs
