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
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

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
  g.add(-1.0);
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
  TimeWeightedStat tw;
  tw.set(0.0, 0.0);
  tw.set(10.0, 4.0);  // level 0 for [0,10)
  tw.set(30.0, 1.0);  // level 4 for [10,30)
  tw.finalize(40.0);  // level 1 for [30,40)
  // (0*10 + 4*20 + 1*10) / 40 = 2.25
  EXPECT_DOUBLE_EQ(tw.average(), 2.25);
  EXPECT_DOUBLE_EQ(tw.maxLevel(), 4.0);
  EXPECT_DOUBLE_EQ(tw.level(), 1.0);
}

TEST(Metrics, TimeWeightedIgnoresBackwardsTime) {
  TimeWeightedStat tw;
  tw.set(0.0, 2.0);
  tw.set(10.0, 4.0);
  tw.set(5.0, 8.0);  // time regression: level updates, no negative area
  tw.finalize(20.0);
  // area = 2*10 + 8*10 = 100 over [0,20]
  EXPECT_DOUBLE_EQ(tw.average(), 5.0);
}

TEST(Metrics, LatencyHistoQuantiles) {
  LatencyHisto h(0.05, 9, 32);
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.overflow, 0u);
  EXPECT_NEAR(s.mean, 50.5, 1e-9);
  // Bucketed quantiles land within one log-bucket (~7.5 %) of the truth.
  EXPECT_NEAR(s.p50, 50.0, 50.0 * 0.08);
  EXPECT_NEAR(s.p95, 95.0, 95.0 * 0.08);
  EXPECT_NEAR(s.p99, 99.0, 99.0 * 0.08);
}

TEST(Metrics, LatencyHistoOverflowAndUnderflow) {
  LatencyHisto h(1.0, 2, 8);  // covers [1, 100)
  h.add(0.5);     // underflow
  h.add(1e9);     // overflow
  h.add(10.0);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.overflow, 1u);
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
  reg.timeWeighted("sim.queue.global_depth").set(0.0, 1.0);
  reg.timeWeighted("sim.queue.global_depth").finalize(10.0);
  reg.histogram("sim.delay_us").add(100.0);
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
  c.metrics_exclusive = true;
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
  c.metrics_exclusive = true;
  const RunMetrics m = runOnce(c, model, makePoissonStreams(8, 0.02));
  ASSERT_GT(m.completed, 0u);

  EXPECT_EQ(reg.meanStat("sim.affinity.l1_warm_fraction").mean(), 1.0);
  const std::string path = tempPath("obs_test_zero_reload_metrics.json");
  ASSERT_TRUE(reg.writeJson(path));
  const std::string text = readFile(path);
  EXPECT_TRUE(JsonChecker(text).valid()) << text;
  fs::remove(path);
}

}  // namespace
}  // namespace affinity::obs
