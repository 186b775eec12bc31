// Tests for the INI config parser and the scenario builder.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <initializer_list>
#include <set>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "obs/metrics.hpp"
#include "util/config.hpp"

namespace affinity {
namespace {

// ----------------------------------------------------------------- config --

TEST(ConfigFileTest, ParsesSectionsAndTypes) {
  const auto cfg = ConfigFile::parse(R"(
# comment
top = 1
[machine]
processors = 8
ratio = 2.5
flag = true
name = challenge  ; not a comment marker mid-line? no: full-line only
)");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->getInt("top", 0), 1);
  EXPECT_EQ(cfg->getInt("machine.processors", 0), 8);
  EXPECT_DOUBLE_EQ(cfg->getDouble("machine.ratio", 0.0), 2.5);
  EXPECT_TRUE(cfg->getBool("machine.flag", false));
  EXPECT_EQ(cfg->getInt("absent", 42), 42);
  EXPECT_TRUE(cfg->has("machine.processors"));
  EXPECT_FALSE(cfg->has("machine.absent"));
}

TEST(ConfigFileTest, SectionExtraction) {
  const auto cfg = ConfigFile::parse("[a]\nx = 1\ny = 2\n[b]\nz = 3\n");
  ASSERT_TRUE(cfg.has_value());
  const auto a = cfg->section("a");
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.at("x"), "1");
  EXPECT_EQ(cfg->section("b").at("z"), "3");
  EXPECT_TRUE(cfg->section("missing").empty());
}

TEST(ConfigFileTest, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(ConfigFile::parse("[unterminated\nx = 1\n", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ConfigFile::parse("novalue\n", &error).has_value());
  EXPECT_FALSE(ConfigFile::parse("= nokey\n", &error).has_value());
}

TEST(ConfigFileTest, MissingFileReportsError) {
  std::string error;
  EXPECT_FALSE(ConfigFile::load("/nonexistent/file.ini", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(ConfigFileTest, WhitespaceAndCrlfTolerated) {
  const auto cfg = ConfigFile::parse("  key  =  value with spaces  \r\n");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->getString("key", ""), "value with spaces");
}

// --------------------------------------------------------------- scenario --

std::optional<Scenario> scenarioFrom(const std::string& text, std::string* error = nullptr) {
  const auto cfg = ConfigFile::parse(text, error);
  if (!cfg) return std::nullopt;
  return buildScenario(*cfg, error);
}

TEST(ScenarioTest, DefaultsMatchThePaperSetup) {
  const auto s = scenarioFrom("");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->config.num_procs, 8u);
  EXPECT_EQ(s->config.policy.paradigm, Paradigm::kLocking);
  EXPECT_EQ(s->config.policy.locking, LockingPolicy::kMru);
  EXPECT_EQ(s->streams.count(), 16u);
  EXPECT_NEAR(s->streams.totalRatePerUs(), 0.012, 1e-9);
  EXPECT_NEAR(s->model.tCold(), 284.3, 0.05);
}

TEST(ScenarioTest, FullConfigurationApplies) {
  const auto s = scenarioFrom(R"(
[machine]
processors = 4
bus_occupancy = 0.35
[model]
profile = tcp-receive
[workload]
type = batch
streams = 8
rate_pkts_per_s = 9000
batch = 12
[policy]
paradigm = ips
ips = mru
stacks = 6
[run]
seed = 99
v_us = 70
confident = true
)");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->config.num_procs, 4u);
  EXPECT_DOUBLE_EQ(s->config.bus_occupancy_fraction, 0.35);
  EXPECT_EQ(s->config.policy.paradigm, Paradigm::kIps);
  EXPECT_EQ(s->config.policy.ips, IpsPolicy::kMru);
  EXPECT_EQ(s->config.policy.ips_stacks, 6u);
  EXPECT_EQ(s->config.seed, 99u);
  EXPECT_DOUBLE_EQ(s->config.fixed_overhead_us, 70.0);
  EXPECT_TRUE(s->run_until_confident);
  EXPECT_NEAR(s->model.tWarm(), 156.1, 0.01);
  // The profile selects its footprint shares along with its reload
  // parameters: the TCP PCB makes the receive path stream-state heavy.
  EXPECT_DOUBLE_EQ(s->model.shares().l1_stream, 0.56);
  EXPECT_DOUBLE_EQ(s->model.shares().l2_stream, 0.26);
  EXPECT_EQ(s->streams.count(), 8u);
}

TEST(ScenarioTest, HybridStreamListParsed) {
  const auto s = scenarioFrom(
      "[policy]\nparadigm = hybrid\nhybrid_locking_streams = 0,3,7\n");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->config.policy.hybrid_locking_streams,
            (std::vector<std::uint32_t>{0, 3, 7}));
}

TEST(ScenarioTest, RejectsUnknownEnumValues) {
  std::string error;
  EXPECT_FALSE(scenarioFrom("[policy]\nparadigm = quantum\n", &error).has_value());
  EXPECT_NE(error.find("paradigm"), std::string::npos);
  EXPECT_FALSE(scenarioFrom("[workload]\ntype = fractal\n", &error).has_value());
  EXPECT_FALSE(scenarioFrom("[model]\nprofile = carrier-pigeon\n", &error).has_value());
}

TEST(ScenarioTest, NetDispatchSectionParsed) {
  // The NIC front-end reads [net]; the historical [policy] spelling remains
  // a fallback so every pre-section scenario parses identically.
  const auto s = scenarioFrom("[net]\ndispatch = tfn\ntfn_window = 8\n");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->config.dispatch, net::NicDispatchMode::kTransportFriendly);
  EXPECT_EQ(s->config.tfn_window, 8u);

  const auto alias = scenarioFrom("[net]\ndispatch = transport-friendly\n");
  ASSERT_TRUE(alias.has_value());
  EXPECT_EQ(alias->config.dispatch, net::NicDispatchMode::kTransportFriendly);
  EXPECT_EQ(alias->config.tfn_window, net::NicDispatcher::kDefaultTfnWindow);

  const auto legacy = scenarioFrom("[policy]\ndispatch = fdir\n");
  ASSERT_TRUE(legacy.has_value());
  EXPECT_EQ(legacy->config.dispatch, net::NicDispatchMode::kFlowDirector);

  std::string error;
  EXPECT_FALSE(scenarioFrom("[net]\ndispatch = quantum\n", &error).has_value());
  EXPECT_NE(error.find("net.dispatch"), std::string::npos);
  EXPECT_FALSE(scenarioFrom("[net]\ndispatch = tfn\ntfn_window = 0\n", &error).has_value());
  EXPECT_NE(error.find("tfn_window"), std::string::npos);
}

// Each case's scenario text must fail to parse with an error naming `key`.
struct RejectCase {
  const char* text;
  const char* key;
};

void expectRejectedNamingKey(std::initializer_list<RejectCase> cases) {
  for (const RejectCase& c : cases) {
    SCOPED_TRACE(c.text);
    std::string error;
    EXPECT_FALSE(scenarioFrom(c.text, &error).has_value());
    EXPECT_NE(error.find(c.key), std::string::npos) << error;
  }
}

TEST(ScenarioTest, RejectsOutOfRangeIntegerKeys) {
  // Integer keys stored in unsigned fields are range-checked when parsed:
  // a negative or oversized value must fail with the key's name instead of
  // wrapping into a huge (or, past 2^32, a small and plausible) count.
  expectRejectedNamingKey({
      {"[policy]\nparadigm = ips\nstacks = -1\n", "policy.stacks"},
      {"[net]\ndispatch = tfn\ntfn_window = -1\n", "net.tfn_window"},
      {"[workload]\nstreams = -1\n", "workload.streams"},
      {"[machine]\nprocessors = 4294967304\n", "machine.processors"},
  });
}

TEST(ScenarioTest, RejectsBadReloadParameters) {
  // The reload transient t = t_warm + F1·ΔL1 + F2·ΔL2 needs a positive warm
  // time and non-negative transients; the LLC split carves a fraction of
  // ΔL2 into ΔL3. A bad value fails with its key's name when parsed, not as
  // a CHECK abort when the model is built.
  expectRejectedNamingKey({
      {"[model]\nt_warm_us = 0\n", "model.t_warm_us"},
      {"[model]\nt_warm_us = -1\n", "model.t_warm_us"},
      {"[model]\ndl1_us = -5\n", "model.dl1_us"},
      {"[model]\ndl2_us = -0.5\n", "model.dl2_us"},
      {"[cache]\ntopology = modern-llc\nllc_split = 1.5\n", "cache.llc_split"},
      {"[cache]\ntopology = modern-llc\nllc_split = -0.1\n", "cache.llc_split"},
  });
  // The boundaries are accepted: a level may have nothing to reload.
  EXPECT_TRUE(scenarioFrom("[model]\ndl1_us = 0\ndl2_us = 0\n").has_value());
  EXPECT_TRUE(scenarioFrom("[cache]\ntopology = modern-llc\nllc_split = 1\n").has_value());
  EXPECT_TRUE(scenarioFrom("[cache]\ntopology = modern-llc\nllc_split = 0\n").has_value());
}

TEST(ScenarioTest, RejectsBadRunAndMachineValues) {
  // Each of these would abort the run (a negative delay schedules an event
  // before "now"), divide by a zero window (a NaN throughput and invalid
  // metrics JSON), or run with a meaningless machine. NaN fails too.
  expectRejectedNamingKey({
      {"[machine]\nlock_overhead_us = -1000\n", "machine.lock_overhead_us"},
      {"[machine]\nlock_overhead_us = nan\n", "machine.lock_overhead_us"},
      {"[machine]\ncritical_section_us = -1\n", "machine.critical_section_us"},
      {"[machine]\nbus_occupancy = -0.1\n", "machine.bus_occupancy"},
      {"[machine]\nbus_occupancy = 1.5\n", "machine.bus_occupancy"},
      {"[machine]\nbus_occupancy = nan\n", "machine.bus_occupancy"},
      {"[run]\nv_us = -500\n", "run.v_us"},
      {"[run]\nmeasure_us = 0\n", "run.measure_us"},
      {"[run]\nmeasure_us = -1\n", "run.measure_us"},
      {"[run]\nmeasure_us = nan\n", "run.measure_us"},
      {"[run]\nwarmup_us = -1\n", "run.warmup_us"},
  });
  // The boundaries are accepted.
  EXPECT_TRUE(scenarioFrom("[machine]\nlock_overhead_us = 0\ncritical_section_us = 0\n"
                           "bus_occupancy = 1\n[run]\nwarmup_us = 0\nv_us = 0\n")
                  .has_value());
}

TEST(ScenarioTest, RejectsWorkloadPolicyAndFlowValuesThatAbortARun) {
  // Each workload value would abort the run when its arrival processes are
  // built (a zero-rate stream, a batch or train shorter than one packet, a
  // train whose cars outlast its arrival period); a negative steal penalty
  // schedules a completion before "now", and an infinite one never completes
  // a stolen packet (the run ends "saturated"); a flow fraction outside [0, 1] is
  // a meaningless shedding rule. NaN fails too.
  expectRejectedNamingKey({
      {"[workload]\nrate_pkts_per_s = nan\n", "workload.rate_pkts_per_s"},
      {"[workload]\nrate_pkts_per_s = inf\n", "workload.rate_pkts_per_s"},
      {"[workload]\nrate_pkts_per_s = 0\n", "workload.rate_pkts_per_s"},
      {"[workload]\nstreams = 0\n", "workload.streams"},
      {"[workload]\ntype = batch\nbatch = 0\n", "workload.batch"},
      {"[workload]\ntype = batch\nbatch = nan\n", "workload.batch"},
      {"[workload]\ntype = train\ntrain_len = 0\n", "workload.train_len"},
      {"[workload]\ntype = train\nintercar_gap_us = -1\n", "workload.intercar_gap_us"},
      {"[workload]\ntype = train\nintercar_gap_us = 2000\n", "workload.intercar_gap_us"},
      {"[workload]\ntype = hotcold\nhot_share = 1.5\n", "workload.hot_share"},
      {"[workload]\ntype = hotcold\nhot_share = 0\n", "workload.hot_share"},
      {"[workload]\ntype = zipf\nzipf_alpha = nan\n", "workload.zipf_alpha"},
      {"[workload]\ntype = zipf\nzipf_alpha = 5000\n", "workload.zipf_alpha"},
      {"[workload]\ntype = churn\nchurn_span_us = nan\n", "workload.churn_span_us"},
      {"[workload]\ntype = churn\nchurn_span_us = inf\n", "workload.churn_span_us"},
      {"[policy]\nlocking = steal-affinity\nsteal_penalty_us = -1000\n",
       "policy.steal_penalty_us"},
      {"[policy]\nlocking = steal-affinity\nsteal_penalty_us = nan\n",
       "policy.steal_penalty_us"},
      {"[policy]\nlocking = steal-affinity\nsteal_penalty_us = inf\n",
       "policy.steal_penalty_us"},
      {"[flow]\nhigh_water = 1.5\n", "flow.high_water"},
      {"[flow]\nlow_water = -0.1\n", "flow.low_water"},
      {"[flow]\nadmit_fraction = 2\n", "flow.admit_fraction"},
      {"[flow]\nadmit_fraction = nan\n", "flow.admit_fraction"},
  });
  // The boundaries are accepted.
  EXPECT_TRUE(scenarioFrom("[workload]\ntype = batch\nbatch = 1\n").has_value());
  EXPECT_TRUE(
      scenarioFrom("[workload]\ntype = train\ntrain_len = 1\nintercar_gap_us = 0\n").has_value());
  EXPECT_TRUE(scenarioFrom("[workload]\ntype = zipf\nzipf_alpha = 0\n").has_value());
  EXPECT_TRUE(scenarioFrom("[workload]\ntype = churn\nchurn_span_us = 0\n").has_value());
  EXPECT_TRUE(scenarioFrom("[policy]\nlocking = steal-affinity\nsteal_penalty_us = 0\n"
                           "[flow]\nhigh_water = 1\nlow_water = 0\nadmit_fraction = 1\n")
                  .has_value());
}

TEST(ScenarioTest, RejectsKeysTheSelectedModeIgnores) {
  // A key read by one mode only must fail, with its name, under any other
  // mode instead of running with the key silently ignored.
  expectRejectedNamingKey({
      {"[net]\ndispatch = direct\ntfn_window = 8\n", "net.tfn_window"},
      {"[net]\ndispatch = fdir\ntfn_window = 8\n", "net.tfn_window"},
      {"[policy]\nlocking = mru\nsteal_batch = 4\n", "policy.steal_batch"},
      {"[policy]\nlocking = wired-streams\nsteal_min_queue = 2\n", "policy.steal_min_queue"},
      {"[policy]\nsteal_penalty_us = 5\n", "policy.steal_penalty_us"},
      {"[policy]\nparadigm = locking\nhybrid_locking_streams = 0,3\n",
       "policy.hybrid_locking_streams"},
      {"[policy]\nparadigm = ips\nhybrid_locking_streams = 1\n",
       "policy.hybrid_locking_streams"},
  });
  EXPECT_TRUE(scenarioFrom("[policy]\nlocking = steal-affinity\nsteal_batch = 4\n"
                           "steal_min_queue = 2\nsteal_penalty_us = 5\n")
                  .has_value());
}

TEST(ScenarioTest, RejectsAdaptiveWithoutHybrid) {
  std::string error;
  EXPECT_FALSE(
      scenarioFrom("[policy]\nparadigm = locking\nadaptive = true\n", &error).has_value());
  EXPECT_NE(error.find("adaptive"), std::string::npos);
}

TEST(ScenarioTest, RejectsMissingTraceFile) {
  std::string error;
  EXPECT_FALSE(scenarioFrom("[workload]\ntype = trace\n", &error).has_value());
  EXPECT_FALSE(
      scenarioFrom("[workload]\ntype = trace\ntrace_file = /nonexistent\n", &error).has_value());
}

// Quick-tier determinism sweep over every shipped scenario: each INI in
// scenarios/ must load, build, and reproduce itself bit-exactly on a
// re-run with the same seed — including the adversarial flow-churn
// scenarios (flood_collision.ini is chaos-harness-shaped and builds a
// default sim scenario here; churn_storm.ini exercises the bounded flow
// table end to end). The soak tier extends the same sweep to serial vs
// parallel shards (determinism_test.cpp, GoldenSeed.ParallelMatchesSerial);
// this one stays sub-second so it rides the inner loop. Each run also
// reads the event kernel's dequeue scan cost, bounded at 4 entries per
// executed event (docs/MODEL.md §7) except where bursts are spread over
// processors.
TEST(ScenarioTest, ShippedScenariosRerunBitIdentically) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(fs::path(AFF_SOURCE_ROOT) / "scenarios")) {
    if (entry.path().extension() == ".ini") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  // Bursts served across several processors: each burst schedules a dense
  // run of completions that the calendar's one width, taken from the
  // pending events before they exist, does not see. These read 4.6-7.2
  // entries per event here (ROADMAP item 12).
  const std::set<std::string> burst_spread{"adaptive_media_server.ini", "rss_media_server.ini",
                                           "tfn_media_server.ini"};
  for (const auto& path : files) {
    SCOPED_TRACE(path.filename().string());
    std::string error;
    const auto cfg = ConfigFile::load(path.string(), &error);
    ASSERT_TRUE(cfg.has_value()) << error;
    auto sc = buildScenario(*cfg, &error);
    ASSERT_TRUE(sc.has_value()) << error;
    // Tiny windows keep the whole sweep quick-tier; determinism must hold
    // for any window.
    sc->config.warmup_us = std::min(sc->config.warmup_us, 2'000.0);
    sc->config.measure_us = std::min(sc->config.measure_us, 20'000.0);
    sc->config.parallel_procs = 0;
    // Both runs publish to a registry, so they also pin the kernel's scan
    // cost on every configuration the repo ships.
    obs::MetricsRegistry reg;
    sc->config.metrics = &reg;
    const RunMetrics a = runOnce(sc->config, sc->model, sc->streams);
    const RunMetrics b = runOnce(sc->config, sc->model, sc->streams);
    const obs::MeanStat& scan = reg.meanStat("sim.kernel.entries_scanned_per_event");
    EXPECT_EQ(scan.count(), 2u);
    EXPECT_LE(scan.max(), burst_spread.contains(path.filename().string()) ? 8.0 : 4.0);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.arrived, b.arrived);
    EXPECT_EQ(a.mean_delay_us, b.mean_delay_us);
    EXPECT_EQ(a.p99_delay_us, b.p99_delay_us);
    EXPECT_EQ(a.throughput_per_us, b.throughput_per_us);
    EXPECT_EQ(a.flow_inserts, b.flow_inserts);
    EXPECT_EQ(a.flow_evictions, b.flow_evictions);
    EXPECT_EQ(a.flow_shed, b.flow_shed);
  }
}

TEST(ScenarioTest, BuiltScenarioRunsEndToEnd) {
  auto s = scenarioFrom(R"(
[workload]
streams = 8
rate_pkts_per_s = 10000
[run]
warmup_us = 50000
measure_us = 300000
)");
  ASSERT_TRUE(s.has_value());
  const RunMetrics m = runOnce(s->config, s->model, s->streams);
  EXPECT_GT(m.completed, 1000u);
  EXPECT_FALSE(m.saturated);
}

}  // namespace
}  // namespace affinity
