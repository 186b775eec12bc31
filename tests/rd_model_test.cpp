// rd_model_test — the reuse-distance cache model validated differentially
// against the trace-driven cachesim (ROADMAP item 4).
//
// Three batteries:
//
//  1. Exact micro-trace properties of the RD histogram capture: cyclic
//     single-stream and interleaved traces have closed-form stack
//     distances, a streaming scan has none, and the hit curve must be
//     monotone. These hold exactly (the first 64 distances are exact bins).
//  2. Profile determinism: byte-identical serialization for identical
//     captures, round-trips, and independence from the SweepRunner worker
//     count that produced them.
//  3. The differential battery: for EVERY shipped scenarios/*.ini, build
//     one packet trace, feed the identical trace to the cachesim hierarchy
//     (ground truth) and to the RD capture + RdCacheModel (prediction), and
//     require per-level global miss ratios (misses / total references) to
//     agree within kDiffTolAbs. A coverage counter asserts no scenario is
//     silently skipped. This is the quick-tier (downsampled) run; the
//     full-length replay lives in golden_llc_test (soak tier).
//
// The per-level tolerance (and why it is honest) is documented in
// rd_differential.hpp next to the machinery both tiers share.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "rd_differential.hpp"

#include "cache/flush.hpp"
#include "cache/reuse.hpp"
#include "cachesim/rd_capture.hpp"
#include "core/scenario.hpp"
#include "core/sweep_runner.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"

namespace affinity {
namespace {

// ------------------------------------------------- histogram properties --

// Feeds K cyclically repeated lines through an RdMonitor-backed histogram.
RdHistogram cyclicHistogram(std::uint64_t lines, unsigned rounds) {
  RdHistogram h;
  RdMonitor mon(32, &h, nullptr);
  for (unsigned r = 0; r < rounds; ++r)
    for (std::uint64_t l = 0; l < lines; ++l) mon.observe(l * 32);
  return h;
}

TEST(RdHistogram, CyclicSingleStreamExact) {
  // 0,1,...,15 repeated: every re-access has exactly 15 distinct lines in
  // between, so RD = 15 for all (N-1)*16 reuses and 16 compulsory misses.
  const unsigned kRounds = 10;
  const RdHistogram h = cyclicHistogram(16, kRounds);
  EXPECT_EQ(h.total(), 16u * kRounds);
  EXPECT_EQ(h.cold(), 16u);
  EXPECT_EQ(h.finite(), 16u * (kRounds - 1));
  // Capacity 16 lines holds the loop: only the colds miss.
  EXPECT_DOUBLE_EQ(h.hitsFullyAssoc(16.0), 16.0 * (kRounds - 1));
  EXPECT_DOUBLE_EQ(h.missRatioFullyAssoc(16.0), 1.0 / kRounds);
  // Capacity 15 lines misses everything (LRU evicts the line just before
  // its reuse).
  EXPECT_DOUBLE_EQ(h.hitsFullyAssoc(15.0), 0.0);
  EXPECT_DOUBLE_EQ(h.missRatioFullyAssoc(15.0), 1.0);
}

TEST(RdHistogram, TwoInterleavedStreamsExact) {
  // A0 B0 A1 B1 ... over two 16-line cyclic streams: each re-access now has
  // 31 distinct lines in between (its own 15 plus the other stream's 16).
  RdHistogram h;
  RdMonitor mon(32, &h, nullptr);
  const unsigned kRounds = 8;
  for (unsigned r = 0; r < kRounds; ++r)
    for (std::uint64_t l = 0; l < 16; ++l) {
      mon.observe(l * 32);                  // stream A
      mon.observe((1u << 20) + l * 32);     // stream B
    }
  EXPECT_EQ(h.total(), 2u * 16u * kRounds);
  EXPECT_EQ(h.cold(), 32u);
  EXPECT_DOUBLE_EQ(h.missRatioFullyAssoc(32.0), 1.0 / kRounds);
  EXPECT_DOUBLE_EQ(h.missRatioFullyAssoc(31.0), 1.0);
  // Interleaving doubled every distance relative to the isolated stream —
  // the capacity that sufficed alone no longer does.
  EXPECT_DOUBLE_EQ(cyclicHistogram(16, kRounds).missRatioFullyAssoc(16.0), 1.0 / kRounds);
  EXPECT_DOUBLE_EQ(h.missRatioFullyAssoc(16.0), 1.0);
}

TEST(RdHistogram, StreamingScanAllCold) {
  // A pure streaming scan re-references nothing: every access is cold and
  // no finite capacity helps.
  RdHistogram h;
  FootprintCurve fp;
  RdMonitor mon(32, &h, &fp);
  const std::uint64_t kN = 4096;
  for (std::uint64_t l = 0; l < kN; ++l) mon.observe(l * 32);
  mon.finish();
  EXPECT_EQ(h.total(), kN);
  EXPECT_EQ(h.cold(), kN);
  EXPECT_EQ(h.finite(), 0u);
  for (double c : {1.0, 64.0, 1e4, 1e9}) EXPECT_DOUBLE_EQ(h.missRatioFullyAssoc(c), 1.0);
  EXPECT_EQ(mon.distinctLines(), kN);
  // u(n) = n for a scan; the checkpoints interpolate a linear function.
  EXPECT_NEAR(fp.lines(1000.0), 1000.0, 1e-6);
  EXPECT_EQ(fp.capLines(), kN);
}

TEST(RdHistogram, MissCurveMonotoneNonIncreasing) {
  // Random distances spanning exact bins, geometric buckets, and colds.
  RdHistogram h;
  Rng rng(2026);
  for (int i = 0; i < 50'000; ++i) {
    if (rng.uniform() < 0.05) {
      h.addCold();
    } else {
      h.add(rng.uniform_u64(1u << 20));
    }
  }
  double prev = 1.0;
  for (double c = 1.0; c < 4e6; c *= 1.17) {
    const double mr = h.missRatioFullyAssoc(c);
    EXPECT_LE(mr, prev + 1e-12) << "capacity " << c;
    EXPECT_GE(mr, 0.0);
    EXPECT_LE(mr, 1.0);
    prev = mr;
  }
  // Colds never hit: the floor is the cold fraction.
  EXPECT_NEAR(prev, static_cast<double>(h.cold()) / static_cast<double>(h.total()), 1e-9);
}

TEST(RdHistogram, SerializeRoundTrip) {
  RdHistogram h;
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) h.add(rng.uniform_u64(1u << 16));
  for (int i = 0; i < 37; ++i) h.addCold();
  std::string s;
  h.serialize(&s);
  RdHistogram back;
  ASSERT_TRUE(back.deserialize(s));
  std::string s2;
  back.serialize(&s2);
  EXPECT_EQ(s, s2);
  EXPECT_EQ(back.total(), h.total());
  EXPECT_EQ(back.cold(), h.cold());
}

// ---------------------------------------------- footprint curve lookup --

// u(n) evaluated the direct way: scan the samples in order for the first
// one at or past `refs`, and refit the power-law tail on every call. The
// curve's own lookup must match it bit-for-bit.
double linesLinearScan(const FootprintCurve& c, double refs) {
  const auto& s = c.samples();
  if (refs <= 0.0 || s.empty()) return 0.0;
  const double cap = c.capLines() > 0 ? static_cast<double>(c.capLines())
                                      : std::numeric_limits<double>::infinity();
  const double r0 = static_cast<double>(s.front().first);
  const double l0 = static_cast<double>(s.front().second);
  if (refs <= r0) return std::min({l0 * refs / r0, refs, cap});
  for (std::size_t i = 1; i < s.size(); ++i) {
    const double r1 = static_cast<double>(s[i].first);
    if (refs > r1) continue;
    const double ra = static_cast<double>(s[i - 1].first);
    const double la = static_cast<double>(s[i - 1].second);
    const double lb = static_cast<double>(s[i].second);
    const double t = (refs - ra) / (r1 - ra);
    return std::min(la + t * (lb - la), cap);
  }
  const double rn = static_cast<double>(s.back().first);
  const double ln = static_cast<double>(s.back().second);
  std::size_t j = s.size() - 1;
  while (j > 0 && static_cast<double>(s[j].first) > rn / 10.0) --j;
  const double rj = static_cast<double>(s[j].first);
  const double lj = static_cast<double>(s[j].second);
  double expo = 0.0;
  if (rj < rn && lj > 0.0 && ln > lj) {
    expo = std::clamp(std::log(ln / lj) / std::log(rn / rj), 0.0, 1.0);
  }
  return std::min(ln * std::pow(refs / rn, expo), cap);
}

// Every sample, one ulp either side of it, midpoints, the region below the
// first sample and far into the extrapolated tail.
std::vector<double> curveProbePoints(const FootprintCurve& c) {
  std::vector<double> xs = {-1.0, 0.0, 1e-9, 0.5, 1.0};
  const auto& s = c.samples();
  for (std::size_t i = 0; i < s.size(); ++i) {
    const double r = static_cast<double>(s[i].first);
    xs.push_back(r);
    xs.push_back(std::nextafter(r, 0.0));
    xs.push_back(std::nextafter(r, std::numeric_limits<double>::infinity()));
    if (i + 1 < s.size()) xs.push_back(0.5 * (r + static_cast<double>(s[i + 1].first)));
  }
  if (!s.empty()) {
    const double r0 = static_cast<double>(s.front().first);
    const double rn = static_cast<double>(s.back().first);
    for (double f : {0.5, 1.0 / 3.0}) xs.push_back(r0 * f);
    for (double f : {1.0000001, 1.5, 2.0, 10.0, 1e3, 1e6}) xs.push_back(rn * f);
  }
  xs.push_back(1e30);
  return xs;
}

// A ~100-sample concave curve on geometric checkpoints, the shape
// RdMonitor captures; `cap` 0 leaves it uncapped.
FootprintCurve syntheticCurve(std::uint64_t cap) {
  FootprintCurve c;
  for (double n = 64.0; n < 1e8; n *= 1.15) {
    const auto r = static_cast<std::uint64_t>(n);
    c.addSample(r, static_cast<std::uint64_t>(30.0 * std::pow(n, 0.7)));
  }
  c.setCap(cap);
  return c;
}

std::vector<FootprintCurve> curvesUnderTest() {
  std::vector<FootprintCurve> curves = {syntheticCurve(0), syntheticCurve(1u << 30),
                                        syntheticCurve(50'000)};
  FootprintCurve one;
  one.addSample(100, 40);
  curves.push_back(one);
  FootprintCurve two;
  two.addSample(100, 40);
  two.addSample(5'000, 900);
  curves.push_back(two);
  FootprintCurve flat;  // a saturated tail: exponent 0
  for (std::uint64_t n = 64; n <= 1u << 16; n *= 2) {
    flat.addSample(n, std::min<std::uint64_t>(n, 700));
  }
  curves.push_back(flat);
  const RdProfile captured = captureProtocolRdProfile(
      MachineParams::sgiChallenge(), ProtocolLayout::standard(), ProtocolTraceParams{}, 4, 24, 42);
  curves.push_back(captured.fp_l1);
  curves.push_back(captured.fp_l2);
  return curves;
}

TEST(FootprintCurve, LookupBitIdenticalToLinearScan) {
  for (const FootprintCurve& c : curvesUnderTest()) {
    SCOPED_TRACE(::testing::Message() << c.samples().size() << " samples, cap " << c.capLines());
    for (double r : curveProbePoints(c)) EXPECT_EQ(c.lines(r), linesLinearScan(c, r)) << r;
  }
}

TEST(FootprintCurve, SerializeRoundTripKeepsEveryLookup) {
  for (const FootprintCurve& c : curvesUnderTest()) {
    std::string text;
    c.serialize(&text);
    FootprintCurve back;
    ASSERT_TRUE(back.deserialize(text));
    for (double r : curveProbePoints(c)) EXPECT_EQ(back.lines(r), c.lines(r)) << r;
  }
}

// -------------------------------------------------- occupancy solver -----

TEST(RdOccupancy, SymmetricStreamsSplitEqually) {
  // Two identical streaming footprints bigger than the cache: equal rates
  // must get equal shares summing to the capacity.
  FootprintCurve fp;
  for (std::uint64_t n = 64; n <= 1u << 20; n *= 2) fp.addSample(n, n / 2);
  fp.setCap(1u << 19);
  const std::vector<const FootprintCurve*> fps = {&fp, &fp};
  const auto occ = RdCacheModel::solveOccupancy(10'000.0, fps, {20.0, 20.0});
  ASSERT_EQ(occ.size(), 2u);
  EXPECT_NEAR(occ[0], occ[1], 1e-6);
  EXPECT_NEAR(occ[0] + occ[1], 10'000.0, 10.0);
}

TEST(RdOccupancy, EverythingFitsKeepsFullFootprints) {
  FootprintCurve small;
  for (std::uint64_t n = 64; n <= 1u << 14; n *= 2) small.addSample(n, std::min<std::uint64_t>(n, 500));
  small.setCap(500);
  const std::vector<const FootprintCurve*> fps = {&small, &small, &small};
  const auto occ = RdCacheModel::solveOccupancy(1e6, fps, {10.0, 10.0, 10.0});
  for (double c : occ) EXPECT_NEAR(c, 500.0, 1e-6);
}

TEST(RdOccupancy, FasterStreamGetsLargerShare) {
  FootprintCurve fp;
  for (std::uint64_t n = 64; n <= 1u << 20; n *= 2) fp.addSample(n, n / 2);
  fp.setCap(1u << 19);
  const std::vector<const FootprintCurve*> fps = {&fp, &fp};
  const auto occ = RdCacheModel::solveOccupancy(10'000.0, fps, {30.0, 10.0});
  EXPECT_GT(occ[0], occ[1]);
  EXPECT_NEAR(occ[0] + occ[1], 10'000.0, 10.0);
}

// ------------------------------------------------ profile determinism ----

TEST(RdProfile, CaptureSerializesByteIdentically) {
  const MachineParams m = MachineParams::sgiChallenge();
  const RdProfile a = captureProtocolRdProfile(m, ProtocolLayout::standard(),
                                               ProtocolTraceParams{}, 4, 24, 42);
  const RdProfile b = captureProtocolRdProfile(m, ProtocolLayout::standard(),
                                               ProtocolTraceParams{}, 4, 24, 42);
  EXPECT_EQ(a.serialize(), b.serialize());
  EXPECT_GT(a.total_refs, 0u);
  // Round trip.
  const auto back = RdProfile::deserialize(a.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->serialize(), a.serialize());
  EXPECT_EQ(back->total_refs, a.total_refs);
  EXPECT_EQ(back->ifetch_refs, a.ifetch_refs);
}

TEST(RdProfile, ByteIdenticalAcrossSweepRunnerJobs) {
  // The capture must be a pure function of its parameters: profiles built
  // on 1 worker and on 4 concurrent workers serialize byte-identically
  // (this is what lets `cache.model = reuse` scenarios reproduce across
  // --jobs counts).
  const MachineParams m = MachineParams::modern2020();
  const auto capture = [&](std::size_t) {
    return captureProtocolRdProfile(m, ProtocolLayout::standard(), ProtocolTraceParams{}, 4, 16,
                                    7).serialize();
  };
  const auto serial = SweepRunner(1).map(4, capture);
  const auto parallel = SweepRunner(4).map(4, capture);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(serial[i], serial[0]);
    EXPECT_EQ(parallel[i], serial[0]);
  }
}

TEST(RdProfile, CachedModelMemoizesAcrossThreads) {
  RdCaptureParams p;
  p.profile_streams = 2;
  p.profile_packets = 8;
  p.profile_bg_refs = 20'000;
  const auto fetch = [&](std::size_t) {
    return cachedDefaultRdModel(MachineParams::sgiChallenge(), p);
  };
  const auto models = SweepRunner(4).map(6, fetch);
  for (const auto& mp : models) EXPECT_EQ(mp.get(), models[0].get());
}

// ---------------------------------------------- differential battery -----

TEST(RdModelDifferential, EveryShippedScenarioAgreesPerLevel) {
  // Quick tier: downsampled to 64 packets per scenario (~10^5 refs each);
  // golden_llc_test repeats the identical battery at 512 packets in soak.
  rd_diff::runDifferentialBattery(AFF_SOURCE_ROOT, 64);
}

// --------------------------------------------- scenario [cache] seam -----

std::optional<Scenario> scenarioFrom(const std::string& text, std::string* error = nullptr) {
  const auto cfg = ConfigFile::parse(text, error);
  if (!cfg) return std::nullopt;
  return buildScenario(*cfg, error);
}

TEST(ScenarioCache, DefaultStaysSst) {
  const auto s = scenarioFrom("[workload]\nstreams = 4\n");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->model.kind(), CacheModelKind::kSst);
  EXPECT_EQ(s->model.reloadParams().dl3_us, 0.0);
}

TEST(ScenarioCache, ReuseModelSelectable) {
  const auto s = scenarioFrom(
      "[cache]\nmodel = reuse\nprofile_streams = 2\nprofile_packets = 8\n"
      "profile_bg_refs = 20000\n");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->model.kind(), CacheModelKind::kReuse);
  ASSERT_NE(s->model.reuseModel(), nullptr);
  EXPECT_EQ(s->model.reloadParams().dl3_us, 0.0);  // 1995 topology: no LLC
}

TEST(ScenarioCache, ModernTopologySplitsReloadPreservingTCold) {
  const auto s = scenarioFrom(
      "[cache]\nmodel = reuse\ntopology = modern-llc\nprofile_streams = 2\n"
      "profile_packets = 8\nprofile_bg_refs = 20000\n");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->model.kind(), CacheModelKind::kReuse);
  EXPECT_GT(s->model.reloadParams().dl3_us, 0.0);
  EXPECT_NEAR(s->model.tCold(), ExecTimeModel::standard().tCold(), 1e-9);
  ASSERT_NE(s->model.reuseModel(), nullptr);
  EXPECT_GT(s->model.reuseModel()->llcShareLines(), 0.0);
}

TEST(ScenarioCache, ReuseFlushBitIdenticalToCurveComposition) {
  // RdCacheModel's flush fractions, rebuilt from the public pieces: the
  // background's footprint curves and fractionDisplaced. Shared-LLC
  // topology with the default co-runner count, so f3 sums the other
  // co-runners' traffic.
  const auto s = scenarioFrom(
      "[cache]\nmodel = reuse\ntopology = modern-llc\nprofile_streams = 2\n"
      "profile_packets = 8\nprofile_bg_refs = 20000\n");
  ASSERT_TRUE(s.has_value());
  const RdCacheModel& rd = *s->model.reuseModel();
  ASSERT_GT(rd.coRunners(), 1u);
  const MachineParams& m = rd.machine();
  const RdProfile& bg = rd.background();
  const RdProfile& proto = rd.protocol();
  const double duty = RdCaptureParams{}.protocol_duty;
  const auto displaced = [](double u, const CacheLevelParams& level) {
    return fractionDisplaced(u, static_cast<double>(level.sets()), level.associativity);
  };
  for (double x : {0.0, 1e-3, 0.4, 1.0, 13.0, 240.0, 5'000.0, 7.7e4, 3e6, 1e9}) {
    SCOPED_TRACE(x);
    const double refs = x * m.refsPerMicrosecond();
    const double want1 =
        x > 0.0 ? displaced(bg.fp_l1.lines(refs * (1.0 - bg.ifetchFraction())), m.l1d) : 0.0;
    const double want2 = x > 0.0 ? displaced(bg.fp_l2.lines(refs), m.l2) : 0.0;
    const double others = static_cast<double>(rd.coRunners() - 1);
    const double u3 = bg.fp_l2.lines(refs) + others * (proto.fp_l2.lines(refs * duty) +
                                                       bg.fp_l2.lines(refs * (1.0 - duty)));
    const double want3 = x > 0.0 ? displaced(u3, m.llc) : 0.0;
    EXPECT_EQ(rd.f1(x), want1);
    EXPECT_EQ(rd.f2(x), want2);
    EXPECT_EQ(rd.f3(x), want3);
  }
}

TEST(ScenarioCache, RejectsUnknownValues) {
  std::string error;
  EXPECT_FALSE(scenarioFrom("[cache]\nmodel = quantum\n", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(scenarioFrom("[cache]\ntopology = numa\n", &error).has_value());
  EXPECT_FALSE(scenarioFrom("[cache]\nmodel = reuse\nduty = 1.5\n", &error).has_value());
  EXPECT_FALSE(scenarioFrom("[cache]\nmodel = reuse\nco_runners = 0\n", &error).has_value());
}

}  // namespace
}  // namespace affinity
