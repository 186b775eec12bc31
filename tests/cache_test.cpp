// Tests for src/cache: the SST footprint power law, set-occupancy flush
// fractions, per-level flush model, and the reload-transient execution-time
// model — including the paper's headline numbers (t_cold = 284.3 µs, L2
// flushed much more slowly than L1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/exec_time.hpp"
#include "cache/flush.hpp"
#include "cache/footprint.hpp"
#include "cache/machine.hpp"
#include "cache/reuse.hpp"
#include "util/rng.hpp"

namespace affinity {
namespace {

// ------------------------------------------------------------ geometry ----

TEST(Machine, ChallengeGeometry) {
  const MachineParams m = MachineParams::sgiChallenge();
  EXPECT_EQ(m.l1d.sets(), 16u * 1024 / 32);
  EXPECT_EQ(m.l2.sets(), 1024u * 1024 / 128);
  EXPECT_EQ(m.l1i.lines(), 512u);
  EXPECT_DOUBLE_EQ(m.refsPerMicrosecond(), 20.0);  // 100 MHz / 5 cycles/ref
}

// ------------------------------------------------------------ footprint ---

class FootprintMonotone : public ::testing::TestWithParam<double> {};

TEST_P(FootprintMonotone, NondecreasingInRefs) {
  const SstParams p = SstParams::mvsWorkload();
  const double line = GetParam();
  double prev = 0.0;
  for (double refs = 10.0; refs <= 1e9; refs *= 3.7) {
    const double u = uniqueLines(p, refs, line);
    EXPECT_GE(u, prev) << "refs=" << refs << " L=" << line;
    EXPECT_LE(u, refs) << "u cannot exceed the reference count";
    prev = u;
  }
}

INSTANTIATE_TEST_SUITE_P(Lines, FootprintMonotone, ::testing::Values(16.0, 32.0, 64.0, 128.0));

TEST(Footprint, LargerLinesTouchFewerUniqueLines) {
  const SstParams p = SstParams::mvsWorkload();
  const double refs = 1e6;
  EXPECT_GT(uniqueLines(p, refs, 16.0), uniqueLines(p, refs, 32.0));
  EXPECT_GT(uniqueLines(p, refs, 32.0), uniqueLines(p, refs, 128.0));
}

TEST(Footprint, ZeroAndTinyRefs) {
  const SstParams p = SstParams::mvsWorkload();
  EXPECT_DOUBLE_EQ(uniqueLines(p, 0.0, 32.0), 0.0);
  EXPECT_DOUBLE_EQ(uniqueLines(p, 0.5, 32.0), 0.5);  // clamped at refs
}

TEST(Footprint, SpatialLocalityIsSubLinear) {
  // Doubling the line size should reduce unique lines by less than 2x
  // (consecutive references share lines but not perfectly).
  const SstParams p = SstParams::mvsWorkload();
  const double u32 = uniqueLines(p, 1e6, 32.0);
  const double u64 = uniqueLines(p, 1e6, 64.0);
  EXPECT_GT(u64, u32 / 2.0);
  EXPECT_LT(u64, u32);
}

TEST(Footprint, InverseRecoversRefs) {
  const SstParams p = SstParams::mvsWorkload();
  const double refs = 5e5;
  const double u = uniqueLines(p, refs, 32.0);
  EXPECT_NEAR(refsForUniqueLines(p, u, 32.0), refs, refs * 1e-3);
}

TEST(Footprint, LawBitIdenticalToEquationTwo) {
  // SstLevelLaw computes the line-size terms once; every value must stay
  // bit-for-bit paper eq. 2 as written, evaluated left to right.
  const SstParams p = SstParams::mvsWorkload();
  for (double line : {16.0, 32.0, 64.0, 128.0}) {
    const SstLevelLaw law(p, line);
    for (double refs : {-1.0, 0.0, 0.5, 1.0, 1.0000001, 2.0, 3.7, 1e3, 123'456.7, 1e9, 1e15}) {
      double want = refs > 0.0 ? refs : 0.0;
      if (refs > 1.0) {
        const double logL = std::log10(line);
        const double logR = std::log10(refs);
        const double log_u = std::log10(p.W) + p.a * logL + p.b * logR + p.log_d * logL * logR;
        want = std::min(refs, std::pow(10.0, log_u));
      }
      EXPECT_EQ(law.lines(refs), want) << "refs=" << refs << " L=" << line;
      EXPECT_EQ(uniqueLines(p, refs, line), want) << "refs=" << refs << " L=" << line;
    }
  }
}

// ---------------------------------------------------------- displacement --

TEST(FractionDisplaced, DirectMappedClosedForm) {
  // u interfering lines into S sets, A=1: F = 1 - (1-1/S)^u.
  const double S = 512.0;
  for (double u : {1.0, 50.0, 512.0, 5000.0}) {
    const double expected = 1.0 - std::pow(1.0 - 1.0 / S, u);
    EXPECT_NEAR(fractionDisplaced(u, S, 1), expected, 1e-12);
  }
}

TEST(FractionDisplaced, BoundsAndMonotone) {
  double prev = 0.0;
  for (double u = 0.0; u < 1e5; u = u * 2 + 1) {
    const double f = fractionDisplaced(u, 512.0, 1);
    EXPECT_GE(f, prev);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    prev = f;
  }
  EXPECT_DOUBLE_EQ(fractionDisplaced(0.0, 512.0, 1), 0.0);
}

TEST(FractionDisplaced, AssociativityApproachesFullyAssociativeLimit) {
  // At fixed total line count, higher associativity wastes fewer interfering
  // lines on collisions with each other, so the displaced fraction grows
  // with A toward the fully-associative limit u / total_lines.
  const double u = 400.0, S = 512.0;
  const double f1 = fractionDisplaced(u, S, 1);
  const double f2 = fractionDisplaced(u, S / 2, 2);  // same total lines
  const double f8 = fractionDisplaced(u, S / 8, 8);
  EXPECT_LT(f1, f2);
  EXPECT_LT(f2, f8);
  EXPECT_LE(f8, u / S + 0.02);
}

TEST(FractionDisplaced, DefaultDisplacementIsAOneLineCache) {
  // A default Displacement is the one-set direct-mapped cache its fields
  // name: any interfering line displaces everything, as fractionDisplaced
  // says for the same geometry.
  const Displacement one_line;
  for (double u : {0.0, 0.5, 1.0, 7.0, 1e9}) {
    EXPECT_EQ(one_line.fraction(u), fractionDisplaced(u, 1.0, 1)) << u;
  }
  EXPECT_EQ(one_line.fraction(1.0), 1.0);
}

// -------------------------------------------------------------- flush -----

TEST(FlushModel, L2FlushesMuchMoreSlowlyThanL1) {
  // The paper's Figure 4 observation.
  const FlushModel fm(MachineParams::sgiChallenge(), SstParams::mvsWorkload());
  for (double x : {100.0, 1000.0, 10000.0}) {
    EXPECT_GT(fm.f1(x), 4.0 * fm.f2(x)) << "x=" << x;
  }
  // L1 is mostly flushed within a few ms; L2 needs ~1 s.
  EXPECT_GT(fm.f1(5000.0), 0.95);
  EXPECT_LT(fm.f2(5000.0), 0.3);
  EXPECT_GT(fm.f2(1e6), 0.9);
}

TEST(FlushModel, MonotoneNondecreasingInTime) {
  const FlushModel fm(MachineParams::sgiChallenge(), SstParams::mvsWorkload());
  double p1 = 0.0, p2 = 0.0;
  for (double x = 1.0; x < 1e7; x *= 2.3) {
    const double f1 = fm.f1(x), f2 = fm.f2(x);
    EXPECT_GE(f1, p1);
    EXPECT_GE(f2, p2);
    p1 = f1;
    p2 = f2;
  }
}

TEST(FlushModel, ZeroAtZeroGap) {
  const FlushModel fm(MachineParams::sgiChallenge(), SstParams::mvsWorkload());
  EXPECT_DOUBLE_EQ(fm.f1(0.0), 0.0);
  EXPECT_DOUBLE_EQ(fm.f2(0.0), 0.0);
}

// Ages that exercise every branch of the flush functions: zero, the
// sub-reference range uniqueLines returns as-is, the interior of both
// levels' curves, saturation, and non-round values.
std::vector<double> flushAgeGrid() {
  std::vector<double> xs = {0.0, 1e-3, 0.05, 0.1, 0.5, 1.0, 7.25, 135.7, 284.3};
  for (double x = 1.0; x < 1e8; x *= 1.37) xs.push_back(x);
  return xs;
}

// The reference composition: paper eq. 2 through the public free functions,
// per level, exactly as the flush model is specified in flush.hpp.
double referenceFlush(const MachineParams& m, const SstParams& sst, const CacheLevelParams& level,
                      double ref_share, double x_us) {
  const double refs = x_us > 0.0 ? x_us * m.refsPerMicrosecond() : 0.0;
  const double u = uniqueLines(sst, refs * ref_share, level.line_bytes);
  return fractionDisplaced(u, static_cast<double>(level.sets()), level.associativity);
}

TEST(FlushModel, BitIdenticalToFreeFunctionComposition) {
  // The flush model may precompute whatever does not depend on x, but every
  // value must stay bit-for-bit the composition of uniqueLines and
  // fractionDisplaced: the golden pins and the sim digest depend on it.
  const SstParams sst = SstParams::mvsWorkload();
  for (const MachineParams& m : {MachineParams::sgiChallenge(), MachineParams::modern2020()}) {
    const FlushModel fm(m, sst);
    for (double x : flushAgeGrid()) {
      SCOPED_TRACE(x);
      EXPECT_EQ(fm.f1(x), referenceFlush(m, sst, m.l1d, 1.0 - m.ifetch_fraction, x));
      EXPECT_EQ(fm.f2(x), referenceFlush(m, sst, m.l2, 1.0, x));
      EXPECT_EQ(fm.f3(x), m.llc.size_bytes > 0 ? referenceFlush(m, sst, m.llc, 1.0, x) : 0.0);
    }
  }
}

// ------------------------------------------------------------ exec time ---

TEST(ExecTime, PaperColdTime) {
  const ReloadParams r = ReloadParams::measuredUdpReceive();
  EXPECT_NEAR(r.tCold(), 284.3, 0.05);  // the paper's measured value
}

TEST(ExecTime, WarmAndColdEndpoints) {
  const auto m = ExecTimeModel::standard();
  EXPECT_DOUBLE_EQ(m.serviceTime({0.0, 0.0, 0.0}), m.tWarm());
  EXPECT_NEAR(m.serviceTime({kColdAge, kColdAge, kColdAge}), m.tCold(), 1e-9);
}

TEST(ExecTime, MonotoneInEveryComponentAge) {
  const auto m = ExecTimeModel::standard();
  double prev = 0.0;
  for (double x = 0.0; x < 1e6; x = x * 2 + 1) {
    const double t = m.serviceTime({x, 0.0, 0.0});
    EXPECT_GE(t, prev);
    prev = t;
  }
  // Stream-component cold costs its per-level shares of the transients.
  const double stream_cold = m.serviceTime({0.0, 0.0, kColdAge});
  const double expected = m.tWarm() + m.shares().l1_stream * m.reloadParams().dl1_us +
                          m.shares().l2_stream * m.reloadParams().dl2_us;
  EXPECT_NEAR(stream_cold, expected, 1e-9);
}

TEST(ExecTime, BoundsHoldForRandomAges) {
  const auto m = ExecTimeModel::standard();
  Rng rng(31);
  for (int i = 0; i < 2000; ++i) {
    CacheStateAges ages;
    ages.code = rng.bernoulli(0.2) ? kColdAge : rng.uniform(0.0, 1e6);
    ages.shared = rng.bernoulli(0.2) ? kColdAge : rng.uniform(0.0, 1e6);
    ages.stream = rng.bernoulli(0.2) ? kColdAge : rng.uniform(0.0, 1e6);
    const double t = m.serviceTime(ages);
    EXPECT_GE(t, m.tWarm());
    EXPECT_LE(t, m.tCold() + 1e-9);
  }
}

// serviceParts as the sum of the per-component flush fractions, written
// out without any sharing between components.
ExecTimeModel::ServiceParts referenceParts(const ExecTimeModel& m, const CacheStateAges& a) {
  const FootprintShares& s = m.shares();
  const ReloadParams& r = m.reloadParams();
  const double l1 = s.l1_code * m.f1At(a.code) + s.l1_shared * m.f1At(a.shared) +
                    s.l1_stream * m.f1At(a.stream);
  const double l2 = s.l2_code * m.f2At(a.code) + s.l2_shared * m.f2At(a.shared) +
                    s.l2_stream * m.f2At(a.stream);
  double l3 = 0.0;
  if (r.dl3_us > 0.0) {
    l3 = s.l2_code * m.f3At(std::min(a.code, a.code_any)) +
         s.l2_shared * m.f3At(std::min(a.shared, a.shared_any)) +
         s.l2_stream * m.f3At(std::min(a.stream, a.stream_any));
  }
  return {r.t_warm_us, l1 * r.dl1_us, l2 * r.dl2_us, l3 * r.dl3_us};
}

// Equal and distinct component ages, the shapes the simulator produces:
// Locking touches code and shared data together, IPS passes one stack age
// for shared and stream.
std::vector<CacheStateAges> serviceAgeCases() {
  std::vector<CacheStateAges> cases;
  for (double x : {0.0, 3.5, 240.0, 9'000.0, 2.5e6, kColdAge}) {
    for (double y : {0.0, 17.0, 240.0, 4.1e5, kColdAge}) {
      cases.push_back({x, x, x});                          // all equal
      cases.push_back({x, x, y});                          // Locking: shared == code
      cases.push_back({x, y, y});                          // IPS: stream == shared
      cases.push_back({x, y, x});                          // stream == code only
      cases.push_back({x, y, y + 1.0});                    // all distinct
      cases.push_back({x, x, y, x * 0.5, y, y * 0.25});    // LLC ages set
      cases.push_back({kColdAge, kColdAge, kColdAge, x, y, y});
    }
  }
  return cases;
}

void expectPartsBitIdentical(const ExecTimeModel& m) {
  for (const CacheStateAges& a : serviceAgeCases()) {
    SCOPED_TRACE(::testing::Message() << a.code << " " << a.shared << " " << a.stream << " / "
                                      << a.code_any << " " << a.shared_any << " "
                                      << a.stream_any);
    const auto got = m.serviceParts(a);
    const auto want = referenceParts(m, a);
    EXPECT_EQ(got.base, want.base);
    EXPECT_EQ(got.l1, want.l1);
    EXPECT_EQ(got.l2, want.l2);
    EXPECT_EQ(got.l3, want.l3);
  }
}

// A hand-built reuse-distance profile: footprint curves u(n) = k·n^e on
// geometric checkpoints, enough to drive RdCacheModel without a capture.
RdProfile syntheticProfile(double k, double e) {
  RdProfile p;
  p.total_refs = 1'000'000;
  p.ifetch_refs = 450'000;
  for (double n = 64.0; n < 1e7; n *= 1.5) {
    const auto refs = static_cast<std::uint64_t>(n);
    p.fp_l1.addSample(refs, static_cast<std::uint64_t>(k * std::pow(n, e)));
    p.fp_l2.addSample(refs, static_cast<std::uint64_t>(0.5 * k * std::pow(n, e)));
  }
  return p;
}

TEST(ExecTime, ServicePartsBitIdenticalToPerComponentSum) {
  const ReloadParams llc_reload = ReloadParams::measuredUdpReceive().splitForSharedLlc();
  expectPartsBitIdentical(ExecTimeModel::standard());
  // Shared-LLC topology: the third level and its *_any ages.
  expectPartsBitIdentical(ExecTimeModel(
      FlushModel(MachineParams::modern2020(), SstParams::mvsWorkload()), llc_reload,
      FootprintShares{}));
  // The reuse-distance model, with co-runners displacing the shared LLC.
  const auto rd = std::make_shared<const RdCacheModel>(
      MachineParams::modern2020(), syntheticProfile(0.6, 0.8), syntheticProfile(0.9, 0.85), 4);
  expectPartsBitIdentical(ExecTimeModel(rd, llc_reload, FootprintShares{}));
}

TEST(ExecTime, InvalidSharesRejected) {
  FootprintShares bad;
  bad.l1_code = 0.9;
  bad.l1_shared = 0.9;
  bad.l1_stream = 0.9;
  EXPECT_FALSE(bad.valid());
  EXPECT_DEATH(ExecTimeModel(FlushModel(MachineParams::sgiChallenge(), SstParams::mvsWorkload()),
                             ReloadParams::measuredUdpReceive(), bad),
               "CHECK failed");
}

TEST(ExecTime, SendSideIsCheaper) {
  const ReloadParams recv = ReloadParams::measuredUdpReceive();
  const ReloadParams send = ReloadParams::measuredUdpSend();
  EXPECT_LT(send.t_warm_us, recv.t_warm_us);
  EXPECT_LT(send.tCold(), recv.tCold());
}

}  // namespace
}  // namespace affinity
