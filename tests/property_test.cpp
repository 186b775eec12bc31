// Property-based and parameterized sweeps across modules:
//  * analytic-model invariants over machine geometries,
//  * protocol robustness under systematic corruption (fuzz sweep),
//  * simulation invariants over every scheduling policy,
//  * cachesim inclusion invariants under random access streams.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "cachesim/coherence.hpp"
#include "cachesim/hierarchy.hpp"
#include "core/experiment.hpp"
#include "proto/stack.hpp"

namespace affinity {
namespace {

// ----------------------------------------------------- analytic sweeps -----

class GeometrySweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>> {
};

TEST_P(GeometrySweep, FlushFractionsAreValidAndMonotone) {
  const auto [l1_kb, line, assoc] = GetParam();
  MachineParams m = MachineParams::sgiChallenge();
  m.l1d = {l1_kb * 1024, line, assoc};
  m.l1i = m.l1d;
  const FlushModel fm(m, SstParams::mvsWorkload());
  double prev1 = 0.0, prev2 = 0.0;
  for (double x = 1.0; x < 3e6; x *= 2.7) {
    const double f1 = fm.f1(x), f2 = fm.f2(x);
    ASSERT_GE(f1, 0.0);
    ASSERT_LE(f1, 1.0);
    ASSERT_GE(f2, 0.0);
    ASSERT_LE(f2, 1.0);
    ASSERT_GE(f1, prev1 - 1e-12);
    ASSERT_GE(f2, prev2 - 1e-12);
    prev1 = f1;
    prev2 = f2;
  }
}

TEST_P(GeometrySweep, BiggerL1FlushesSlower) {
  const auto [l1_kb, line, assoc] = GetParam();
  MachineParams small = MachineParams::sgiChallenge();
  small.l1d = {l1_kb * 1024, line, assoc};
  MachineParams big = small;
  big.l1d.size_bytes *= 4;
  const FlushModel fs(small, SstParams::mvsWorkload());
  const FlushModel fb(big, SstParams::mvsWorkload());
  for (double x : {100.0, 1000.0, 10000.0})
    EXPECT_LE(fb.f1(x), fs.f1(x) + 1e-12) << "x=" << x;
}

INSTANTIATE_TEST_SUITE_P(Geometries, GeometrySweep,
                         ::testing::Values(std::make_tuple(8ull, 16u, 1u),
                                           std::make_tuple(16ull, 32u, 1u),
                                           std::make_tuple(16ull, 32u, 2u),
                                           std::make_tuple(32ull, 64u, 4u),
                                           std::make_tuple(64ull, 128u, 2u)));

class ServiceTimeBounds : public ::testing::TestWithParam<double> {};

TEST_P(ServiceTimeBounds, WithinWarmColdEnvelope) {
  const double v = GetParam();
  const auto model = ExecTimeModel::standard();
  Rng rng(404);
  for (int i = 0; i < 500; ++i) {
    CacheStateAges ages;
    ages.code = rng.bernoulli(0.3) ? kColdAge : rng.uniform(0.0, 2e6);
    ages.shared = rng.bernoulli(0.3) ? kColdAge : rng.uniform(0.0, 2e6);
    ages.stream = rng.bernoulli(0.3) ? kColdAge : rng.uniform(0.0, 2e6);
    const double t = model.serviceTime(ages) + v;
    ASSERT_GE(t, model.tWarm() + v - 1e-9);
    ASSERT_LE(t, model.tCold() + v + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(FixedOverheads, ServiceTimeBounds,
                         ::testing::Values(0.0, 35.0, 70.0, 139.0));

// ------------------------------------------------------- protocol fuzz -----

class HeaderCorruption : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HeaderCorruption, EveryHeaderByteFlipIsHandledSafely) {
  // Flipping any single byte of the headers must never crash or corrupt the
  // stack; bytes under the IP header checksum must cause a drop.
  const std::size_t byte_index = GetParam();
  ProtocolStack stack;
  stack.open(7000, 1024);
  FrameSpec spec;
  const std::vector<std::uint8_t> payload{1, 2, 3};
  auto frame = buildUdpFrame(spec, payload);
  ASSERT_LT(byte_index, frame.size());
  for (int bit = 0; bit < 8; ++bit) {
    auto copy = frame;
    copy[byte_index] ^= static_cast<std::uint8_t>(1u << bit);
    const auto ctx = stack.receiveFrame(copy);  // must not crash
    const std::size_t ip_lo = FddiHeader::kSize;
    const std::size_t ip_hi = ip_lo + Ipv4Header::kMinSize;
    if (byte_index >= ip_lo && byte_index < ip_hi) {
      EXPECT_TRUE(ctx.dropped()) << "corrupt IP header byte " << byte_index << " accepted";
    }
  }
  // The stack still works afterwards.
  EXPECT_FALSE(stack.receiveFrame(frame).dropped());
}

INSTANTIATE_TEST_SUITE_P(AllHeaderBytes, HeaderCorruption,
                         ::testing::Range<std::size_t>(0, FddiHeader::kSize +
                                                              Ipv4Header::kMinSize +
                                                              UdpHeader::kSize));

class TruncationSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TruncationSweep, EveryTruncationOffsetIsARecoverableTypedError) {
  // Cutting the frame at any byte offset must produce a typed drop (never a
  // crash): the lost tail always contradicts some length field upstream.
  const std::size_t keep = GetParam();
  ProtocolStack stack;
  stack.open(7000, 1024);
  FrameSpec spec;
  const std::vector<std::uint8_t> payload{9, 8, 7, 6, 5};
  auto frame = buildUdpFrame(spec, payload);
  ASSERT_LT(keep, frame.size());
  auto cut = frame;
  cut.resize(keep);
  const auto ctx = stack.receiveFrame(cut);  // must not crash
  EXPECT_TRUE(ctx.dropped()) << "truncation to " << keep << " bytes accepted";
  EXPECT_NE(ctx.drop, DropReason::kNone);
  // The stack survives and still accepts the intact frame.
  EXPECT_FALSE(stack.receiveFrame(frame).dropped());
}

// The full UDP frame spans FDDI(13) + IP(20) + UDP(8) + 5 payload bytes.
INSTANTIATE_TEST_SUITE_P(AllOffsets, TruncationSweep,
                         ::testing::Range<std::size_t>(0, FddiHeader::kSize +
                                                              Ipv4Header::kMinSize +
                                                              UdpHeader::kSize + 5));

class TcpHeaderCorruption : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TcpHeaderCorruption, EveryTcpHeaderBitFlipIsHandledSafely) {
  // Same contract as the UDP sweep, over the stack's TCP path:
  // any single-bit flip in FDDI/IP/TCP headers is a typed error or a
  // harmless mutation — never a crash — and the stack stays usable.
  const std::size_t byte_index = GetParam();
  ProtocolStack stack;
  stack.tcp().listen(8000);
  TcpFrameSpec spec;
  spec.flags = TcpHeader::kFlagSyn;
  const auto frame = buildTcpFrame(spec, {});
  ASSERT_LT(byte_index, frame.size());
  for (int bit = 0; bit < 8; ++bit) {
    auto copy = frame;
    copy[byte_index] ^= static_cast<std::uint8_t>(1u << bit);
    const auto ctx = stack.receiveFrame(copy);  // must not crash
    const std::size_t ip_lo = FddiHeader::kSize;
    const std::size_t ip_hi = ip_lo + Ipv4Header::kMinSize;
    if (byte_index >= ip_lo && byte_index < ip_hi) {
      EXPECT_TRUE(ctx.dropped()) << "corrupt IP header byte " << byte_index << " accepted";
    }
  }
  // Truncation at this offset is also a typed error, not a crash.
  auto cut = frame;
  cut.resize(byte_index);
  EXPECT_TRUE(stack.receiveFrame(cut).dropped());
  // A fresh stack still accepts the intact segment (the flips above may
  // have legitimately consumed the SYN).
  ProtocolStack fresh;
  fresh.tcp().listen(8000);
  EXPECT_FALSE(fresh.receiveFrame(frame).dropped());
}

INSTANTIATE_TEST_SUITE_P(AllHeaderBytes, TcpHeaderCorruption,
                         ::testing::Range<std::size_t>(0, FddiHeader::kSize +
                                                              Ipv4Header::kMinSize +
                                                              TcpHeader::kMinSize));

class PayloadSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PayloadSizes, RoundTripsThroughTheStack) {
  const std::size_t n = GetParam();
  ProtocolStack stack;
  stack.open(7000, 16);
  std::vector<std::uint8_t> payload(n);
  for (std::size_t i = 0; i < n; ++i) payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
  FrameSpec spec;
  const auto ctx = stack.receiveFrame(buildUdpFrame(spec, payload));
  ASSERT_FALSE(ctx.dropped()) << dropReasonName(ctx.drop);
  EXPECT_EQ(ctx.payload_bytes, n);
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(stack.udp().find(7000)->read(out));
  EXPECT_EQ(out, payload);
}

// 4352 bytes ≈ FDDI MTU payload-ish upper end; 0 and 1 exercise odd-byte
// checksum paths.
INSTANTIATE_TEST_SUITE_P(Sizes, PayloadSizes,
                         ::testing::Values(0, 1, 2, 3, 31, 32, 512, 1471, 4352));

// ------------------------------------------------- simulation invariants ---

struct PolicyCase {
  Paradigm paradigm;
  LockingPolicy locking;
  IpsPolicy ips;
};

class PolicySweep : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(PolicySweep, ConservationAndThroughputAtModerateLoad) {
  const PolicyCase pc = GetParam();
  SimConfig c;
  c.num_procs = 8;
  c.policy.paradigm = pc.paradigm;
  c.policy.locking = pc.locking;
  c.policy.ips = pc.ips;
  c.policy.hybrid_locking_streams = {0, 1, 2};
  c.warmup_us = 0.0;
  c.measure_us = 600'000.0;
  const double rate = 0.015;
  const RunMetrics m = runOnce(c, ExecTimeModel::standard(), makePoissonStreams(12, rate));
  EXPECT_EQ(m.arrived, m.completed + m.backlog_end);
  EXPECT_FALSE(m.saturated);
  EXPECT_NEAR(m.throughput_per_us, rate, 0.08 * rate);
  EXPECT_GE(m.mean_delay_us, m.mean_service_us - 1e-9);
  EXPECT_GT(m.utilization, 0.0);
  EXPECT_LE(m.utilization, 1.0);
  EXPECT_GE(m.p95_delay_us, m.p50_delay_us);
  EXPECT_GE(m.p99_delay_us, m.p95_delay_us);
}

TEST_P(PolicySweep, DelayIsMonotoneInLoadWithinNoise) {
  const PolicyCase pc = GetParam();
  SimConfig c;
  c.num_procs = 8;
  c.policy.paradigm = pc.paradigm;
  c.policy.locking = pc.locking;
  c.policy.ips = pc.ips;
  c.policy.hybrid_locking_streams = {0, 1, 2};
  c.warmup_us = 100'000.0;
  c.measure_us = 900'000.0;
  const auto model = ExecTimeModel::standard();
  const RunMetrics lo = runOnce(c, model, makePoissonStreams(12, 0.004));
  const RunMetrics hi = runOnce(c, model, makePoissonStreams(12, 0.035));
  // Queueing at 0.035 must dominate any service-time warming effects.
  EXPECT_GT(hi.mean_delay_us + 25.0, lo.mean_delay_us);
  EXPECT_GT(hi.utilization, lo.utilization);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicySweep,
    ::testing::Values(PolicyCase{Paradigm::kLocking, LockingPolicy::kFcfs, IpsPolicy::kWired},
                      PolicyCase{Paradigm::kLocking, LockingPolicy::kMru, IpsPolicy::kWired},
                      PolicyCase{Paradigm::kLocking, LockingPolicy::kStreamMru, IpsPolicy::kWired},
                      PolicyCase{Paradigm::kLocking, LockingPolicy::kWiredStreams,
                                 IpsPolicy::kWired},
                      PolicyCase{Paradigm::kIps, LockingPolicy::kMru, IpsPolicy::kRandom},
                      PolicyCase{Paradigm::kIps, LockingPolicy::kMru, IpsPolicy::kMru},
                      PolicyCase{Paradigm::kIps, LockingPolicy::kMru, IpsPolicy::kWired},
                      PolicyCase{Paradigm::kHybrid, LockingPolicy::kMru, IpsPolicy::kWired},
                      PolicyCase{Paradigm::kHybrid, LockingPolicy::kStreamMru,
                                 IpsPolicy::kMru}));

class StackCountSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(StackCountSweep, IpsWorksForAnyStackCount) {
  SimConfig c;
  c.num_procs = 4;
  c.policy.paradigm = Paradigm::kIps;
  c.policy.ips = IpsPolicy::kWired;
  c.policy.ips_stacks = GetParam();
  c.warmup_us = 0.0;
  c.measure_us = 400'000.0;
  const RunMetrics m = runOnce(c, ExecTimeModel::standard(), makePoissonStreams(9, 0.008));
  EXPECT_EQ(m.arrived, m.completed + m.backlog_end);
  EXPECT_GT(m.completed, 1000u);
}

INSTANTIATE_TEST_SUITE_P(StackCounts, StackCountSweep, ::testing::Values(1u, 2u, 3u, 4u, 7u, 16u));

// --------------------------------------------------- cachesim invariants ---

TEST(HierarchyInvariant, InclusionHoldsUnderRandomAccesses) {
  MachineParams m;
  m.l1i = {2048, 32, 1};
  m.l1d = {2048, 32, 2};
  m.l2 = {16384, 128, 1};
  Hierarchy h(m);
  Rng rng(77);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t addr = rng.uniform_u64(1u << 20);
    const auto kind = static_cast<RefKind>(rng.uniform_u64(3));
    h.access(addr, kind);
    if (i % 500 == 0) {
      // Every L1-resident line must be L2-resident (inclusion).
      for (std::uint64_t a = 0; a < (1u << 20); a += 32) {
        if (h.l1d().contains(a) || h.l1i().contains(a)) {
          ASSERT_TRUE(h.l2().contains(a)) << "inclusion violated at " << std::hex << a;
        }
      }
    }
  }
}

TEST(HierarchyInvariant, StatsAreConsistent) {
  MachineParams m;
  m.l1i = {2048, 32, 1};
  m.l1d = {2048, 32, 1};
  m.l2 = {16384, 128, 1};
  Hierarchy h(m);
  Rng rng(78);
  for (int i = 0; i < 5000; ++i) h.access(rng.uniform_u64(1u << 18), RefKind::kLoad);
  const auto& d = h.l1d().stats();
  const auto& l2 = h.l2().stats();
  EXPECT_EQ(d.accesses, 5000u);
  EXPECT_LE(d.misses, d.accesses);
  EXPECT_EQ(l2.accesses, d.misses) << "every L1D miss probes L2 (no I-fetches issued)";
  EXPECT_LE(h.l1d().residentLineCount(), m.l1d.lines());
  EXPECT_LE(h.l2().residentLineCount(), m.l2.lines());
}

TEST(CoherenceInvariant, NoStaleDirtyReadsAcrossProcessors) {
  // Writer/reader ping-pong: after a store by one processor, a load by any
  // other must pay at least an L2 miss (never a silent stale hit).
  MachineParams m;
  m.l1i = {2048, 32, 1};
  m.l1d = {2048, 32, 1};
  m.l2 = {16384, 128, 1};
  CoherentSystem sys(m, 4);
  Rng rng(79);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t addr = rng.uniform_u64(1u << 14);
    const unsigned writer = static_cast<unsigned>(rng.uniform_u64(4));
    sys.access(writer, addr, RefKind::kStore);
    const unsigned reader = (writer + 1 + static_cast<unsigned>(rng.uniform_u64(3))) % 4;
    const auto out = sys.access(reader, addr, RefKind::kLoad);
    ASSERT_TRUE(out.l1_miss) << "reader hit a line the writer had invalidated";
  }
}

}  // namespace
}  // namespace affinity
