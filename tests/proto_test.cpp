// Tests for src/proto: packet cursor semantics, RFC 1071 checksums, header
// codecs, per-layer validation/drop paths, demux, and full-stack round trips.
#include <gtest/gtest.h>

#include <array>
#include <string>

#include "proto/checksum.hpp"
#include "proto/headers.hpp"
#include "proto/send.hpp"
#include "proto/stack.hpp"

namespace affinity {
namespace {

std::vector<std::uint8_t> bytesOf(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

// --------------------------------------------------------------- Packet ---

TEST(Packet, PullAdvancesCursor) {
  const std::vector<std::uint8_t> frame{1, 2, 3, 4, 5};
  Packet p = Packet::fromFrame(frame);
  const auto h = p.pull(2);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ((*h)[0], 1);
  EXPECT_EQ((*h)[1], 2);
  EXPECT_EQ(p.size(), 3u);
  EXPECT_EQ(p.bytes()[0], 3);
}

TEST(Packet, PushPrependsWithinHeadroom) {
  Packet p = Packet::withHeadroom(8);
  const std::vector<std::uint8_t> payload{9, 9};
  p.append(payload);
  auto h = p.push(2);
  h[0] = 7;
  h[1] = 8;
  EXPECT_EQ(p.size(), 4u);
  EXPECT_EQ(p.bytes()[0], 7);
  EXPECT_EQ(p.bytes()[3], 9);
}

TEST(Packet, PushGrowsWhenHeadroomShort) {
  Packet p = Packet::withHeadroom(1);
  p.append(std::array<std::uint8_t, 1>{5});
  auto h = p.push(4);
  h[0] = 1;
  EXPECT_EQ(p.size(), 5u);
  EXPECT_EQ(p.bytes()[0], 1);
  EXPECT_EQ(p.bytes()[4], 5);
}

TEST(Packet, TruncateDropsTail) {
  Packet p = Packet::fromFrame(std::array<std::uint8_t, 5>{1, 2, 3, 4, 5});
  EXPECT_TRUE(p.truncate(3));
  EXPECT_EQ(p.size(), 3u);
}

TEST(Packet, PullPastEndFailsRecoverably) {
  Packet p = Packet::fromFrame(std::array<std::uint8_t, 2>{1, 2});
  EXPECT_FALSE(p.pull(3).has_value());
  EXPECT_EQ(p.size(), 2u) << "failed pull must not move the cursor";
  EXPECT_TRUE(p.pull(2).has_value()) << "packet remains usable after a short pull";
}

TEST(Packet, TruncatePastEndFailsRecoverably) {
  Packet p = Packet::fromFrame(std::array<std::uint8_t, 2>{1, 2});
  EXPECT_FALSE(p.truncate(3));
  EXPECT_EQ(p.size(), 2u) << "failed truncate must leave the packet intact";
}

// ------------------------------------------------------------- Checksum ---

TEST(Checksum, Rfc1071ReferenceVector) {
  // Classic example from RFC 1071 §3: 00 01 f2 03 f4 f5 f6 f7 -> sum ddf2,
  // checksum ~ddf2 = 220d.
  const std::array<std::uint8_t, 8> data{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internetChecksum(data), 0x220d);
}

TEST(Checksum, OddLengthPadsWithZero) {
  const std::array<std::uint8_t, 3> data{0x01, 0x02, 0x03};
  // Words: 0x0102, 0x0300 -> sum 0x0402 -> ~ = 0xfbfd.
  EXPECT_EQ(internetChecksum(data), 0xfbfd);
}

TEST(Checksum, ValidatesOwnOutput) {
  std::vector<std::uint8_t> data = bytesOf("the quick brown fox!");
  data.push_back(0);
  data.push_back(0);
  const std::uint16_t ck = internetChecksum(data);
  data[data.size() - 2] = static_cast<std::uint8_t>(ck >> 8);
  data[data.size() - 1] = static_cast<std::uint8_t>(ck);
  EXPECT_TRUE(checksumValid(data));
  data[0] ^= 0x40;
  EXPECT_FALSE(checksumValid(data));
}

TEST(Checksum, IncrementalMatchesOneShot) {
  const auto data = bytesOf("abcdefgh12345678");
  ChecksumAccumulator acc;
  acc.add(std::span(data).first(6));
  acc.add(std::span(data).subspan(6));
  EXPECT_EQ(acc.finish(), internetChecksum(data));
}

// -------------------------------------------------------------- Headers ---

TEST(Headers, FddiRoundTrip) {
  FddiHeader h;
  h.dst = {1, 2, 3, 4, 5, 6};
  h.src = {7, 8, 9, 10, 11, 12};
  std::array<std::uint8_t, FddiHeader::kSize> buf{};
  h.encode(buf);
  const auto d = FddiHeader::decode(buf);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->dst, h.dst);
  EXPECT_EQ(d->src, h.src);
  EXPECT_EQ(d->ethertype, FddiHeader::kEtherTypeIpv4);
}

TEST(Headers, FddiRejectsShortOrNonSnap) {
  std::array<std::uint8_t, FddiHeader::kSize> buf{};
  FddiHeader{}.encode(buf);
  EXPECT_FALSE(FddiHeader::decode(std::span(buf).first(10)).has_value());
  buf[13] = 0x00;  // break DSAP
  EXPECT_FALSE(FddiHeader::decode(buf).has_value());
}

TEST(Headers, Ipv4RoundTripWithValidChecksum) {
  Ipv4Header h;
  h.total_length = 120;
  h.identification = 0xbeef;
  h.ttl = 17;
  h.src = 0x0a000001;
  h.dst = 0x0a000002;
  std::array<std::uint8_t, Ipv4Header::kMinSize> buf{};
  h.encode(buf);
  EXPECT_TRUE(checksumValid(buf));
  const auto d = Ipv4Header::decode(buf);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->total_length, 120);
  EXPECT_EQ(d->identification, 0xbeef);
  EXPECT_EQ(d->ttl, 17);
  EXPECT_EQ(d->src, 0x0a000001u);
  EXPECT_EQ(d->dst, 0x0a000002u);
  EXPECT_FALSE(d->isFragment());
}

TEST(Headers, Ipv4FragmentFlags) {
  Ipv4Header h;
  h.flags = 0x1;  // MF
  h.fragment_offset = 0;
  std::array<std::uint8_t, Ipv4Header::kMinSize> buf{};
  h.encode(buf);
  auto d = Ipv4Header::decode(buf);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->moreFragments());
  EXPECT_TRUE(d->isFragment());

  h.flags = 0;
  h.fragment_offset = 100;
  h.encode(buf);
  d = Ipv4Header::decode(buf);
  EXPECT_TRUE(d->isFragment());
  EXPECT_FALSE(d->moreFragments());
}

TEST(Headers, Ipv4RejectsBadIhl) {
  std::array<std::uint8_t, Ipv4Header::kMinSize> buf{};
  Ipv4Header{}.encode(buf);
  buf[0] = 0x42;  // version 4, ihl 2 (< 5)
  EXPECT_FALSE(Ipv4Header::decode(buf).has_value());
}

TEST(Headers, UdpRoundTrip) {
  UdpHeader h{.src_port = 1234, .dst_port = 7000, .length = 30, .checksum = 0xabcd};
  std::array<std::uint8_t, UdpHeader::kSize> buf{};
  h.encode(buf);
  const auto d = UdpHeader::decode(buf);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->src_port, 1234);
  EXPECT_EQ(d->dst_port, 7000);
  EXPECT_EQ(d->length, 30);
  EXPECT_EQ(d->checksum, 0xabcd);
}

// ----------------------------------------------------------- Full stack ---

class StackFixture : public ::testing::Test {
 protected:
  StackFixture() { stack_.open(7000); }

  std::vector<std::uint8_t> goodFrame(const std::string& payload, std::uint16_t port = 7000) {
    FrameSpec spec;
    spec.dst_port = port;
    return buildUdpFrame(spec, bytesOf(payload));
  }

  ProtocolStack stack_;
};

TEST_F(StackFixture, DeliversValidFrameToSession) {
  const auto ctx = stack_.receiveFrame(goodFrame("hello world"));
  EXPECT_FALSE(ctx.dropped());
  EXPECT_EQ(ctx.dst_port, 7000);
  EXPECT_EQ(ctx.payload_bytes, 11);
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(stack_.udp().find(7000)->read(out));
  EXPECT_EQ(std::string(out.begin(), out.end()), "hello world");
}

TEST_F(StackFixture, DropsUnknownPort) {
  const auto ctx = stack_.receiveFrame(goodFrame("x", 9999));
  EXPECT_EQ(ctx.drop, DropReason::kUdpNoSession);
  EXPECT_EQ(stack_.udp().stats().dropped_no_session, 1u);
}

TEST_F(StackFixture, DropsCorruptIpChecksum) {
  auto frame = goodFrame("payload");
  frame[FddiHeader::kSize + 8] ^= 0xff;  // flip TTL without fixing checksum
  const auto ctx = stack_.receiveFrame(frame);
  EXPECT_EQ(ctx.drop, DropReason::kIpBadChecksum);
}

TEST_F(StackFixture, DropsCorruptUdpChecksum) {
  auto frame = goodFrame("payload");
  frame.back() ^= 0x01;  // corrupt last payload byte
  const auto ctx = stack_.receiveFrame(frame);
  EXPECT_EQ(ctx.drop, DropReason::kUdpBadChecksum);
}

TEST_F(StackFixture, AcceptsZeroUdpChecksum) {
  FrameSpec spec;
  spec.udp_checksum = false;
  const auto payload = bytesOf("no checksum");
  const auto ctx = stack_.receiveFrame(buildUdpFrame(spec, payload));
  EXPECT_FALSE(ctx.dropped());
}

TEST_F(StackFixture, DropsFragment) {
  auto frame = goodFrame("frag");
  // Set MF flag and re-checksum the IP header.
  auto ip_region = std::span(frame).subspan(FddiHeader::kSize, Ipv4Header::kMinSize);
  auto h = Ipv4Header::decode(ip_region);
  ASSERT_TRUE(h.has_value());
  h->flags = 0x1;
  h->encode(ip_region);
  const auto ctx = stack_.receiveFrame(frame);
  EXPECT_EQ(ctx.drop, DropReason::kIpFragment);
}

TEST_F(StackFixture, DropsWrongMacUnicast) {
  FrameSpec spec;
  spec.dst_mac = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x01};
  const auto ctx = stack_.receiveFrame(buildUdpFrame(spec, bytesOf("x")));
  EXPECT_EQ(ctx.drop, DropReason::kFddiWrongDest);
}

TEST_F(StackFixture, AcceptsBroadcastMac) {
  FrameSpec spec;
  spec.dst_mac = {0xff, 0xff, 0xff, 0xff, 0xff, 0xff};
  const auto ctx = stack_.receiveFrame(buildUdpFrame(spec, bytesOf("bcast")));
  EXPECT_FALSE(ctx.dropped());
}

TEST_F(StackFixture, DropsWrongIpDestination) {
  FrameSpec spec;
  spec.dst_ip = 0x0a0a0a0a;
  const auto ctx = stack_.receiveFrame(buildUdpFrame(spec, bytesOf("x")));
  EXPECT_TRUE(ctx.dropped());
}

TEST_F(StackFixture, DropsTruncatedFrame) {
  auto frame = goodFrame("truncated payload here");
  frame.resize(FddiHeader::kSize + 10);
  const auto ctx = stack_.receiveFrame(frame);
  EXPECT_TRUE(ctx.dropped());
}

TEST_F(StackFixture, SessionQueueOverflowCounts) {
  stack_.open(7001, /*queue_capacity=*/2);
  FrameSpec spec;
  spec.dst_port = 7001;
  for (int i = 0; i < 3; ++i) stack_.receiveFrame(buildUdpFrame(spec, bytesOf("x")));
  EXPECT_EQ(stack_.udp().stats().dropped_session_full, 1u);
  EXPECT_EQ(stack_.udp().find(7001)->overflowCount(), 1u);
  EXPECT_EQ(stack_.udp().find(7001)->queued(), 2u);
}

TEST_F(StackFixture, StatsCountDeliveredFrames) {
  for (int i = 0; i < 5; ++i) stack_.receiveFrame(goodFrame("abc"));
  EXPECT_EQ(stack_.framesReceived(), 5u);
  EXPECT_EQ(stack_.framesDelivered(), 5u);
  EXPECT_EQ(stack_.ip().stats().delivered, 5u);
}

// ------------------------------------------------------------ wire bytes ---

// FNV-1a over every frame the builders produce for a fixed set of inputs.
// FrameCorpus, the chaos determinism guard and the benchmark's frame inputs
// all depend on these exact bytes, so any encoder change must keep this
// digest unchanged.
TEST(WireBytes, BuilderOutputIsPinned) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const std::vector<std::uint8_t>& frame) {
    for (std::uint8_t b : frame) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
  };
  for (bool checksum : {true, false}) {
    for (std::size_t n : {0u, 1u, 63u, 64u, 4324u}) {
      std::vector<std::uint8_t> payload(n);
      for (std::size_t i = 0; i < n; ++i) payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
      FrameSpec spec;
      spec.udp_checksum = checksum;
      spec.ip_id = static_cast<std::uint16_t>(n);
      mix(buildUdpFrame(spec, payload));
    }
  }
  TcpFrameSpec tcp;
  tcp.seq = 1000;
  tcp.ack = 77;
  tcp.flags = TcpHeader::kFlagAck | TcpHeader::kFlagPsh;
  mix(buildTcpFrame(tcp, {}));
  mix(buildTcpFrame(tcp, bytesOf("data")));
  EXPECT_EQ(h, 0xb88e050ca3cf8b3cULL);  // computed from the pre-refactor encoders
}

TEST(WireBytes, LargestUdpPayloadFitsTheSixteenBitLengths) {
  const std::vector<std::uint8_t> payload(65507, 0x5a);
  const auto frame = buildUdpFrame(FrameSpec{}, payload);
  ASSERT_EQ(frame.size(), FddiHeader::kSize + 65535u);
  const auto ip = Ipv4Header::decode(std::span<const std::uint8_t>(frame).subspan(FddiHeader::kSize));
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->total_length, 65535);
  const auto udp = UdpHeader::decode(
      std::span<const std::uint8_t>(frame).subspan(FddiHeader::kSize + Ipv4Header::kMinSize));
  ASSERT_TRUE(udp.has_value());
  EXPECT_EQ(udp->length, 65515);
  ProtocolStack stack;
  stack.open(7000);
  const auto ctx = stack.receiveFrame(frame);
  EXPECT_FALSE(ctx.dropped()) << dropReasonName(ctx.drop);
  EXPECT_EQ(ctx.payload_bytes, 65507);
}

TEST(WireBytes, OversizeUdpPayloadYieldsEmptyFrame) {
  const std::vector<std::uint8_t> payload(65508, 0x5a);
  EXPECT_TRUE(buildUdpFrame(FrameSpec{}, payload).empty());
}

// ------------------------------------------------------------ send path ---

TEST(SendPath, OutputRoundTripsThroughReceiveStack) {
  ProtocolStack stack;
  stack.open(7000);
  const auto payload = bytesOf("over the wire and back");
  const auto ctx = stack.receiveFrame(buildUdpFrame(FrameSpec{}, payload));
  ASSERT_FALSE(ctx.dropped()) << dropReasonName(ctx.drop);
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(stack.udp().find(7000)->read(out));
  EXPECT_EQ(std::string(out.begin(), out.end()), "over the wire and back");
}

TEST(SendPath, NoChecksumVariantAccepted) {
  ProtocolStack stack;
  stack.open(7000);
  FrameSpec spec;
  spec.udp_checksum = false;
  EXPECT_FALSE(stack.receiveFrame(buildUdpFrame(spec, bytesOf("x"))).dropped());
}

TEST(SendPath, EmptyPayload) {
  ProtocolStack stack;
  stack.open(7000);
  const auto ctx = stack.receiveFrame(buildUdpFrame(FrameSpec{}, {}));
  EXPECT_FALSE(ctx.dropped());
  EXPECT_EQ(ctx.payload_bytes, 0);
}

TEST(SendPath, OversizePayloadIsTypedErrorNotAbort) {
  const std::vector<std::uint8_t> huge(70000, 0xab);  // > 16-bit UDP length
  EXPECT_TRUE(buildUdpFrame(FrameSpec{}, huge).empty());
  EXPECT_TRUE(buildTcpFrame(TcpFrameSpec{}, huge).empty());
  // The path still works for sane payloads afterwards.
  EXPECT_FALSE(buildUdpFrame(FrameSpec{}, bytesOf("ok")).empty());
}

TEST(SendPath, PushLayersRejectOversizeWithoutMutation) {
  Packet pkt = Packet::withHeadroom(64);
  const std::vector<std::uint8_t> huge(0x10000, 0);
  pkt.append(huge);
  const std::size_t before = pkt.size();
  EXPECT_FALSE(pushUdp(pkt, FrameSpec{}));
  EXPECT_EQ(pkt.size(), before) << "failed push must not prepend a header";
  EXPECT_FALSE(pushTcp(pkt, TcpFrameSpec{}));
  EXPECT_EQ(pkt.size(), before);
  EXPECT_FALSE(pushIp(pkt, FrameSpec{}, Ipv4Header::kProtoUdp));
  EXPECT_EQ(pkt.size(), before);
}

TEST(UdpSessionTest, ReadDrainsFifo) {
  UdpSession s(1, 8);
  s.deliver(bytesOf("one"));
  s.deliver(bytesOf("two"));
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(s.read(out));
  EXPECT_EQ(std::string(out.begin(), out.end()), "one");
  ASSERT_TRUE(s.read(out));
  EXPECT_EQ(std::string(out.begin(), out.end()), "two");
  EXPECT_FALSE(s.read(out));
  EXPECT_EQ(s.bytesDelivered(), 6u);
}

}  // namespace
}  // namespace affinity
