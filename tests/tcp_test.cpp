// Tests for the TCP receive path: handshake, header-prediction fast path,
// reassembly, duplicates, FIN/RST, checksums, demux, and the full
// FDDI/IP/TCP stack.
#include <gtest/gtest.h>

#include <string>

#include "proto/stack.hpp"
#include "proto/tcp.hpp"
#include "util/rng.hpp"

namespace affinity {
namespace {

std::vector<std::uint8_t> bytesOf(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

// A helper driving one session directly (no framing).
class SessionDriver {
 public:
  SessionDriver() : session_(8000, 0x0a000002, 3000) {}

  DropReason feed(std::uint32_t seq, const std::string& data, std::uint8_t flags,
                  std::uint32_t ack = 0) {
    TcpHeader h;
    h.src_port = 3000;
    h.dst_port = 8000;
    h.seq = seq;
    h.ack = ack;
    h.flags = flags;
    DropReason drop = DropReason::kNone;
    const auto payload = bytesOf(data);
    session_.segment(h, payload, acks_, drop);
    return drop;
  }

  /// Performs SYN + completing ACK so the session is established with
  /// rcv_nxt == isn + 1.
  void establish(std::uint32_t isn = 100) {
    feed(isn, "", TcpHeader::kFlagSyn);
    ASSERT_EQ(session_.state(), TcpSession::State::kSynReceived);
    ASSERT_EQ(acks_.back().flags, TcpHeader::kFlagSyn | TcpHeader::kFlagAck);
    feed(isn + 1, "", TcpHeader::kFlagAck, acks_.back().seq + 1);
    ASSERT_EQ(session_.state(), TcpSession::State::kEstablished);
  }

  std::string readAll() {
    std::vector<std::uint8_t> out;
    session_.read(out);
    return std::string(out.begin(), out.end());
  }

  TcpSession session_;
  std::vector<TcpAckDescriptor> acks_;
};

TEST(TcpSessionTest, HandshakeEstablishes) {
  SessionDriver d;
  d.establish(500);
  EXPECT_EQ(d.session_.rcvNxt(), 501u);
}

TEST(TcpSessionTest, InOrderDataTakesFastPath) {
  SessionDriver d;
  d.establish(100);
  d.feed(101, "hello ", TcpHeader::kFlagAck | TcpHeader::kFlagPsh);
  d.feed(107, "world", TcpHeader::kFlagAck | TcpHeader::kFlagPsh);
  EXPECT_EQ(d.readAll(), "hello world");
  EXPECT_EQ(d.session_.stats().fast_path, 2u);
  EXPECT_EQ(d.session_.rcvNxt(), 112u);
}

TEST(TcpSessionTest, DelayedAckEverySecondSegment) {
  SessionDriver d;
  d.establish(100);
  const std::size_t before = d.acks_.size();
  d.feed(101, "aaaa", TcpHeader::kFlagAck);  // ack withheld
  EXPECT_EQ(d.acks_.size(), before);
  d.feed(105, "bbbb", TcpHeader::kFlagAck);  // second segment -> ack
  ASSERT_EQ(d.acks_.size(), before + 1);
  EXPECT_EQ(d.acks_.back().ack, 109u);
}

TEST(TcpSessionTest, OutOfOrderSegmentsReassemble) {
  SessionDriver d;
  d.establish(100);
  d.feed(105, "efgh", TcpHeader::kFlagAck);  // gap: 101..104 missing
  EXPECT_EQ(d.session_.stats().out_of_order, 1u);
  EXPECT_EQ(d.session_.reassemblyDepth(), 1u);
  EXPECT_EQ(d.readAll(), "");  // nothing deliverable yet
  d.feed(101, "abcd", TcpHeader::kFlagAck);  // fills the gap
  EXPECT_EQ(d.readAll(), "abcdefgh");
  EXPECT_EQ(d.session_.reassemblyDepth(), 0u);
  EXPECT_EQ(d.session_.rcvNxt(), 109u);
}

TEST(TcpSessionTest, GapGeneratesImmediateDuplicateAck) {
  SessionDriver d;
  d.establish(100);
  const std::size_t before = d.acks_.size();
  d.feed(200, "late", TcpHeader::kFlagAck);
  ASSERT_EQ(d.acks_.size(), before + 1);
  EXPECT_EQ(d.acks_.back().ack, 101u) << "dup-ACK must re-advertise rcv_nxt";
}

TEST(TcpSessionTest, DuplicateDataCountedAndReAcked) {
  SessionDriver d;
  d.establish(100);
  d.feed(101, "data", TcpHeader::kFlagAck);
  d.feed(101, "data", TcpHeader::kFlagAck);  // retransmission
  EXPECT_EQ(d.session_.stats().duplicates, 1u);
  EXPECT_EQ(d.readAll(), "data");
}

TEST(TcpSessionTest, PartialOverlapAcceptsOnlyNewBytes) {
  SessionDriver d;
  d.establish(100);
  d.feed(101, "abcd", TcpHeader::kFlagAck);
  d.feed(103, "cdEF", TcpHeader::kFlagAck);  // first two bytes already held
  EXPECT_EQ(d.readAll(), "abcdEF");
  EXPECT_EQ(d.session_.rcvNxt(), 107u);
}

TEST(TcpSessionTest, FinMovesToCloseWait) {
  SessionDriver d;
  d.establish(100);
  d.feed(101, "bye", TcpHeader::kFlagAck | TcpHeader::kFlagPsh);
  d.feed(104, "", TcpHeader::kFlagAck | TcpHeader::kFlagFin);
  EXPECT_EQ(d.session_.state(), TcpSession::State::kCloseWait);
  EXPECT_EQ(d.session_.rcvNxt(), 105u);  // FIN consumed a sequence number
  EXPECT_EQ(d.readAll(), "bye");
}

TEST(TcpSessionTest, OutOfOrderFinWaitsForData) {
  SessionDriver d;
  d.establish(100);
  d.feed(105, "", TcpHeader::kFlagAck | TcpHeader::kFlagFin);  // FIN beyond gap
  EXPECT_EQ(d.session_.state(), TcpSession::State::kEstablished);
}

TEST(TcpSessionTest, RstClosesImmediately) {
  SessionDriver d;
  d.establish(100);
  d.feed(101, "", TcpHeader::kFlagRst);
  EXPECT_EQ(d.session_.state(), TcpSession::State::kClosed);
  EXPECT_EQ(d.feed(102, "x", TcpHeader::kFlagAck), DropReason::kTcpBadState);
}

TEST(TcpSessionTest, SynRetransmissionReAnswered) {
  SessionDriver d;
  d.feed(100, "", TcpHeader::kFlagSyn);
  const std::size_t before = d.acks_.size();
  d.feed(100, "", TcpHeader::kFlagSyn);  // retransmitted SYN
  ASSERT_EQ(d.acks_.size(), before + 1);
  EXPECT_EQ(d.acks_.back().flags, TcpHeader::kFlagSyn | TcpHeader::kFlagAck);
}

TEST(TcpSessionTest, FastPathSuppressedWhileReassembling) {
  SessionDriver d;
  d.establish(100);
  d.feed(110, "zz", TcpHeader::kFlagAck);  // creates a gap
  const auto fast_before = d.session_.stats().fast_path;
  d.feed(101, "abcdefghi", TcpHeader::kFlagAck);  // in-order but must drain
  EXPECT_EQ(d.session_.stats().fast_path, fast_before) << "slow path must handle the drain";
  EXPECT_EQ(d.readAll(), "abcdefghizz");
}

class TcpShuffleProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TcpShuffleProperty, AnyDeliveryOrderReassemblesTheStream) {
  // Property: segments of a stream delivered in ANY order (with duplicates)
  // reassemble to exactly the original byte stream, once all have arrived.
  Rng rng(GetParam());
  SessionDriver d;
  d.establish(100);

  // Build the original stream and cut it into random-sized segments.
  std::string stream;
  for (int i = 0; i < 600; ++i) stream.push_back(static_cast<char>('a' + (i * 17 + 3) % 26));
  struct Seg {
    std::uint32_t seq;
    std::string data;
  };
  std::vector<Seg> segs;
  std::uint32_t seq = 101;
  std::size_t off = 0;
  while (off < stream.size()) {
    const std::size_t len = 1 + rng.uniform_u64(40);
    const std::string part = stream.substr(off, len);
    segs.push_back(Seg{seq, part});
    seq += static_cast<std::uint32_t>(part.size());
    off += part.size();
  }
  // Shuffle (Fisher–Yates) and sprinkle duplicates.
  for (std::size_t i = segs.size(); i > 1; --i)
    std::swap(segs[i - 1], segs[rng.uniform_u64(i)]);
  const std::size_t dup_count = segs.size() / 4;
  for (std::size_t i = 0; i < dup_count; ++i)
    segs.push_back(segs[rng.uniform_u64(segs.size())]);

  std::string received;
  for (const Seg& s : segs) {
    d.feed(s.seq, s.data, TcpHeader::kFlagAck);
    received += d.readAll();
  }
  received += d.readAll();
  EXPECT_EQ(received, stream);
  EXPECT_EQ(d.session_.reassemblyDepth(), 0u);
  EXPECT_EQ(d.session_.rcvNxt(), 101u + stream.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TcpShuffleProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(TcpHeaderTest, RoundTrip) {
  TcpHeader h;
  h.src_port = 3000;
  h.dst_port = 8000;
  h.seq = 0xdeadbeef;
  h.ack = 0x01020304;
  h.flags = TcpHeader::kFlagAck | TcpHeader::kFlagPsh;
  h.window = 4096;
  std::array<std::uint8_t, TcpHeader::kMinSize> buf{};
  h.encode(buf);
  const auto back = TcpHeader::decode(buf);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seq, 0xdeadbeefu);
  EXPECT_EQ(back->ack, 0x01020304u);
  EXPECT_TRUE(back->has(TcpHeader::kFlagPsh));
  EXPECT_FALSE(back->has(TcpHeader::kFlagSyn));
  EXPECT_EQ(back->window, 4096);
}

TEST(TcpHeaderTest, RejectsBadOffset) {
  std::array<std::uint8_t, TcpHeader::kMinSize> buf{};
  TcpHeader{}.encode(buf);
  buf[12] = 0x20;  // data offset 2 (< 5)
  EXPECT_FALSE(TcpHeader::decode(buf).has_value());
}

// --------------------------------------------------------- full TCP stack --

class TcpStackFixture : public ::testing::Test {
 protected:
  TcpStackFixture() { stack_.tcp().listen(8000); }

  ReceiveContext feedFrame(std::uint32_t seq, const std::string& data, std::uint8_t flags,
                           std::uint32_t ack = 0) {
    TcpFrameSpec spec;
    spec.seq = seq;
    spec.ack = ack;
    spec.flags = flags;
    return stack_.receiveFrame(buildTcpFrame(spec, bytesOf(data)));
  }

  TcpSession* session() { return stack_.tcp().find(8000, 0xc0a80102, 3000); }

  void establish() {
    ASSERT_FALSE(feedFrame(1000, "", TcpHeader::kFlagSyn).dropped());
    const auto acks = stack_.tcp().drainAcks();
    ASSERT_EQ(acks.size(), 1u);
    ASSERT_FALSE(feedFrame(1001, "", TcpHeader::kFlagAck, acks[0].seq + 1).dropped());
    ASSERT_NE(session(), nullptr);
    ASSERT_EQ(session()->state(), TcpSession::State::kEstablished);
  }

  ProtocolStack stack_;
};

TEST_F(TcpStackFixture, ConnectAndStreamThroughWholeStack) {
  establish();
  feedFrame(1001, "the quick ", TcpHeader::kFlagAck);
  feedFrame(1011, "brown fox", TcpHeader::kFlagAck | TcpHeader::kFlagPsh);
  std::vector<std::uint8_t> out;
  session()->read(out);
  EXPECT_EQ(std::string(out.begin(), out.end()), "the quick brown fox");
  EXPECT_EQ(stack_.tcp().stats().delivered, 4u);
  EXPECT_EQ(session()->stats().fast_path, 2u);
}

TEST_F(TcpStackFixture, SegmentToUnknownPortDropped) {
  TcpFrameSpec spec;
  spec.dst_port = 9999;
  spec.flags = TcpHeader::kFlagSyn;
  const auto ctx = stack_.receiveFrame(buildTcpFrame(spec, {}));
  EXPECT_EQ(ctx.drop, DropReason::kTcpNoListener);
}

TEST_F(TcpStackFixture, NonSynToListenerWithoutSessionDropped) {
  const auto ctx = feedFrame(1001, "data", TcpHeader::kFlagAck);
  EXPECT_EQ(ctx.drop, DropReason::kTcpNoListener);
}

TEST_F(TcpStackFixture, CorruptChecksumDropped) {
  establish();
  TcpFrameSpec spec;
  spec.seq = 1001;
  auto frame = buildTcpFrame(spec, bytesOf("data"));
  frame.back() ^= 0x01;
  const auto ctx = stack_.receiveFrame(frame);
  EXPECT_EQ(ctx.drop, DropReason::kTcpBadChecksum);
}

TEST_F(TcpStackFixture, UdpAndTcpCoexist) {
  establish();
  stack_.udp().open(7000);
  FrameSpec udp_spec;
  const auto udp_ctx = stack_.receiveFrame(buildUdpFrame(udp_spec, bytesOf("datagram")));
  EXPECT_FALSE(udp_ctx.dropped());
  EXPECT_EQ(udp_ctx.dst_port, 7000);
  feedFrame(1001, "stream", TcpHeader::kFlagAck);
  EXPECT_EQ(session()->available(), 6u);
}

TEST_F(TcpStackFixture, TwoPeersDemuxToSeparateSessions) {
  establish();  // peer 0xc0a80102:3000
  TcpFrameSpec other;
  other.src_ip = 0xc0a80155;
  other.src_port = 4000;
  other.seq = 9000;
  other.flags = TcpHeader::kFlagSyn;
  ASSERT_FALSE(stack_.receiveFrame(buildTcpFrame(other, {})).dropped());
  EXPECT_EQ(stack_.tcp().sessionCount(), 2u);
  EXPECT_NE(stack_.tcp().find(8000, 0xc0a80155, 4000), nullptr);
}

TEST_F(TcpStackFixture, AckDescriptorsAddressThePeer) {
  establish();
  feedFrame(1001, "a", TcpHeader::kFlagAck);
  feedFrame(1002, "b", TcpHeader::kFlagAck);
  const auto acks = stack_.tcp().drainAcks();
  ASSERT_FALSE(acks.empty());
  EXPECT_EQ(acks.back().peer_addr, 0xc0a80102u);
  EXPECT_EQ(acks.back().peer_port, 3000);
  EXPECT_EQ(acks.back().local_port, 8000);
  EXPECT_EQ(acks.back().ack, 1003u);
  EXPECT_TRUE(stack_.tcp().drainAcks().empty()) << "drain must clear";
}

}  // namespace
}  // namespace affinity
