#include "proto/tcp.hpp"

#include <algorithm>

#include "proto/checksum.hpp"
#include "util/check.hpp"

namespace affinity {

namespace {

/// Wrapping sequence-number compare: true iff a precedes b.
inline bool seqLt(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<std::int32_t>(a - b) < 0;
}
inline bool seqLe(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<std::int32_t>(a - b) <= 0;
}

}  // namespace

// ---------------------------------------------------------------- session --

TcpSession::TcpSession(std::uint16_t local_port, std::uint32_t peer_addr,
                       std::uint16_t peer_port, std::uint32_t iss)
    : local_port_(local_port), peer_addr_(peer_addr), peer_port_(peer_port), snd_nxt_(iss) {}

void TcpSession::enqueueAck(std::vector<TcpAckDescriptor>& acks, std::uint8_t flags) {
  TcpAckDescriptor d;
  d.peer_addr = peer_addr_;
  d.peer_port = peer_port_;
  d.local_port = local_port_;
  d.seq = snd_nxt_;
  d.ack = rcv_nxt_;
  d.flags = flags;
  acks.push_back(d);
  ++stats_.acks_generated;
}

void TcpSession::acceptInOrder(std::span<const std::uint8_t> payload) {
  buffer_.insert(buffer_.end(), payload.begin(), payload.end());
  rcv_nxt_ += static_cast<std::uint32_t>(payload.size());
  stats_.bytes_delivered += payload.size();
}

void TcpSession::drainReassembly() {
  for (auto it = reassembly_.begin(); it != reassembly_.end();) {
    const std::uint32_t seg_seq = it->first;
    const auto& data = it->second;
    const std::uint32_t seg_end = seg_seq + static_cast<std::uint32_t>(data.size());
    if (seqLt(rcv_nxt_, seg_seq)) break;  // still a gap
    if (seqLe(seg_end, rcv_nxt_)) {
      it = reassembly_.erase(it);  // fully duplicate
      continue;
    }
    const std::uint32_t skip = rcv_nxt_ - seg_seq;
    acceptInOrder(std::span<const std::uint8_t>(data).subspan(skip));
    it = reassembly_.erase(it);
  }
}

bool TcpSession::segment(const TcpHeader& h, std::span<const std::uint8_t> payload,
                         std::vector<TcpAckDescriptor>& acks, DropReason& drop) {
  ++stats_.segments;
  if (state_ == State::kClosed) {
    drop = DropReason::kTcpBadState;
    return false;
  }
  if (h.has(TcpHeader::kFlagRst)) {
    state_ = State::kClosed;
    return true;
  }

  switch (state_) {
    case State::kListen: {
      if (!h.has(TcpHeader::kFlagSyn) || h.has(TcpHeader::kFlagAck)) {
        drop = DropReason::kTcpBadState;
        return false;
      }
      rcv_nxt_ = h.seq + 1;
      state_ = State::kSynReceived;
      enqueueAck(acks, TcpHeader::kFlagSyn | TcpHeader::kFlagAck);
      ++snd_nxt_;  // our SYN consumes one sequence number
      return true;
    }
    case State::kSynReceived: {
      if (h.has(TcpHeader::kFlagSyn)) {
        // SYN retransmission: re-answer.
        enqueueAck(acks, TcpHeader::kFlagSyn | TcpHeader::kFlagAck);
        return true;
      }
      if (h.has(TcpHeader::kFlagAck) && h.ack == snd_nxt_) {
        state_ = State::kEstablished;
        // Fall through to normal processing of any piggybacked data.
        break;
      }
      drop = DropReason::kTcpBadState;
      return false;
    }
    case State::kEstablished:
    case State::kCloseWait:
      break;
    case State::kClosed:
      drop = DropReason::kTcpBadState;
      return false;
  }

  // --- header prediction fast path (Van Jacobson) --------------------------
  // Established, exactly the next in-sequence data segment, no surprises
  // pending: a few compares and an append.
  const std::uint8_t interesting =
      h.flags & ~(TcpHeader::kFlagAck | TcpHeader::kFlagPsh);
  if (state_ == State::kEstablished && interesting == 0 && !payload.empty() &&
      h.seq == rcv_nxt_ && reassembly_.empty()) {
    acceptInOrder(payload);
    ++stats_.fast_path;
    // Delayed ACK: every second data segment.
    if (ack_pending_) {
      enqueueAck(acks);
      ack_pending_ = false;
    } else {
      ack_pending_ = true;
    }
    return true;
  }

  // --- slow path ------------------------------------------------------------
  if (!payload.empty()) {
    const auto len = static_cast<std::uint32_t>(payload.size());
    const std::uint32_t seg_end = h.seq + len;
    if (seqLe(seg_end, rcv_nxt_)) {
      ++stats_.duplicates;
      enqueueAck(acks);  // duplicate: re-ACK what we have
    } else if (seqLt(rcv_nxt_, h.seq)) {
      ++stats_.out_of_order;
      reassembly_.emplace(h.seq, std::vector<std::uint8_t>(payload.begin(), payload.end()));
      enqueueAck(acks);  // duplicate ACK signals the gap
    } else {
      // Overlaps rcv_nxt: accept the new tail, then drain what unblocks.
      acceptInOrder(payload.subspan(rcv_nxt_ - h.seq));
      drainReassembly();
      enqueueAck(acks);
      ack_pending_ = false;
    }
  }

  if (h.has(TcpHeader::kFlagFin)) {
    const std::uint32_t fin_seq =
        h.seq + static_cast<std::uint32_t>(payload.size());
    if (fin_seq == rcv_nxt_ && reassembly_.empty()) {
      ++rcv_nxt_;  // the FIN consumes one sequence number
      state_ = State::kCloseWait;
    }
    enqueueAck(acks);
  } else if (payload.empty() && state_ == State::kEstablished) {
    // Pure ACK carrying no data: nothing to do on the receive side.
  }
  return true;
}

std::size_t TcpSession::read(std::vector<std::uint8_t>& out, std::size_t max) {
  const std::size_t n = std::min(max, buffer_.size());
  out.assign(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(n));
  buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(n));
  return n;
}

// ------------------------------------------------------------------ layer --

TcpSession* TcpLayer::find(std::uint16_t local_port, std::uint32_t peer_addr,
                           std::uint16_t peer_port) noexcept {
  auto it = sessions_.find(Key{local_port, peer_addr, peer_port});
  return it == sessions_.end() ? nullptr : &it->second;
}

std::vector<TcpAckDescriptor> TcpLayer::drainAcks() {
  std::vector<TcpAckDescriptor> out;
  out.swap(pending_acks_);
  return out;
}

bool TcpLayer::receive(Packet& pkt, ReceiveContext& ctx) {
  ++stats_.segments;
  const auto header = TcpHeader::decode(pkt.bytes());
  if (!header || header->headerBytes() > pkt.size()) {
    ++stats_.dropped_malformed;
    ctx.drop = DropReason::kTcpMalformed;
    return false;
  }
  if (verify_checksum_) {
    ChecksumAccumulator acc;
    acc.addPseudoHeader(ctx.src_addr, local_addr_, TcpHeader::kProtoTcp,
                        static_cast<std::uint16_t>(pkt.size()));
    acc.add(pkt.bytes());
    if (acc.finish() != 0) {
      ++stats_.dropped_checksum;
      ctx.drop = DropReason::kTcpBadChecksum;
      return false;
    }
  }

  const Key key{header->dst_port, ctx.src_addr, header->src_port};
  auto it = sessions_.find(key);
  if (it == sessions_.end()) {
    if (!header->has(TcpHeader::kFlagSyn) || listeners_.count(header->dst_port) == 0) {
      ++stats_.dropped_no_listener;
      ctx.drop = DropReason::kTcpNoListener;
      return false;
    }
    it = sessions_
             .emplace(key, TcpSession(header->dst_port, ctx.src_addr, header->src_port))
             .first;
  }

  if (!pkt.pull(header->headerBytes())) {
    ++stats_.dropped_malformed;
    ctx.drop = DropReason::kTcpMalformed;
    return false;
  }
  DropReason drop = DropReason::kNone;
  if (!it->second.segment(*header, pkt.bytes(), pending_acks_, drop)) {
    ctx.drop = drop;
    return false;
  }
  ctx.dst_port = header->dst_port;
  ctx.payload_bytes = static_cast<std::uint16_t>(pkt.size());
  ++stats_.delivered;
  return true;
}

}  // namespace affinity
