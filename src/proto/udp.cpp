#include "proto/udp.hpp"

#include "proto/checksum.hpp"

namespace affinity {

bool UdpSession::deliver(std::span<const std::uint8_t> payload) {
  if (count_ >= ring_.size()) {
    ++overflow_;
    return false;
  }
  // assign() into the slot reuses whatever capacity an earlier datagram
  // left there — no allocation once the ring has warmed up.
  ring_[(head_ + count_) % ring_.size()].assign(payload.begin(), payload.end());
  ++count_;
  ++delivered_;
  bytes_ += payload.size();
  return true;
}

bool UdpSession::read(std::vector<std::uint8_t>& out) {
  if (count_ == 0) return false;
  std::vector<std::uint8_t>& slot = ring_[head_];
  out.assign(slot.begin(), slot.end());
  head_ = (head_ + 1) % ring_.size();
  --count_;
  return true;
}

UdpSession& UdpLayer::open(std::uint16_t port, std::size_t queue_capacity) {
  auto [it, inserted] = sessions_.insert_or_assign(port, UdpSession(port, queue_capacity));
  (void)inserted;
  return it->second;
}

bool UdpLayer::close(std::uint16_t port) { return sessions_.erase(port) == 1; }

UdpSession* UdpLayer::find(std::uint16_t port) noexcept {
  auto it = sessions_.find(port);
  return it == sessions_.end() ? nullptr : &it->second;
}

bool UdpLayer::receive(Packet& pkt, ReceiveContext& ctx) {
  ++stats_.datagrams;
  const auto header = UdpHeader::decode(pkt.bytes());
  if (!header || header->length < UdpHeader::kSize || header->length > pkt.size()) {
    ++stats_.dropped_malformed;
    ctx.drop = DropReason::kUdpMalformed;
    return false;
  }
  if (verify_checksum_ && header->checksum != 0) {
    ChecksumAccumulator acc;
    acc.addPseudoHeader(ctx.src_addr, local_addr_, Ipv4Header::kProtoUdp, header->length);
    acc.add(pkt.bytes().first(header->length));
    if (acc.finish() != 0) {
      ++stats_.dropped_checksum;
      ctx.drop = DropReason::kUdpBadChecksum;
      return false;
    }
  }
  UdpSession* session = find(header->dst_port);
  if (session == nullptr) {
    ++stats_.dropped_no_session;
    ctx.drop = DropReason::kUdpNoSession;
    return false;
  }
  if (!pkt.truncate(header->length) || !pkt.pull(UdpHeader::kSize)) {
    ++stats_.dropped_malformed;
    ctx.drop = DropReason::kUdpMalformed;
    return false;
  }
  if (!session->deliver(pkt.bytes())) {
    ++stats_.dropped_session_full;
    ctx.drop = DropReason::kSessionFull;
    return false;
  }
  ctx.dst_port = header->dst_port;
  ctx.payload_bytes = static_cast<std::uint16_t>(pkt.size());
  ++stats_.delivered;
  return true;
}

}  // namespace affinity
