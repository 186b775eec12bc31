#include "proto/send.hpp"

#include "proto/checksum.hpp"

namespace affinity {

namespace {

// Room for every header the push path prepends (TCP's is the larger
// transport header), so no push has to shift the payload.
constexpr std::size_t kHeadroom = FddiHeader::kSize + Ipv4Header::kMinSize + TcpHeader::kMinSize;

std::vector<std::uint8_t> wireBytes(const Packet& pkt) {
  const auto wire = pkt.bytes();
  return {wire.begin(), wire.end()};
}

}  // namespace

bool pushUdp(Packet& pkt, const FrameSpec& spec) {
  const std::size_t udp_len = UdpHeader::kSize + pkt.size();
  if (udp_len > 0xffff) return false;
  auto header = pkt.push(UdpHeader::kSize);
  UdpHeader h;
  h.src_port = spec.src_port;
  h.dst_port = spec.dst_port;
  h.length = static_cast<std::uint16_t>(udp_len);
  h.checksum = 0;
  h.encode(header);
  if (spec.udp_checksum) {
    ChecksumAccumulator acc;
    acc.addPseudoHeader(spec.src_ip, spec.dst_ip, Ipv4Header::kProtoUdp, h.length);
    acc.add(pkt.bytes());  // header now included: cursor is at the UDP header
    std::uint16_t ck = acc.finish();
    if (ck == 0) ck = 0xffff;  // RFC 768: 0 on the wire means "no checksum"
    writeBe16(pkt.mutableBytes(), 6, ck);
  }
  return true;
}

bool pushTcp(Packet& pkt, const TcpFrameSpec& spec) {
  const std::size_t tcp_len = TcpHeader::kMinSize + pkt.size();
  if (tcp_len > 0xffff) return false;
  auto header = pkt.push(TcpHeader::kMinSize);
  TcpHeader h;
  h.src_port = spec.src_port;
  h.dst_port = spec.dst_port;
  h.seq = spec.seq;
  h.ack = spec.ack;
  h.flags = spec.flags;
  h.encode(header);
  ChecksumAccumulator acc;
  acc.addPseudoHeader(spec.src_ip, spec.dst_ip, TcpHeader::kProtoTcp,
                      static_cast<std::uint16_t>(tcp_len));
  acc.add(pkt.bytes());
  writeBe16(pkt.mutableBytes(), 16, acc.finish());
  return true;
}

bool pushIp(Packet& pkt, const FrameSpec& spec, std::uint8_t protocol) {
  const std::size_t total = Ipv4Header::kMinSize + pkt.size();
  if (total > 0xffff) return false;
  auto header = pkt.push(Ipv4Header::kMinSize);
  Ipv4Header h;
  h.total_length = static_cast<std::uint16_t>(total);
  h.identification = spec.ip_id;
  h.ttl = spec.ttl;
  h.protocol = protocol;
  h.src = spec.src_ip;
  h.dst = spec.dst_ip;
  h.encode(header);  // encode() computes the header checksum
  return true;
}

void pushFddi(Packet& pkt, const FrameSpec& spec) {
  auto header = pkt.push(FddiHeader::kSize);
  FddiHeader h;
  h.src = spec.src_mac;
  h.dst = spec.dst_mac;
  h.encode(header);
}

std::vector<std::uint8_t> buildUdpFrame(const FrameSpec& spec,
                                        std::span<const std::uint8_t> payload) {
  Packet pkt = Packet::withHeadroom(kHeadroom);
  pkt.append(payload);
  if (!pushUdp(pkt, spec) || !pushIp(pkt, spec, Ipv4Header::kProtoUdp)) return {};
  pushFddi(pkt, spec);
  return wireBytes(pkt);
}

std::vector<std::uint8_t> buildTcpFrame(const TcpFrameSpec& spec,
                                        std::span<const std::uint8_t> payload) {
  // The link and IP fields of a TCP segment; TTL and identification keep
  // their defaults (64, 0).
  const FrameSpec ip{.src_mac = spec.src_mac, .dst_mac = spec.dst_mac,
                     .src_ip = spec.src_ip, .dst_ip = spec.dst_ip};
  Packet pkt = Packet::withHeadroom(kHeadroom);
  pkt.append(payload);
  if (!pushTcp(pkt, spec) || !pushIp(pkt, ip, TcpHeader::kProtoTcp)) return {};
  pushFddi(pkt, ip);
  return wireBytes(pkt);
}

}  // namespace affinity
