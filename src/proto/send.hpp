// send.hpp — the send-side UDP|TCP / IPv4 / FDDI path (paper extension i),
// the one wire encoder in src/proto.
//
// Send-side processing builds the frame by *pushing* headers onto the front
// of the packet, layer by layer (the x-kernel's push path), the mirror image
// of the receive side's pulls. Each push function is a real layer
// implementation: it fills its wire header (checksums included) in place.
// buildUdpFrame and buildTcpFrame run the whole path; they are also the
// test-vector source for the receive side.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "proto/headers.hpp"
#include "proto/packet.hpp"

namespace affinity {

/// Addressing for one outgoing UDP datagram (its link and IP fields also
/// address TCP segments).
struct FrameSpec {
  MacAddr src_mac{0x08, 0x00, 0x69, 0xaa, 0xbb, 0xcc};
  MacAddr dst_mac{0x08, 0x00, 0x69, 0x01, 0x02, 0x03};
  std::uint32_t src_ip = 0xc0a80102;  // 192.168.1.2
  std::uint32_t dst_ip = 0xc0a80101;
  std::uint16_t src_port = 2049;
  std::uint16_t dst_port = 7000;
  std::uint8_t ttl = 64;
  bool udp_checksum = true;
  std::uint16_t ip_id = 0;
};

/// Frame parameters for building TCP test/workload segments.
struct TcpFrameSpec {
  MacAddr src_mac{0x08, 0x00, 0x69, 0xaa, 0xbb, 0xcc};
  MacAddr dst_mac{0x08, 0x00, 0x69, 0x01, 0x02, 0x03};
  std::uint32_t src_ip = 0xc0a80102;
  std::uint32_t dst_ip = 0xc0a80101;
  std::uint16_t src_port = 3000;
  std::uint16_t dst_port = 8000;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = TcpHeader::kFlagAck;
};

/// UDP layer push: prepends the UDP header over the current payload and
/// (optionally) computes the checksum with the IPv4 pseudo-header. False —
/// packet unchanged — when the datagram would overflow the 16-bit UDP
/// length field (caller-supplied payload size is external input, not a
/// program invariant).
[[nodiscard]] bool pushUdp(Packet& pkt, const FrameSpec& spec);

/// TCP layer push: prepends a 20-byte header over the current payload and
/// computes the checksum with the IPv4 pseudo-header. False — packet
/// unchanged — when the segment would overflow the 16-bit pseudo-header
/// length.
[[nodiscard]] bool pushTcp(Packet& pkt, const TcpFrameSpec& spec);

/// IPv4 layer push: prepends a 20-byte header (checksum computed) carrying
/// `protocol` over the current transport segment. False — packet unchanged
/// — when the datagram would overflow the 16-bit IP total-length field.
[[nodiscard]] bool pushIp(Packet& pkt, const FrameSpec& spec, std::uint8_t protocol);

/// FDDI MAC/LLC push: prepends the 21-byte FDDI + SNAP header.
void pushFddi(Packet& pkt, const FrameSpec& spec);

/// Builds a complete FDDI/IP/UDP frame carrying `payload`; empty when the
/// payload cannot fit a UDP/IPv4 datagram (more than 65507 bytes).
std::vector<std::uint8_t> buildUdpFrame(const FrameSpec& spec,
                                        std::span<const std::uint8_t> payload);

/// Builds a complete FDDI/IP/TCP frame (checksummed); empty when the
/// payload cannot fit an IPv4 datagram (more than 65495 bytes).
std::vector<std::uint8_t> buildTcpFrame(const TcpFrameSpec& spec,
                                        std::span<const std::uint8_t> payload);

}  // namespace affinity
