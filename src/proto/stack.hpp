// stack.hpp — an assembled FDDI/IP/{UDP, TCP} receive stack; includes the
// send path (FrameSpec, buildUdpFrame) that builds its frames.
//
// ProtocolStack is the unit the paper parallelizes: under Locking there is
// one instance shared by all processors (callers serialize around its shared
// state); under IPS each stack instance is private to a subset of streams.
#pragma once

#include "proto/fddi.hpp"
#include "proto/ip.hpp"
#include "proto/send.hpp"
#include "proto/tcp.hpp"
#include "proto/udp.hpp"

namespace affinity {

/// Host identity for a stack instance.
struct HostConfig {
  MacAddr mac{0x08, 0x00, 0x69, 0x01, 0x02, 0x03};  // SGI OUI, suitably retro
  std::uint32_t ip = 0xc0a80101;                    // 192.168.1.1
  bool verify_ip_checksum = true;
  bool verify_udp_checksum = true;  ///< UDP and TCP
};

/// One complete receive-side stack: FDDI → IPv4 → {UDP, TCP} → sessions.
/// IP demuxes by protocol number, so UDP frames never touch the TCP layer.
class ProtocolStack {
 public:
  explicit ProtocolStack(HostConfig config = HostConfig{});

  // The layers hold raw upward pointers into this object; it must not move.
  ProtocolStack(const ProtocolStack&) = delete;
  ProtocolStack& operator=(const ProtocolStack&) = delete;

  /// Processes one received frame. Returns the context (drop reason, port).
  ReceiveContext receiveFrame(std::span<const std::uint8_t> frame);

  /// Opens a UDP endpoint.
  UdpSession& open(std::uint16_t port, std::size_t queue_capacity = 64) {
    return udp_.open(port, queue_capacity);
  }

  [[nodiscard]] FddiLayer& fddi() noexcept { return fddi_; }
  [[nodiscard]] Ipv4Layer& ip() noexcept { return ip_; }
  [[nodiscard]] UdpLayer& udp() noexcept { return udp_; }
  [[nodiscard]] TcpLayer& tcp() noexcept { return tcp_; }
  [[nodiscard]] const HostConfig& config() const noexcept { return config_; }

  [[nodiscard]] std::uint64_t framesReceived() const noexcept { return fddi_.stats().frames; }
  [[nodiscard]] std::uint64_t framesDelivered() const noexcept {
    return udp_.stats().delivered + tcp_.stats().delivered;
  }

 private:
  HostConfig config_;
  UdpLayer udp_;
  TcpLayer tcp_;
  Ipv4Layer ip_;
  FddiLayer fddi_;
  // Scratch packet reloaded per frame (capacity persists across frames, so
  // the steady-state receive path allocates nothing). Callers already
  // serialize receiveFrame per stack instance — Locking under stack_mu_,
  // IPS by stack-per-worker ownership — so one scratch is safe.
  Packet rx_packet_;
};

}  // namespace affinity
