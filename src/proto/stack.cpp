#include "proto/stack.hpp"

namespace affinity {

ProtocolStack::ProtocolStack(HostConfig config)
    : config_(config),
      udp_(config.ip, config.verify_udp_checksum),
      tcp_(config.ip, config.verify_udp_checksum),
      ip_(config.ip, &udp_, config.verify_ip_checksum),
      fddi_(config.mac, &ip_) {
  ip_.registerProtocol(TcpHeader::kProtoTcp, &tcp_);
}

ReceiveContext ProtocolStack::receiveFrame(std::span<const std::uint8_t> frame) {
  rx_packet_.assignFrame(frame);
  ReceiveContext ctx;
  fddi_.receive(rx_packet_, ctx);
  return ctx;
}

}  // namespace affinity
