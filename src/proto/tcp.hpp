// tcp.hpp — TCP receive-side processing with the classic header-prediction
// fast path.
//
// The paper argues its UDP results carry to TCP: "at its most influential
// ... TCP-specific processing only accounts for around 15% of overall packet
// execution time". This layer makes that concrete: a receive-side TCP whose
// common case (established connection, next in-sequence segment, plain
// ACK/PSH flags) is a handful of compares and an append — Van Jacobson
// header prediction — and whose slow path handles connection setup,
// out-of-order segments (reassembly queue), FIN/RST, and duplicates.
//
// Scope (receive side of the paper's setting): passive-open endpoints, data
// flowing toward this host, ACKs generated as descriptors the caller may
// turn into frames via the send path. No retransmission timers (nothing to
// retransmit — we send only ACKs), no congestion control (sender side).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "proto/headers.hpp"
#include "proto/layer.hpp"

namespace affinity {

/// Outgoing ACK request produced by the receiver (the caller owns turning
/// these into frames; in the simulation they are accounted, not transmitted).
struct TcpAckDescriptor {
  std::uint32_t peer_addr = 0;
  std::uint16_t peer_port = 0;
  std::uint16_t local_port = 0;
  std::uint32_t seq = 0;  ///< our sequence number
  std::uint32_t ack = 0;  ///< cumulative ack
  std::uint8_t flags = TcpHeader::kFlagAck;
};

/// One TCP connection's receive state (the PCB).
class TcpSession {
 public:
  enum class State : std::uint8_t {
    kListen,
    kSynReceived,
    kEstablished,
    kCloseWait,  ///< peer sent FIN; we still deliver buffered data
    kClosed,
  };

  struct Stats {
    std::uint64_t segments = 0;
    std::uint64_t fast_path = 0;       ///< header-prediction hits
    std::uint64_t out_of_order = 0;    ///< queued for reassembly
    std::uint64_t duplicates = 0;      ///< wholly below rcv_nxt
    std::uint64_t acks_generated = 0;
    std::uint64_t bytes_delivered = 0;
  };

  TcpSession(std::uint16_t local_port, std::uint32_t peer_addr, std::uint16_t peer_port,
             std::uint32_t iss = 0x1000);

  /// Processes one segment's header + payload. Appends any ACKs to `acks`.
  /// Returns false (with a reason) only for segments that are dropped
  /// outright (bad state, RST'd connection).
  bool segment(const TcpHeader& h, std::span<const std::uint8_t> payload,
               std::vector<TcpAckDescriptor>& acks, DropReason& drop);

  /// Reads in-order received bytes (up to `max`) into `out`; returns count.
  std::size_t read(std::vector<std::uint8_t>& out, std::size_t max = SIZE_MAX);

  [[nodiscard]] State state() const noexcept { return state_; }
  [[nodiscard]] std::uint32_t rcvNxt() const noexcept { return rcv_nxt_; }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t reassemblyDepth() const noexcept { return reassembly_.size(); }
  [[nodiscard]] std::size_t available() const noexcept { return buffer_.size(); }

 private:
  void enqueueAck(std::vector<TcpAckDescriptor>& acks, std::uint8_t flags = TcpHeader::kFlagAck);
  void acceptInOrder(std::span<const std::uint8_t> payload);
  void drainReassembly();

  std::uint16_t local_port_;
  std::uint32_t peer_addr_;
  std::uint16_t peer_port_;
  State state_ = State::kListen;
  std::uint32_t rcv_nxt_ = 0;  ///< next expected sequence number
  std::uint32_t snd_nxt_;      ///< our (ACK-only) sequence number
  std::uint16_t rcv_wnd_ = 32 * 1024;
  std::deque<std::uint8_t> buffer_;              ///< in-order delivered bytes
  std::map<std::uint32_t, std::vector<std::uint8_t>> reassembly_;  ///< seq -> data
  bool ack_pending_ = false;  ///< delayed-ACK state (ack every 2nd segment)
  Stats stats_;
};

/// TCP demux layer: (local port, peer addr, peer port) -> session; ports in
/// listen mode accept new connections.
class TcpLayer final : public ProtocolLayer {
 public:
  struct Stats {
    std::uint64_t segments = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped_malformed = 0;
    std::uint64_t dropped_checksum = 0;
    std::uint64_t dropped_no_listener = 0;
  };

  explicit TcpLayer(std::uint32_t local_addr, bool verify_checksum = true) noexcept
      : local_addr_(local_addr), verify_checksum_(verify_checksum) {}

  /// Opens a passive listener on `port`.
  void listen(std::uint16_t port) { listeners_.insert(port); }

  /// Finds an established (or in-progress) session; nullptr if none.
  [[nodiscard]] TcpSession* find(std::uint16_t local_port, std::uint32_t peer_addr,
                                 std::uint16_t peer_port) noexcept;

  [[nodiscard]] const char* name() const noexcept override { return "tcp"; }
  bool receive(Packet& pkt, ReceiveContext& ctx) override;

  /// ACKs produced since the last drain (the driver/send path consumes them).
  std::vector<TcpAckDescriptor> drainAcks();

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t sessionCount() const noexcept { return sessions_.size(); }

 private:
  struct Key {
    std::uint16_t local_port;
    std::uint32_t peer_addr;
    std::uint16_t peer_port;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      std::uint64_t x = (static_cast<std::uint64_t>(k.peer_addr) << 32) |
                        (static_cast<std::uint64_t>(k.local_port) << 16) | k.peer_port;
      x *= 0x9e3779b97f4a7c15ULL;
      return static_cast<std::size_t>(x ^ (x >> 32));
    }
  };

  std::uint32_t local_addr_;
  bool verify_checksum_;
  std::unordered_map<Key, TcpSession, KeyHash> sessions_;
  std::set<std::uint16_t> listeners_;
  std::vector<TcpAckDescriptor> pending_acks_;
  Stats stats_;
};

}  // namespace affinity
