// checksum.hpp — RFC 1071 Internet checksum.
#pragma once

#include <cstdint>
#include <span>

namespace affinity {

/// Incremental ones-complement sum accumulator. Feed byte ranges (odd splits
/// allowed only at the final range, per RFC 1071 byte-order rules we keep it
/// simple: ranges after the first must start 16-bit aligned relative to the
/// checksummed stream, which all our callers satisfy).
class ChecksumAccumulator {
 public:
  /// Adds a byte range to the running sum.
  void add(std::span<const std::uint8_t> bytes) noexcept;

  /// Adds one 16-bit word in host order (e.g. pseudo-header fields).
  void addWord(std::uint16_t word) noexcept { sum_ += word; }

  /// Adds the IPv4 pseudo-header that UDP and TCP checksums cover (RFC 768,
  /// RFC 793): source and destination address, zero|protocol, and the
  /// transport segment's length.
  void addPseudoHeader(std::uint32_t src, std::uint32_t dst, std::uint8_t protocol,
                       std::uint16_t length) noexcept;

  /// Final folded ones-complement checksum (to store in a header).
  [[nodiscard]] std::uint16_t finish() const noexcept;

 private:
  std::uint64_t sum_ = 0;
  bool odd_ = false;  ///< previous ranges ended on an odd byte
};

/// One-shot checksum of a byte range.
std::uint16_t internetChecksum(std::span<const std::uint8_t> bytes) noexcept;

/// Verifies a range whose checksum field is already in place (sums to
/// 0xffff when valid).
bool checksumValid(std::span<const std::uint8_t> bytes) noexcept;

}  // namespace affinity
