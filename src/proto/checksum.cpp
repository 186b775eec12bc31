#include "proto/checksum.hpp"

namespace affinity {

void ChecksumAccumulator::add(std::span<const std::uint8_t> bytes) noexcept {
  std::size_t i = 0;
  if (odd_ && !bytes.empty()) {
    // Complete the previously-dangling byte as the low half of a word.
    sum_ += bytes[0];
    i = 1;
    odd_ = false;
  }
  for (; i + 1 < bytes.size(); i += 2)
    sum_ += static_cast<std::uint16_t>((bytes[i] << 8) | bytes[i + 1]);
  if (i < bytes.size()) {
    sum_ += static_cast<std::uint16_t>(bytes[i] << 8);
    odd_ = true;
  }
}

void ChecksumAccumulator::addPseudoHeader(std::uint32_t src, std::uint32_t dst,
                                          std::uint8_t protocol, std::uint16_t length) noexcept {
  addWord(static_cast<std::uint16_t>(src >> 16));
  addWord(static_cast<std::uint16_t>(src));
  addWord(static_cast<std::uint16_t>(dst >> 16));
  addWord(static_cast<std::uint16_t>(dst));
  addWord(protocol);
  addWord(length);
}

std::uint16_t ChecksumAccumulator::finish() const noexcept {
  std::uint64_t s = sum_;
  while (s >> 16) s = (s & 0xffff) + (s >> 16);
  return static_cast<std::uint16_t>(~s & 0xffff);
}

std::uint16_t internetChecksum(std::span<const std::uint8_t> bytes) noexcept {
  ChecksumAccumulator acc;
  acc.add(bytes);
  return acc.finish();
}

bool checksumValid(std::span<const std::uint8_t> bytes) noexcept {
  return internetChecksum(bytes) == 0;
}

}  // namespace affinity
