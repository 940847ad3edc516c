// RFC 1071 Internet checksum, with the TCP/UDP pseudo-header variant.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>

#include "net/addr.hpp"

namespace neat::net {

/// Incremental ones-complement sum accumulator.
class ChecksumAccumulator {
 public:
  void add(std::span<const std::uint8_t> data) {
    std::size_t i = 0;
    if (odd_ && !data.empty()) {
      // Pair the dangling byte from the previous chunk with this one.
      sum_ += static_cast<std::uint32_t>(pending_) << 8 | data[0];
      odd_ = false;
      i = 1;
    }
    // Bulk: sum 32-bit native words into four independent 64-bit
    // accumulators, carry-free. A word adds less than 2^32, so an
    // accumulator cannot overflow before it has taken 2^32 words (64 GiB
    // per call across the four); the end-around carries are recovered by
    // the fold below instead of per add. RFC 1071 §2(B) — the
    // ones-complement sum is byte-order independent, so the partial sum
    // over native-order words equals the big-endian-word sum after a byte
    // swap. Only whole 16-bit words enter this path, so stream parity is
    // preserved for the tail loop below.
    if (i + 4 <= data.size()) {
      std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
      const std::uint8_t* p = data.data();
      // 32 bytes per iteration: two words per accumulator lets the
      // compiler keep two independent vector sums.
      for (; i + 32 <= data.size(); i += 32) {
        s0 += load32(p + i);
        s1 += load32(p + i + 4);
        s2 += load32(p + i + 8);
        s3 += load32(p + i + 12);
        s0 += load32(p + i + 16);
        s1 += load32(p + i + 20);
        s2 += load32(p + i + 24);
        s3 += load32(p + i + 28);
      }
      for (; i + 4 <= data.size(); i += 4) s0 += load32(p + i);
      // 2^32 == 1 (mod 0xffff): folding the high half onto the low half
      // keeps the ones-complement value, and four folded sums (< 2^33
      // each) cannot overflow.
      std::uint64_t s = fold32(s0) + fold32(s1) + fold32(s2) + fold32(s3);
      while (s >> 16) s = (s & 0xffffULL) + (s >> 16);
      auto native = static_cast<std::uint16_t>(s);
      if constexpr (std::endian::native == std::endian::little) {
        native = static_cast<std::uint16_t>(native << 8 | native >> 8);
      }
      sum_ += native;
    }
    for (; i + 1 < data.size(); i += 2) {
      sum_ += static_cast<std::uint32_t>(data[i]) << 8 | data[i + 1];
    }
    if (i < data.size()) {
      pending_ = data[i];
      odd_ = true;
    }
  }

  void add_u16(std::uint16_t v) {
    if (!odd_) {
      sum_ += v;  // already a whole big-endian word
      return;
    }
    std::uint8_t b[2] = {static_cast<std::uint8_t>(v >> 8),
                         static_cast<std::uint8_t>(v)};
    add({b, 2});
  }

  void add_u32(std::uint32_t v) {
    if (!odd_) {
      sum_ += (v >> 16) + (v & 0xffff);
      return;
    }
    add_u16(static_cast<std::uint16_t>(v >> 16));
    add_u16(static_cast<std::uint16_t>(v));
  }

  /// Final ones-complement checksum (already inverted, ready for the wire).
  [[nodiscard]] std::uint16_t finish() const {
    std::uint64_t s = sum_;
    if (odd_) s += static_cast<std::uint32_t>(pending_) << 8;
    while (s >> 16) s = (s & 0xffff) + (s >> 16);
    return static_cast<std::uint16_t>(~s);
  }

 private:
  static std::uint32_t load32(const std::uint8_t* p) {
    std::uint32_t w;
    std::memcpy(&w, p, 4);
    return w;
  }
  static std::uint64_t fold32(std::uint64_t s) {
    return (s & 0xffffffffULL) + (s >> 32);
  }

  std::uint64_t sum_{0};
  std::uint8_t pending_{0};
  bool odd_{false};
};

/// Plain checksum over a buffer (IPv4 header checksum).
[[nodiscard]] inline std::uint16_t internet_checksum(
    std::span<const std::uint8_t> data) {
  ChecksumAccumulator acc;
  acc.add(data);
  return acc.finish();
}

/// Transport checksum with IPv4 pseudo-header (TCP=6, UDP=17).
[[nodiscard]] inline std::uint16_t transport_checksum(
    Ipv4Addr src, Ipv4Addr dst, std::uint8_t protocol,
    std::span<const std::uint8_t> segment) {
  ChecksumAccumulator acc;
  acc.add_u32(src.value);
  acc.add_u32(dst.value);
  acc.add_u16(protocol);
  acc.add_u16(static_cast<std::uint16_t>(segment.size()));
  acc.add(segment);
  return acc.finish();
}

/// Verify: summing a buffer whose checksum field is filled must give 0.
[[nodiscard]] inline bool verify_transport_checksum(
    Ipv4Addr src, Ipv4Addr dst, std::uint8_t protocol,
    std::span<const std::uint8_t> segment) {
  return transport_checksum(src, dst, protocol, segment) == 0;
}

}  // namespace neat::net
