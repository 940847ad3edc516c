// Toeplitz RSS hash (Microsoft RSS specification), as implemented by the
// Intel 82599 the paper's testbed used. The NIC steers each incoming flow to
// a queue — and therefore to a NEaT replica — based on this hash of the
// 5-tuple, which is what gives NEaT random, replica-affine connection
// placement without any software coordination.
#pragma once

#include <array>
#include <cstdint>

#include "net/addr.hpp"

namespace neat::nic {

/// The de-facto standard 40-byte key (from the MS RSS verification suite).
inline constexpr std::array<std::uint8_t, 40> kDefaultRssKey = {
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67,
    0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0, 0xd0, 0xca, 0x2b, 0xcb,
    0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30,
    0xf2, 0x0c, 0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa};

/// The hash is linear over GF(2): input bit n, when set, XORs in the 32 key
/// bits starting at key bit n. So each byte position of the IPv4 4-tuple
/// gets a 256-entry table of the XOR its byte value selects, and a hash is
/// one lookup per input byte instead of a loop per bit.
using ToeplitzTables = std::array<std::array<std::uint32_t, 256>, 12>;

[[nodiscard]] constexpr ToeplitzTables make_toeplitz_tables(
    const std::array<std::uint8_t, 40>& key) {
  ToeplitzTables t{};
  for (std::size_t pos = 0; pos < t.size(); ++pos) {
    // window[i]: the 32 key bits for bit i (MSB first) of byte `pos`.
    std::array<std::uint32_t, 8> window{};
    for (std::size_t i = 0; i < 8; ++i) {
      for (std::size_t b = 0; b < 32; ++b) {
        const std::size_t bit = (pos * 8 + i + b) % (key.size() * 8);
        window[i] = window[i] << 1 | ((key[bit / 8] >> (7 - bit % 8)) & 1u);
      }
    }
    for (std::size_t v = 0; v < 256; ++v) {
      for (std::size_t i = 0; i < 8; ++i) {
        if (v >> (7 - i) & 1) t[pos][v] ^= window[i];
      }
    }
  }
  return t;
}

/// Built at compile time: every NIC shares one 12 KiB copy in read-only
/// data, and constructing a NIC costs nothing for it.
inline constexpr ToeplitzTables kDefaultRssTables =
    make_toeplitz_tables(kDefaultRssKey);

/// Toeplitz hash under the standard key (kDefaultRssKey).
class ToeplitzHasher {
 public:
  /// TCP/UDP IPv4 4-tuple hash: src ip, dst ip, src port, dst port — the
  /// order defined by the RSS spec.
  [[nodiscard]] std::uint32_t hash_tuple(net::Ipv4Addr src, net::Ipv4Addr dst,
                                         std::uint16_t src_port,
                                         std::uint16_t dst_port) const {
    return hash_ip_pair(src, dst) ^ at(8, src_port >> 8) ^ at(9, src_port) ^
           at(10, dst_port >> 8) ^ at(11, dst_port);
  }

  /// IPv4-only 2-tuple hash: src ip, dst ip — used for protocols without
  /// ports (and the "IPv4 only" rows of the RSS verification vectors).
  [[nodiscard]] std::uint32_t hash_ip_pair(net::Ipv4Addr src,
                                           net::Ipv4Addr dst) const {
    return at(0, src.value >> 24) ^ at(1, src.value >> 16) ^
           at(2, src.value >> 8) ^ at(3, src.value) ^ at(4, dst.value >> 24) ^
           at(5, dst.value >> 16) ^ at(6, dst.value >> 8) ^ at(7, dst.value);
  }

 private:
  /// Contribution of input byte `pos` holding the low 8 bits of `byte`.
  [[nodiscard]] static std::uint32_t at(std::size_t pos, std::uint32_t byte) {
    return kDefaultRssTables[pos][byte & 0xff];
  }
};

}  // namespace neat::nic
