// Link- and network-layer addresses.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <string>

namespace neat::net {

/// 48-bit Ethernet MAC address.
struct MacAddr {
  std::array<std::uint8_t, 6> bytes{};

  auto operator<=>(const MacAddr&) const = default;

  [[nodiscard]] bool is_broadcast() const {
    for (auto b : bytes) {
      if (b != 0xff) return false;
    }
    return true;
  }

  [[nodiscard]] static MacAddr broadcast() {
    return MacAddr{{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}};
  }

  /// Locally administered address derived from a small integer id.
  [[nodiscard]] static MacAddr local(std::uint32_t id) {
    return MacAddr{{0x02, 0x00, static_cast<std::uint8_t>(id >> 24),
                    static_cast<std::uint8_t>(id >> 16),
                    static_cast<std::uint8_t>(id >> 8),
                    static_cast<std::uint8_t>(id)}};
  }

  [[nodiscard]] std::string str() const;
};

/// IPv4 address in host byte order.
struct Ipv4Addr {
  std::uint32_t value{0};

  auto operator<=>(const Ipv4Addr&) const = default;

  [[nodiscard]] static constexpr Ipv4Addr of(std::uint8_t a, std::uint8_t b,
                                             std::uint8_t c, std::uint8_t d) {
    return Ipv4Addr{static_cast<std::uint32_t>(a) << 24 |
                    static_cast<std::uint32_t>(b) << 16 |
                    static_cast<std::uint32_t>(c) << 8 |
                    static_cast<std::uint32_t>(d)};
  }

  [[nodiscard]] static constexpr Ipv4Addr any() { return Ipv4Addr{0}; }
  [[nodiscard]] bool is_any() const { return value == 0; }

  [[nodiscard]] std::string str() const;
};

/// Transport endpoint (address, port).
struct SockAddr {
  Ipv4Addr ip;
  std::uint16_t port{0};

  auto operator<=>(const SockAddr&) const = default;
  [[nodiscard]] std::string str() const;
};

/// Connection 4-tuple as seen from the local host.
struct FlowKey {
  Ipv4Addr local_ip;
  std::uint16_t local_port{0};
  Ipv4Addr remote_ip;
  std::uint16_t remote_port{0};

  auto operator<=>(const FlowKey&) const = default;
  [[nodiscard]] std::string str() const;
};

struct FlowKeyHash {
  std::size_t operator()(const FlowKey& k) const {
    std::uint64_t h = k.local_ip.value;
    h = h * 0x9e3779b97f4a7c15ULL + k.remote_ip.value;
    h = h * 0x9e3779b97f4a7c15ULL +
        (static_cast<std::uint64_t>(k.local_port) << 16 | k.remote_port);
    // The full splitmix64 finalizer: FlowTable masks the low bits, so they
    // must depend on every input bit (sequential ephemeral ports included).
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return static_cast<std::size_t>(h);
  }
};

}  // namespace neat::net
