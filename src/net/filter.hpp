// Stateless packet filter — the PF component of a multi-component replica.
//
// Rules match on the IPv4 5-tuple with wildcards, first match wins; the
// default policy is accept. Being stateless, the component hosting this
// filter recovers transparently from crashes: rules are re-installed from
// configuration (Table 3 discussion).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/addr.hpp"
#include "net/ipv4.hpp"
#include "net/packet.hpp"

namespace neat::net {

struct FilterRule {
  enum class Action { kAccept, kDrop };

  Action action{Action::kDrop};
  std::optional<IpProto> proto;      // nullopt = any
  std::optional<Ipv4Addr> src_ip;    // nullopt = any
  std::optional<Ipv4Addr> dst_ip;
  std::optional<std::uint16_t> src_port;  // only meaningful for TCP/UDP
  std::optional<std::uint16_t> dst_port;
  std::string label;

  mutable std::uint64_t hits{0};
};

class PacketFilter {
 public:
  /// Append a rule (evaluated in insertion order).
  void add_rule(FilterRule rule) { rules_.push_back(std::move(rule)); }
  void clear() { rules_.clear(); }
  [[nodiscard]] std::size_t rule_count() const { return rules_.size(); }
  [[nodiscard]] const std::vector<FilterRule>& rules() const { return rules_; }

  /// Evaluate a packet. Ports are 0 when the protocol has none.
  [[nodiscard]] bool accept(IpProto proto, Ipv4Addr src, Ipv4Addr dst,
                            std::uint16_t src_port,
                            std::uint16_t dst_port) const {
    for (const auto& r : rules_) {
      if (r.proto && *r.proto != proto) continue;
      if (r.src_ip && *r.src_ip != src) continue;
      if (r.dst_ip && *r.dst_ip != dst) continue;
      if (r.src_port && *r.src_port != src_port) continue;
      if (r.dst_port && *r.dst_port != dst_port) continue;
      ++r.hits;
      return r.action == FilterRule::Action::kAccept;
    }
    ++default_hits_;
    return true;  // default accept
  }

  /// Evaluate a decoded IPv4 datagram (`payload` starts at the transport
  /// header). Free when no rules are installed: nothing is evaluated and
  /// default_hits() does not move.
  [[nodiscard]] bool accept_packet(const Ipv4Header& hdr,
                                   const Packet& payload) const {
    if (rules_.empty()) return true;
    std::uint16_t sport = 0;
    std::uint16_t dport = 0;
    const auto b = payload.bytes();
    if ((hdr.proto == IpProto::kTcp || hdr.proto == IpProto::kUdp) &&
        b.size() >= 4) {
      sport = static_cast<std::uint16_t>(b[0] << 8 | b[1]);
      dport = static_cast<std::uint16_t>(b[2] << 8 | b[3]);
    }
    return accept(hdr.proto, hdr.src, hdr.dst, sport, dport);
  }

  [[nodiscard]] std::uint64_t default_hits() const { return default_hits_; }

 private:
  std::vector<FilterRule> rules_;
  mutable std::uint64_t default_hits_{0};
};

}  // namespace neat::net
