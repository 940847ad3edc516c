#include "neat/replica.hpp"

#include <utility>

namespace neat {

namespace {

/// Shared TcpEnv::on_flow_established body: with handshake-deferred
/// tracking filters, a passively established flow earns its exact-match
/// steering entry now — installed in driver context, pinned to the
/// replica's queue (where RSS delivered the whole handshake).
void deferred_filter_install(drv::NicDriver* driver, const net::FlowKey& key,
                             int queue) {
  if (driver == nullptr) return;
  const nic::NicParams& p = driver->nic().params();
  if (!p.tracking_filters || !p.defer_syn_filters) return;
  driver->control(
      [driver, key, queue] { driver->nic().add_flow_filter(key, queue); });
}

}  // namespace

const char* to_string(Component c) {
  switch (c) {
    case Component::kIp: return "ip";
    case Component::kTcp: return "tcp";
    case Component::kUdp: return "udp";
    case Component::kFilter: return "pf";
    case Component::kWhole: return "stack";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// IpLayer
// ---------------------------------------------------------------------------

IpLayer::IpLayer(net::MacAddr mac, net::Ipv4Addr ip, FrameTx tx_frame)
    : mac_(mac),
      ip_(ip),
      tx_frame_(std::move(tx_frame)),
      arp_(mac, ip, [this](const net::ArpMessage& m, net::MacAddr dst) {
        auto pkt = m.encode();
        net::EthernetHeader eth;
        eth.src = mac_;
        eth.dst = dst;
        eth.type = net::EtherType::kArp;
        eth.encode(*pkt);
        tx_frame_(std::move(pkt));
      }) {}

void IpLayer::send(net::PacketPtr payload, net::IpProto proto,
                   net::Ipv4Addr src, net::Ipv4Addr dst) {
  net::Ipv4Header hdr;
  hdr.src = src;
  hdr.dst = dst;
  hdr.proto = proto;
  hdr.ident = ident_++;
  // TSO super-segments bypass the MTU check: the NIC slices them.
  const bool needs_frag =
      !payload->tso &&
      payload->size() + net::Ipv4Header::kSize > net::kEthernetMtu;

  // An ARP hit (the data-path case) transmits directly; only a miss pays
  // for a queued callback.
  if (const auto mac = arp_.lookup(dst)) {
    transmit(hdr, needs_frag, std::move(payload), *mac);
    return;
  }
  arp_.resolve(dst, [this, hdr, needs_frag, payload = std::move(payload)](
                        net::MacAddr mac) mutable {
    transmit(hdr, needs_frag, std::move(payload), mac);
  });
}

void IpLayer::transmit(const net::Ipv4Header& hdr, bool needs_frag,
                       net::PacketPtr payload, net::MacAddr dst_mac) {
  auto emit = [this, dst_mac](net::PacketPtr ip_pkt) {
    net::EthernetHeader eth;
    eth.src = mac_;
    eth.dst = dst_mac;
    eth.type = net::EtherType::kIpv4;
    eth.encode(*ip_pkt);
    tx_frame_(std::move(ip_pkt));
  };
  if (needs_frag) {
    for (auto& frag : net::ipv4_fragment(hdr, *payload, net::kEthernetMtu)) {
      emit(std::move(frag));
    }
  } else {
    const bool tso = payload->tso;
    hdr.encode(*payload);
    payload->tso = tso;
    emit(std::move(payload));
  }
}

std::optional<IpLayer::Decoded> IpLayer::rx_frame(
    const net::PacketPtr& frame) {
  auto eth = net::EthernetHeader::decode(*frame);
  if (!eth) return std::nullopt;
  if (eth->type == net::EtherType::kArp) {
    if (auto msg = net::ArpMessage::decode(*frame)) arp_.handle(*msg);
    return std::nullopt;
  }
  auto hdr = net::Ipv4Header::decode(*frame);
  if (!hdr) return std::nullopt;
  if (hdr->dst != ip_) return std::nullopt;  // not ours
  auto complete = reasm_.add(*hdr, frame);
  if (!complete) return std::nullopt;
  return Decoded{complete->header, complete->payload};
}

void IpLayer::icmp_rx(const net::Ipv4Header& hdr, net::Packet& payload) {
  auto icmp = net::IcmpMessage::decode(payload);
  if (!icmp || icmp->type != net::IcmpMessage::Type::kEchoRequest) return;
  auto reply = net::Packet::of(payload.bytes());
  net::IcmpMessage r = *icmp;
  r.type = net::IcmpMessage::Type::kEchoReply;
  r.encode(*reply);
  send(std::move(reply), net::IpProto::kIcmp, hdr.dst, hdr.src);
}

void IpLayer::reset() {
  arp_.clear();
  reasm_.expire_all();
  ident_ = 1;
}

// ---------------------------------------------------------------------------
// TxBurst
// ---------------------------------------------------------------------------

void TxBurst::flush() {
  armed_ = false;
  if (const sim::Cycles rest = std::exchange(rest_cost_, sim::Cycles{0});
      rest > 0) {
    proc_.post(rest, [] {});  // CPU time for packets 2..N of the burst
  }
  if (stage_.empty()) return;
  // Take the burst out (emit_ may stage the next one, e.g. via loopback)
  // and leave the spare's capacity behind, so staging never reallocates.
  std::vector<StagedTx> burst = std::move(spare_);
  burst.swap(stage_);
  for (auto& s : burst) {
    if (s.proto != net::IpProto::kUdp) continue;
    net::UdpHeader uh;
    uh.src_port = s.src_port;
    uh.dst_port = s.dst_port;
    uh.encode(*s.pkt, s.src, s.dst);
  }
  emit_(burst);
  burst.clear();
  spare_ = std::move(burst);
}

// ---------------------------------------------------------------------------
// SingleComponentReplica
// ---------------------------------------------------------------------------

SingleComponentReplica::SingleComponentReplica(
    sim::Simulator& sim, int id, int queue, drv::NicDriver& driver,
    net::MacAddr mac, net::Ipv4Addr ip, StackCosts costs,
    net::TcpConfig tcp_cfg, obs::Hub* hub)
    : sim::Process(sim, "neat" + std::to_string(id)),
      StackReplica(id, queue,
                   sim.rng().split(0xa5172 + static_cast<std::uint64_t>(id))()),
      costs_(costs),
      rng_(sim.rng().split(0x5e9 + static_cast<std::uint64_t>(id))),
      hub_(hub),
      driver_(&driver),
      ip_(mac, ip, driver.make_tx_port()),
      rx_ch_(
          *this, 2048, ipc::kDefaultChannelLatency,
          [this](const net::PacketPtr& p) {
            return costs_.single_rx_base + costs_.bytes_cost(p->size());
          },
          nullptr),
      tcp_stack_(*this, ip, tcp_cfg) {
  // Burst mode: one channel delivery job hands the whole frame batch over;
  // TCP segments are regrouped and consumed by TcpStack::rx_batch with
  // per-burst (not per-frame) bookkeeping.
  rx_ch_.set_batch_handler(
      [this](std::vector<net::PacketPtr>&& frames) {
        handle_frame_batch(std::move(frames));
      });
}

sim::EventHandle SingleComponentReplica::start_timer(
    sim::SimTime delay, net::TcpTimer fn) {
  return after(delay, 600, std::move(fn));
}

void SingleComponentReplica::tx(net::PacketPtr segment, net::Ipv4Addr src,
                                net::Ipv4Addr dst) {
  // Charge segment-construction cost in our own context; the segment
  // leaves with the rest of its burst (see TxBurst).
  const sim::Cycles c =
      costs_.single_tx_base + costs_.bytes_cost(segment->size());
  egress_.stage(c, {std::move(segment), src, dst, net::IpProto::kTcp, 0, 0});
}

void SingleComponentReplica::emit(std::span<StagedTx> burst) {
  for (auto& s : burst) {
    if (s.proto == net::IpProto::kTcp && s.dst == ip_.ip()) {
      // Loopback: each replica implements its own loopback device (§3.3).
      handle_ip(net::Ipv4Header{s.src, s.dst, net::IpProto::kTcp},
                std::move(s.pkt));
      continue;
    }
    ip_.send(std::move(s.pkt), s.proto, s.src, s.dst);
  }
}

void SingleComponentReplica::handle_frame_batch(
    std::vector<net::PacketPtr>&& frames) {
  // Decode the whole burst, then hand every TCP segment to the stack in one
  // rx_batch call. Non-TCP traffic (UDP/ICMP, a rarity on the data path) is
  // dispatched inline; cross-protocol ordering within one delivery job has
  // no observable effect since virtual time is frozen for the whole burst.
  rx_segs_.clear();
  for (auto& f : frames) {
    auto decoded = ip_.rx_frame(f);
    if (!decoded) continue;
    if (decoded->hdr.proto == net::IpProto::kTcp) {
      if (!pf_.accept_packet(decoded->hdr, *decoded->payload)) continue;
      rx_segs_.push_back({decoded->hdr.src, decoded->hdr.dst,
                          std::move(decoded->payload)});
    } else {
      handle_ip(decoded->hdr, std::move(decoded->payload));
    }
  }
  const auto ep = epoch();
  tcp_stack_.rx_batch(std::move(rx_segs_), [this, ep] {
    return !crashed() && epoch() == ep;
  });
  rx_segs_.clear();  // drops segments a mid-batch crash left unconsumed
}

void SingleComponentReplica::handle_ip(const net::Ipv4Header& hdr,
                                       net::PacketPtr payload) {
  if (!pf_.accept_packet(hdr, *payload)) return;
  switch (hdr.proto) {
    case net::IpProto::kTcp:
      tcp_stack_.rx(hdr.src, hdr.dst, std::move(payload));
      break;
    case net::IpProto::kUdp: {
      auto uh = net::UdpHeader::decode(*payload, hdr.src, hdr.dst);
      if (uh) udp_.deliver(*uh, hdr.src, hdr.dst, std::move(payload));
      break;
    }
    case net::IpProto::kIcmp:
      ip_.icmp_rx(hdr, *payload);
      break;
  }
}

void SingleComponentReplica::udp_tx(net::PacketPtr payload,
                                    std::uint16_t src_port, net::SockAddr to) {
  const sim::Cycles c =
      costs_.udp_per_packet + costs_.bytes_cost(payload->size());
  egress_.stage(c, {std::move(payload), ip_.ip(), to.ip, net::IpProto::kUdp,
                    src_port, to.port});
}

void SingleComponentReplica::on_flow_established(const net::FlowKey& key) {
  deferred_filter_install(driver_, key, queue());
}

void SingleComponentReplica::on_crash() {
  // All state dies with the process — silently, as seen from the wire.
  tcp_stack_.destroy_all_state();
  ip_.reset();
  udp_.clear();
  egress_.clear();
}

void SingleComponentReplica::reset_after_restart(Component) {
  tcp_stack_.destroy_all_state();
  ip_.reset();
  udp_.clear();
  // pf_ keeps its rules: they are configuration, not soft state.
  rerandomize_layout();  // a fresh process image -> fresh ASLR layout
}

// ---------------------------------------------------------------------------
// Multi-component replica
// ---------------------------------------------------------------------------

TcpComponent::TcpComponent(sim::Simulator& sim, MultiComponentReplica& owner,
                           std::string name, net::Ipv4Addr ip,
                           StackCosts costs, net::TcpConfig cfg)
    : sim::Process(sim, std::move(name)),
      owner_(owner),
      costs_(costs),
      rng_(sim.rng().split(0x7c9 + static_cast<std::uint64_t>(owner.id()))),
      tcp_stack_(*this, ip, cfg) {}

sim::EventHandle TcpComponent::start_timer(sim::SimTime delay,
                                           net::TcpTimer fn) {
  return after(delay, 600, std::move(fn));
}

void TcpComponent::tx(net::PacketPtr segment, net::Ipv4Addr src,
                      net::Ipv4Addr dst) {
  const sim::Cycles c = costs_.tcp_tx_base + costs_.bytes_cost(segment->size());
  egress_.stage(c, {std::move(segment), src, dst, net::IpProto::kTcp, 0, 0});
}

void TcpComponent::emit(std::span<StagedTx> burst) {
  for (auto& s : burst) {
    if (s.dst == tcp_stack_.local_ip()) {
      // Loopback short-circuits inside the TCP component.
      post(costs_.tcp_rx_base + costs_.bytes_cost(s.pkt->size()),
           [this, seg = std::move(s.pkt), src = s.src, dst = s.dst]() mutable {
             tcp_stack_.rx(src, dst, std::move(seg));
           });
      continue;
    }
    owner_.tcp_to_ip_->send(MultiComponentReplica::TcpToIp{
        std::move(s.pkt), s.src, s.dst, net::IpProto::kTcp});
  }
}

void TcpComponent::on_flow_established(const net::FlowKey& key) {
  deferred_filter_install(owner_.driver_, key, owner_.queue());
}

obs::Hub* TcpComponent::obs_hub() {
  obs::Hub* hub = owner_.hub_override();
  return hub != nullptr ? hub : &sim().obs();
}

void TcpComponent::on_crash() {
  tcp_stack_.destroy_all_state();
  egress_.clear();
}

IpComponent::IpComponent(sim::Simulator& sim, MultiComponentReplica& owner,
                         std::string name, net::MacAddr mac, net::Ipv4Addr ip,
                         StackCosts costs, IpLayer::FrameTx tx_frame)
    : sim::Process(sim, std::move(name)),
      owner_(owner),
      costs_(costs),
      rx_ch_(
          *this, 2048, ipc::kDefaultChannelLatency,
          [this](const net::PacketPtr& p) {
            return costs_.ip_rx_base + costs_.bytes_cost(p->size());
          },
          [this](net::PacketPtr&& p) { handle_frame(std::move(p)); }),
      ip_(mac, ip, std::move(tx_frame)) {}

void IpComponent::handle_frame(net::PacketPtr frame) {
  auto decoded = ip_.rx_frame(frame);
  if (!decoded) return;
  const auto& hdr = decoded->hdr;
  // Filtering happens in IP context at no modeled cost, as in the
  // single-component replica; the rules live in the PF process.
  if (!owner_.filter().accept_packet(hdr, *decoded->payload)) return;
  switch (hdr.proto) {
    case net::IpProto::kTcp:
      owner_.ip_to_tcp_->send(MultiComponentReplica::IpToTcp{
          hdr.src, hdr.dst, std::move(decoded->payload)});
      break;
    case net::IpProto::kUdp:
      owner_.ip_to_udp_->send(MultiComponentReplica::IpToTcp{
          hdr.src, hdr.dst, std::move(decoded->payload)});
      break;
    case net::IpProto::kIcmp:
      ip_.icmp_rx(hdr, *decoded->payload);
      break;
  }
}

void IpComponent::on_crash() { ip_.reset(); }
void IpComponent::on_restart() { ip_.reset(); }

FilterComponent::FilterComponent(sim::Simulator& sim, std::string name)
    : sim::Process(sim, std::move(name)) {}

MultiComponentReplica::MultiComponentReplica(
    sim::Simulator& sim, int id, int queue, drv::NicDriver& driver,
    net::MacAddr mac, net::Ipv4Addr ip, StackCosts costs,
    net::TcpConfig tcp_cfg, obs::Hub* hub)
    : StackReplica(id, queue,
                   sim.rng().split(0xa5173 + static_cast<std::uint64_t>(id))()),
      costs_(costs),
      hub_(hub),
      driver_(&driver) {
  const std::string base = "multi" + std::to_string(id);
  tcp_proc_ = std::make_unique<TcpComponent>(sim, *this, base + ".tcp", ip,
                                             costs, tcp_cfg);
  ip_proc_ = std::make_unique<IpComponent>(sim, *this, base + ".ip", mac, ip,
                                           costs, driver.make_tx_port());
  udp_proc_ = std::make_unique<UdpComponent>(
      sim, base + ".udp", [this](std::span<StagedTx> burst) {
        // Reuses the transport→IP channel; the IP component pays its usual
        // TX cost and encapsulates in its own context.
        for (auto& s : burst) {
          tcp_to_ip_->send(TcpToIp{std::move(s.pkt), s.src, s.dst,
                                   net::IpProto::kUdp});
        }
      });
  pf_proc_ = std::make_unique<FilterComponent>(sim, base + ".pf");

  ip_to_tcp_ = std::make_unique<ipc::Channel<IpToTcp>>(
      *tcp_proc_, 2048, ipc::kDefaultChannelLatency,
      [this](const IpToTcp& m) {
        return costs_.tcp_rx_base + costs_.bytes_cost(m.seg->size());
      },
      nullptr);
  // Burst mode: the IP→TCP crossing delivers a whole batch per consumer
  // job; the stack consumes it with per-burst bookkeeping. The messages
  // already ARE SegmentArrivals, so the batch moves without repacking.
  ip_to_tcp_->set_batch_handler([this](std::vector<IpToTcp>&& batch) {
    const auto ep = tcp_proc_->epoch();
    tcp_proc_->stack().rx_batch(std::move(batch), [this, ep] {
      return !tcp_proc_->crashed() && tcp_proc_->epoch() == ep;
    });
  });

  ip_to_udp_ = std::make_unique<ipc::Channel<IpToTcp>>(
      *udp_proc_, 512, ipc::kDefaultChannelLatency,
      [this](const IpToTcp& m) {
        return costs_.udp_per_packet + costs_.bytes_cost(m.seg->size());
      },
      nullptr);
  // UDP consumes bursts too: one delivery job drains the whole batch.
  ip_to_udp_->set_batch_handler([this](std::vector<IpToTcp>&& batch) {
    const auto ep = udp_proc_->epoch();
    for (auto& m : batch) {
      if (udp_proc_->crashed() || udp_proc_->epoch() != ep) break;
      auto uh = net::UdpHeader::decode(*m.seg, m.src, m.dst);
      if (uh) udp_proc_->mux().deliver(*uh, m.src, m.dst, std::move(m.seg));
    }
  });

  tcp_to_ip_ = std::make_unique<ipc::Channel<TcpToIp>>(
      *ip_proc_, 2048, ipc::kDefaultChannelLatency,
      [this](const TcpToIp& m) {
        return costs_.ip_tx_base + costs_.bytes_cost(m.payload->size());
      },
      [this](TcpToIp&& m) {
        ip_proc_->layer().send(std::move(m.payload), m.proto, m.src, m.dst);
      });
}

void MultiComponentReplica::udp_tx(net::PacketPtr payload,
                                   std::uint16_t src_port, net::SockAddr to) {
  const sim::Cycles c =
      costs_.udp_per_packet + costs_.bytes_cost(payload->size());
  udp_proc_->egress().stage(c, {std::move(payload), ip_proc_->layer().ip(),
                                to.ip, net::IpProto::kUdp, src_port, to.port});
}

std::vector<sim::Process*> MultiComponentReplica::processes() {
  return {tcp_proc_.get(), ip_proc_.get(), udp_proc_.get(), pf_proc_.get()};
}

sim::Process* MultiComponentReplica::component(Component c) {
  switch (c) {
    case Component::kTcp: return tcp_proc_.get();
    case Component::kIp: return ip_proc_.get();
    case Component::kUdp: return udp_proc_.get();
    case Component::kFilter: return pf_proc_.get();
    case Component::kWhole: return tcp_proc_.get();
  }
  return nullptr;
}

void MultiComponentReplica::reset_after_restart(Component which) {
  switch (which) {
    case Component::kTcp:
    case Component::kWhole:
      tcp_proc_->stack().destroy_all_state();
      ip_to_tcp_->rebind(*tcp_proc_);
      rerandomize_layout();
      break;
    case Component::kIp:
      ip_proc_->layer().reset();
      // In-flight messages towards TCP died with the old incarnation.
      ip_to_tcp_->rebind(*tcp_proc_);
      tcp_to_ip_->rebind(*ip_proc_);
      break;
    case Component::kUdp:
      udp_proc_->mux().clear();
      ip_to_udp_->rebind(*udp_proc_);
      break;
    case Component::kFilter:
      break;  // the rules are configuration: they survive the restart
  }
}

}  // namespace neat
