// Replica data-path tests beyond TCP: ARP resolution over the wire, ICMP
// echo, UDP delivery (single- and multi-component), IP fragmentation
// through the full path, the packet filter in the inbound path, and the
// egress-burst stager (TxBurst) behind StackReplica::udp_tx.
#include <gtest/gtest.h>

#include <vector>

#include "harness/testbed.hpp"

namespace neat::harness {
namespace {

struct ReplicaFixture : public ::testing::Test {
  void build(bool multi) {
    client.reset();  // hosts pin processes to the old testbed's hw threads
    server.reset();
    tb.reset();
    Testbed::Config cfg;
    cfg.seed = 31337;
    tb = std::make_unique<Testbed>(cfg);

    NeatHost::Config hc;
    hc.kind = multi ? NeatHost::Config::Kind::kMulti
                    : NeatHost::Config::Kind::kSingle;
    server = std::make_unique<NeatHost>(tb->sim, tb->server_machine,
                                        tb->server_nic, hc);
    server->os_process().pin(tb->server_machine.thread(0));
    server->syscall().pin(tb->server_machine.thread(1));
    server->driver().pin(tb->server_machine.thread(2));
    if (multi) {
      server->add_replica({&tb->server_machine.thread(3),
                           &tb->server_machine.thread(4)});
    } else {
      server->add_replica({&tb->server_machine.thread(3)});
    }

    NeatHost::Config cc;
    client = std::make_unique<NeatHost>(tb->sim, tb->client_machine,
                                        tb->client_nic, cc);
    client->os_process().pin(tb->client_machine.thread(0));
    client->syscall().pin(tb->client_machine.thread(1));
    client->driver().pin(tb->client_machine.thread(2));
    client->add_replica({&tb->client_machine.thread(3)});
  }

  void run(sim::SimTime t = 50 * sim::kMillisecond) { tb->sim.run_for(t); }

  /// Send a UDP datagram from the client replica to the server.
  void send_udp(std::uint16_t sport, std::uint16_t dport,
                std::size_t payload_size) {
    auto& rep = client->replica(0);
    rep.tcp_process().post(2000, [&rep, sport, dport, payload_size] {
      auto pkt = net::Packet::make(payload_size);
      for (std::size_t i = 0; i < payload_size; ++i) {
        pkt->bytes()[i] = static_cast<std::uint8_t>(i);
      }
      net::UdpHeader uh;
      uh.src_port = sport;
      uh.dst_port = dport;
      uh.encode(*pkt, kClientIp, kServerIp);
      rep.ip_layer_ref().send(std::move(pkt), net::IpProto::kUdp, kClientIp,
                              kServerIp);
    });
  }

  /// From the server replica's UDP-bearing process, send one datagram of
  /// each size to the client's port 7000 (all staged in one job).
  void server_udp_burst(std::vector<std::size_t> sizes) {
    auto& rep = server->replica(0);
    rep.component(Component::kUdp)->post(1000, [&rep, sizes] {
      for (std::size_t n : sizes) {
        rep.udp_tx(net::Packet::make(n), 5000, {kClientIp, 7000});
      }
    });
  }

  /// Stage a burst of two datagrams on the server replica, then crash its
  /// UDP-bearing process before the burst's flush job runs.
  void crash_mid_burst() {
    auto& rep = server->replica(0);
    rep.component(Component::kUdp)->post(1000, [this, &rep] {
      rep.udp_tx(net::Packet::make(10), 5000, {kClientIp, 7000});
      rep.udp_tx(net::Packet::make(20), 5000, {kClientIp, 7000});
      tb->sim.schedule(0, [this, &rep] {
        server->inject_crash(rep, Component::kUdp);
      });
    });
    run(1 * sim::kMillisecond);
  }

  void prepopulate() {
    for (std::size_t i = 0; i < server->replica_count(); ++i) {
      server->replica(i).ip_layer_ref().arp().insert(kClientIp,
                                                     net::MacAddr::local(2));
    }
    client->replica(0).ip_layer_ref().arp().insert(kServerIp,
                                                   net::MacAddr::local(1));
  }

  std::unique_ptr<Testbed> tb;
  std::unique_ptr<NeatHost> server;
  std::unique_ptr<NeatHost> client;
};

TEST_F(ReplicaFixture, ArpResolvesOverTheWire) {
  build(false);
  // No static entries: the first IP transmission must trigger real ARP.
  bool resolved = false;
  auto& rep = client->replica(0);
  rep.tcp_process().post(1000, [&] {
    rep.ip_layer_ref().arp().resolve(kServerIp, [&](net::MacAddr m) {
      resolved = true;
      EXPECT_EQ(m, net::MacAddr::local(1));
    });
  });
  run();
  EXPECT_TRUE(resolved);
  // The server side learned the client's mapping from the request.
  EXPECT_EQ(server->replica(0).ip_layer_ref().arp().lookup(kClientIp),
            net::MacAddr::local(2));
}

TEST_F(ReplicaFixture, UdpDatagramReachesBoundPort) {
  for (bool multi : {false, true}) {
    build(multi);
    prepopulate();
    std::size_t got = 0;
    net::SockAddr from{};
    server->replica(0).udp().bind(53, [&](net::UdpMux::Datagram d) {
      got = d.payload->size();
      from = d.from;
    });
    send_udp(9999, 53, 120);
    run();
    EXPECT_EQ(got, 120u) << (multi ? "multi" : "single");
    EXPECT_EQ(from.ip, kClientIp);
    EXPECT_EQ(from.port, 9999);
  }
}

TEST_F(ReplicaFixture, OversizeUdpFragmentsAndReassembles) {
  build(false);
  prepopulate();
  std::size_t got = 0;
  server->replica(0).udp().bind(53, [&](net::UdpMux::Datagram d) {
    got = d.payload->size();
    // Verify content survived fragmentation + reassembly.
    for (std::size_t i = 0; i < d.payload->size(); ++i) {
      ASSERT_EQ(d.payload->bytes()[i], static_cast<std::uint8_t>(i));
    }
  });
  send_udp(9999, 53, 5000);  // > MTU: 4 fragments on the wire
  run();
  EXPECT_EQ(got, 5000u);
  EXPECT_GE(tb->server_nic.stats().rx_frames, 4u);
}

TEST_F(ReplicaFixture, IcmpEchoIsAnswered) {
  for (bool multi : {false, true}) {
    SCOPED_TRACE(multi ? "multi" : "single");
    build(multi);
    prepopulate();
    // Raw ICMP echo from the client replica.
    auto& rep = client->replica(0);
    rep.tcp_process().post(2000, [&rep] {
      auto pkt = net::Packet::make(32);
      net::IcmpMessage m;
      m.type = net::IcmpMessage::Type::kEchoRequest;
      m.ident = 1;
      m.seq = 1;
      m.encode(*pkt);
      rep.ip_layer_ref().send(std::move(pkt), net::IpProto::kIcmp, kClientIp,
                              kServerIp);
    });
    run();
    // The reply comes back to the client NIC (an extra RX frame beyond ARP).
    EXPECT_GE(tb->client_nic.stats().rx_frames, 1u);
    EXPECT_GE(tb->server_nic.stats().tx_frames, 1u);
  }
}

TEST_F(ReplicaFixture, PacketFilterDropsMatchingUdp) {
  for (bool multi : {false, true}) {
    SCOPED_TRACE(multi ? "multi" : "single");
    build(multi);
    prepopulate();
    net::FilterRule drop;
    drop.action = net::FilterRule::Action::kDrop;
    drop.proto = net::IpProto::kUdp;
    drop.dst_port = 53;
    server->replica(0).filter().add_rule(drop);

    int got = 0;
    server->replica(0).udp().bind(53, [&](net::UdpMux::Datagram) { ++got; });
    server->replica(0).udp().bind(54, [&](net::UdpMux::Datagram) { ++got; });
    send_udp(9999, 53, 32);  // dropped
    send_udp(9999, 54, 32);  // passes (different port)
    run();
    EXPECT_EQ(got, 1);
    EXPECT_EQ(server->replica(0).filter().rules()[0].hits, 1u);
  }
}

TEST_F(ReplicaFixture, PacketFilterRulesSurviveSupervisedRestart) {
  for (bool multi : {false, true}) {
    SCOPED_TRACE(multi ? "multi" : "single");
    build(multi);
    prepopulate();
    auto& rep = server->replica(0);
    net::FilterRule drop;
    drop.action = net::FilterRule::Action::kDrop;
    drop.proto = net::IpProto::kUdp;
    drop.dst_port = 53;
    rep.filter().add_rule(drop);

    // Crash the process that holds the rules and let the supervisor's
    // watchdog detect it and restart it.
    const Component pf = multi ? Component::kFilter : Component::kWhole;
    server->inject_crash(rep, pf);
    ASSERT_TRUE(rep.component(pf)->crashed());
    run(200 * sim::kMillisecond);
    ASSERT_FALSE(rep.component(pf)->crashed());
    ASSERT_EQ(server->supervisor().stats().restarts, 1u);

    // The rules are configuration: the restart keeps them, and they bite.
    EXPECT_EQ(rep.filter().rule_count(), 1u);
    int got = 0;
    rep.udp().bind(53, [&](net::UdpMux::Datagram) { ++got; });
    rep.udp().bind(54, [&](net::UdpMux::Datagram) { ++got; });
    send_udp(9999, 53, 32);  // dropped
    send_udp(9999, 54, 32);  // passes (different port)
    run();
    EXPECT_EQ(got, 1);
    EXPECT_EQ(rep.filter().rules()[0].hits, 1u);
  }
}

TEST_F(ReplicaFixture, UdpBurstLeavesInOrderForTwoJobs) {
  for (bool multi : {false, true}) {
    SCOPED_TRACE(multi ? "multi" : "single");
    build(multi);
    prepopulate();
    run(1 * sim::kMillisecond);
    const sim::Process& udp = *server->replica(0).component(Component::kUdp);
    const std::uint64_t jobs_before = udp.stats().jobs;
    std::vector<std::size_t> got;
    std::uint64_t jobs_at_last = 0;
    client->replica(0).udp().bind(7000, [&](net::UdpMux::Datagram d) {
      got.push_back(d.payload->size());
      jobs_at_last = udp.stats().jobs;
    });
    server_udp_burst({10, 20, 30});
    run();
    EXPECT_EQ(got, (std::vector<std::size_t>{10, 20, 30}));
    // The staging job, then one flush job emitting all three and one
    // accounting job charging datagrams 2 and 3 — not one job each.
    EXPECT_EQ(jobs_at_last - jobs_before, 1u + 2u);
  }
}

TEST_F(ReplicaFixture, UdpBurstDiesWithItsProcess) {
  for (bool multi : {false, true}) {
    SCOPED_TRACE(multi ? "multi" : "single");
    build(multi);
    prepopulate();
    run(1 * sim::kMillisecond);
    std::vector<std::size_t> got;
    client->replica(0).udp().bind(7000, [&](net::UdpMux::Datagram d) {
      got.push_back(d.payload->size());
    });
    const std::uint64_t tx_before = tb->server_nic.stats().tx_frames;
    crash_mid_burst();
    EXPECT_TRUE(server->replica(0).component(Component::kUdp)->crashed());
    EXPECT_TRUE(got.empty());
    EXPECT_EQ(tb->server_nic.stats().tx_frames, tx_before);
  }
}

TEST_F(ReplicaFixture, UdpBurstRearmsAfterRecovery) {
  for (bool multi : {false, true}) {
    SCOPED_TRACE(multi ? "multi" : "single");
    build(multi);
    prepopulate();
    run(1 * sim::kMillisecond);
    std::vector<std::size_t> got;
    client->replica(0).udp().bind(7000, [&](net::UdpMux::Datagram d) {
      got.push_back(d.payload->size());
    });
    crash_mid_burst();
    auto& rep = server->replica(0);
    server->recover_replica(rep, Component::kUdp);
    ASSERT_FALSE(rep.component(Component::kUdp)->crashed());
    // The dead burst's flush job never ran; a stale armed flag would stage
    // this datagram behind a flush that never comes.
    server_udp_burst({30});
    run();
    EXPECT_EQ(got, (std::vector<std::size_t>{30}));
  }
}

}  // namespace
}  // namespace neat::harness
