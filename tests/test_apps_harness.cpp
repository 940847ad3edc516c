// Application- and harness-level tests: HttpServer behaviours (keep-alive
// limits, 404s, pipelining), LoadGen controls (max_conns, think time), and
// the placement generators that encode the paper's Figures 6, 8 and 10.
#include <gtest/gtest.h>

#include <set>

#include "harness/testbed.hpp"

namespace neat::harness {
namespace {

struct AppsFixture : public ::testing::Test {
  void build(int webs = 1, std::function<void(NeatServerOptions&)> mod = {}) {
    client.reset();  // rigs pin processes to the old testbed's hw threads
    server.reset();
    tb.reset();
    Testbed::Config cfg;
    cfg.seed = 13;
    tb = std::make_unique<Testbed>(cfg);
    NeatServerOptions so;
    so.replicas = 1;
    so.webs = webs;
    so.files = {{"/file20", 20}, {"/big", 4096}};
    if (mod) mod(so);
    server = std::make_unique<ServerRig>(build_neat_server(*tb, so));
  }

  std::unique_ptr<Testbed> tb;
  std::unique_ptr<ServerRig> server;
  std::unique_ptr<ClientRig> client;
};

TEST_F(AppsFixture, NotFoundReturns404WithoutKillingTheConnection) {
  build();
  ClientOptions co;
  co.generators = 1;
  co.concurrency_per_gen = 2;
  co.requests_per_conn = 10;
  co.path = "/missing";
  client = std::make_unique<ClientRig>(build_client(*tb, co, 1));
  prepopulate_arp(*server, *client);
  tb->sim.run_for(200 * sim::kMillisecond);
  const auto& r = client->gens[0]->report();
  EXPECT_GT(r.bad_status, 0u) << "404s must flow back as responses";
  EXPECT_GT(server->webs[0]->app_stats().not_found, 0u);
  EXPECT_GT(r.committed_requests, 10u)
      << "keep-alive continues across 404 responses";
}

TEST_F(AppsFixture, KeepAliveLimitClosesConnectionCleanly) {
  build(1, [](NeatServerOptions&) {});
  server->webs[0]->max_requests_per_conn = 5;  // tiny lighttpd limit
  ClientOptions co;
  co.generators = 1;
  co.concurrency_per_gen = 2;
  co.requests_per_conn = 100;  // client wants more than the server allows
  client = std::make_unique<ClientRig>(build_client(*tb, co, 1));
  prepopulate_arp(*server, *client);
  tb->sim.run_for(300 * sim::kMillisecond);
  const auto& r = client->gens[0]->report();
  // The server hangs up after 5 requests; httperf counts those
  // connections as errored (premature close), yet service continues.
  EXPECT_GT(server->webs[0]->app_stats().requests, 50u);
  EXPECT_GT(r.error_conns, 0u);
}

TEST_F(AppsFixture, MaxConnsStopsTheGenerator) {
  build();
  ClientOptions co;
  co.generators = 1;
  co.concurrency_per_gen = 4;
  co.requests_per_conn = 3;
  co.max_conns = 6;
  client = std::make_unique<ClientRig>(build_client(*tb, co, 1));
  prepopulate_arp(*server, *client);
  tb->sim.run_for(400 * sim::kMillisecond);
  const auto& r = client->gens[0]->report();
  EXPECT_EQ(r.clean_conns + r.error_conns, 6u);
  EXPECT_EQ(r.committed_requests, 6u * 3u);
  EXPECT_EQ(client->gens[0]->in_flight_conns(), 0u);
}

TEST_F(AppsFixture, ThinkTimeThrottlesOfferedLoad) {
  auto run_with_think = [&](sim::SimTime think) {
    build();
    ClientOptions co;
    co.generators = 1;
    co.concurrency_per_gen = 4;
    client = std::make_unique<ClientRig>(build_client(*tb, co, 1));
    for (auto& g : client->gens) g->config().think_time = think;
    prepopulate_arp(*server, *client);
    tb->sim.run_for(100 * sim::kMillisecond);
    client->mark();
    tb->sim.run_for(200 * sim::kMillisecond);
    return client->gens[0]->report().committed_requests;
  };
  const auto fast = run_with_think(0);
  const auto slow = run_with_think(2 * sim::kMillisecond);
  // 4 connections at ~2ms/request => ~2k requests/s => ~400 in 200ms.
  EXPECT_LT(slow, fast / 4);
  EXPECT_NEAR(static_cast<double>(slow), 400.0, 200.0);
}

TEST_F(AppsFixture, LargerFilesYieldMultiSegmentResponses) {
  build();
  ClientOptions co;
  co.generators = 1;
  co.concurrency_per_gen = 2;
  co.path = "/big";
  client = std::make_unique<ClientRig>(build_client(*tb, co, 1));
  prepopulate_arp(*server, *client);
  tb->sim.run_for(200 * sim::kMillisecond);
  const auto& r = client->gens[0]->report();
  EXPECT_GT(r.committed_requests, 100u);
  EXPECT_GT(r.committed_bytes, r.committed_requests * 4000u);
  EXPECT_EQ(r.bad_status, 0u);
}

TEST_F(AppsFixture, BodiesLargerThanTheTxRingSurviveShortWrites) {
  // A 100 KiB body cannot fit the 32 KiB socket tx ring: every response
  // is sent as a short gather write of head + body, resumed on
  // on_writable. The client compares each body byte with the file.
  static constexpr std::size_t kSize = 100 * 1024;
  build(1, [](NeatServerOptions& so) { so.files.push_back({"/huge", kSize}); });
  ClientOptions co;
  co.generators = 1;
  co.concurrency_per_gen = 2;
  co.requests_per_conn = 5;
  co.max_conns = 4;  // a finite run: every response completes
  co.path = "/huge";
  client = std::make_unique<ClientRig>(build_client(*tb, co, 1));
  client->gens[0]->config().expect_body = server->files->lookup("/huge");
  prepopulate_arp(*server, *client);
  tb->sim.run_for(500 * sim::kMillisecond);
  const auto& r = client->gens[0]->report();
  const auto& s = server->webs[0]->app_stats();
  EXPECT_EQ(r.committed_requests, 4u * 5u);
  EXPECT_EQ(r.payload_mismatches, 0u);
  EXPECT_EQ(r.bad_status, 0u);
  EXPECT_EQ(s.requests, 4u * 5u);
  EXPECT_EQ(s.bytes_sent,
            s.requests * (apps::build_response_head(200, kSize).size() + kSize));
}

// ---------------------------------------------------------------------------
// Placement generators
// ---------------------------------------------------------------------------

using Slot = Placement::Slot;

std::set<std::pair<int, int>> all_slots(const Placement& p) {
  std::set<std::pair<int, int>> s;
  auto add = [&](const Slot& slot) {
    auto [it, inserted] = s.insert({slot.core, slot.thread});
    EXPECT_TRUE(inserted) << "slot (" << slot.core << "," << slot.thread
                          << ") assigned twice";
  };
  add(p.os);
  if (p.syscall.core != p.os.core || p.syscall.thread != p.os.thread) {
    add(p.syscall);
  }
  add(p.driver);
  for (const auto& r : p.replicas) {
    for (const auto& slot : r) add(slot);
  }
  for (const auto& w : p.webs) add(w);
  return s;
}

TEST(Placements, AmdFigure6LayoutsAreDisjointAndFit) {
  // Figure 6b: OS | SYSCALL | drv | NEaT 1-3 | Web 1-6 on 12 cores.
  const auto single = amd_placement(false, 3, 6);
  const auto slots = all_slots(single);
  EXPECT_EQ(slots.size(), 12u);
  for (const auto& [core, thread] : slots) {
    EXPECT_LT(core, 12);
    EXPECT_EQ(thread, 0);
  }
  // Figure 6a: OS | SYSCALL | drv | TCP1 IP1 TCP2 IP2 | Web 1-5.
  const auto multi = amd_placement(true, 2, 5);
  EXPECT_EQ(all_slots(multi).size(), 12u);
  EXPECT_EQ(multi.replicas[0].size(), 2u);  // TCP + IP pins
}

TEST(Placements, XeonFigure10PacksFourReplicasOnTwoCores) {
  // Figure 10: drv+SYSCALL share a core; 4 replicas on 2 cores (both
  // threads); 9 webs, the last on the OS core's sibling.
  const auto p = xeon_placement(false, 4, 9, /*ht=*/true);
  EXPECT_EQ(p.driver.core, p.syscall.core);
  EXPECT_NE(p.driver.thread, p.syscall.thread);
  std::set<int> replica_cores;
  for (const auto& r : p.replicas) replica_cores.insert(r[0].core);
  EXPECT_EQ(replica_cores.size(), 2u) << "4 replicas pack onto 2 cores";
  EXPECT_EQ(p.webs.size(), 9u);
  EXPECT_EQ(p.webs.back().core, p.os.core)
      << "the 9th lighttpd shares the OS core (Web 9 in Fig. 10)";
  all_slots(p);  // asserts disjointness
}

TEST(Placements, XeonMultiHtColocatesReplicaPairs) {
  // Figure 8c: TCP1+TCP2 on one core's threads, IP1+IP2 on another's.
  const auto p = xeon_placement(true, 2, 8, /*ht=*/true);
  EXPECT_EQ(p.replicas[0][0].core, p.replicas[1][0].core);  // TCPs pair
  EXPECT_EQ(p.replicas[0][1].core, p.replicas[1][1].core);  // IPs pair
  EXPECT_NE(p.replicas[0][0].core, p.replicas[0][1].core);
  all_slots(p);
}

TEST(Placements, XeonWebsFillWholeCoresBeforeSiblings) {
  const auto p = xeon_placement(false, 2, 6, /*ht=*/false);
  // First webs land on thread 0 of distinct free cores.
  std::set<int> first_cores;
  for (int i = 0; i < 4 && i < static_cast<int>(p.webs.size()); ++i) {
    EXPECT_EQ(p.webs[static_cast<std::size_t>(i)].thread, 0);
    first_cores.insert(p.webs[static_cast<std::size_t>(i)].core);
  }
  EXPECT_EQ(first_cores.size(), 4u);
  // Later webs fall back to sibling threads.
  EXPECT_EQ(p.webs[4].thread, 1);
}

}  // namespace
}  // namespace neat::harness
