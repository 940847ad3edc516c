// Allocation-free steady state. This binary replaces the global operator
// new/delete family with counting wrappers (the simulator is single
// threaded, so plain counters suffice), which lets a test assert how many
// heap allocations a stretch of simulated time made:
//   * a warmed-up keep-alive exchange through a multi-component replica —
//     delayed ACKs, RTO re-arms, wake-ups, tracking filters — allocates
//     nothing at all;
//   * under connection churn, ring stores come from the rig's pool, so the
//     stores allocated track peak concurrency, not the connection count;
//   * a ring that outlives its pool frees its store (ASan/LSan would flag
//     a leak or a double free here).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>

#include "harness/testbed.hpp"
#include "ipc/byte_ring.hpp"
#include "net/packet_pool.hpp"

namespace {

std::uint64_t g_allocs = 0;        // every operator new of any form
std::uint64_t g_array_frees = 0;   // operator delete[] (ring stores)

void* counted_alloc(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  ++g_allocs;
  return p;
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t a) {
  void* p = nullptr;
  std::size_t align = static_cast<std::size_t>(a);
  if (align < sizeof(void*)) align = sizeof(void*);
  if (posix_memalign(&p, align, n == 0 ? 1 : n) != 0) throw std::bad_alloc();
  ++g_allocs;
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept {
  if (p != nullptr) ++g_array_frees;
  std::free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  if (p != nullptr) ++g_array_frees;
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace neat::harness {
namespace {

/// A multi-component NEaT server with tracking filters, and a client whose
/// generators send `requests_per_conn` requests per connection.
struct Rig {
  Rig(int requests_per_conn, std::uint64_t max_conns) {
    NeatServerOptions so;
    so.multi_component = true;
    so.tracking_filters = true;
    so.files = {{"/file20", 20}};
    server.emplace(build_neat_server(tb, so));
    ClientOptions co;
    co.stack_replicas = 1;
    co.generators = 2;
    co.concurrency_per_gen = 4;
    co.requests_per_conn = requests_per_conn;
    co.max_conns = max_conns;
    client.emplace(build_client(tb, co, 1));
    prepopulate_arp(*server, *client);
  }
  ~Rig() {
    client.reset();  // rigs die before their testbed
    server.reset();
  }

  [[nodiscard]] std::size_t concurrency() const {
    std::size_t n = 0;
    for (const auto& g : client->gens) n += g->config().concurrency;
    return n;
  }

  Testbed tb{Testbed::Config{}};
  std::optional<ServerRig> server;
  std::optional<ClientRig> client;
};

TEST(AllocFree, KeepAliveExchangeAllocatesNothingAfterWarmUp) {
  Rig rig(/*requests_per_conn=*/1'000'000, /*max_conns=*/0);
  for (auto& web : rig.server->webs) web->max_requests_per_conn = 1'000'000;
  // The flow tracer's ring grows until it first wraps (65536 events, a
  // warm-up of its own); benchmark runs keep it off, and so does this one.
  rig.tb.sim.tracer().set_enabled(false);
  ASSERT_TRUE(rig.tb.server_nic.params().tracking_filters);
  ASSERT_GT(rig.server->neat->config().tcp.delayed_ack, 0u);
  // Warm-up: connections open, and every freelist, slot array and reused
  // buffer grows to its working size (the rarer burst shapes take a while
  // to show up in each channel and stager).
  rig.tb.sim.run_for(1 * sim::kSecond);
  const std::uint64_t requests_before = rig.server->total_requests();
  const std::uint64_t filter_hits_before =
      rig.tb.server_nic.stats().rx_steered_filter;

  // The window spans several RTO periods (rto_min is 50 ms), so pending
  // retransmission timers fire and re-arm inside it.
  const std::uint64_t allocs_before = g_allocs;
  rig.tb.sim.run_for(300 * sim::kMillisecond);
  const std::uint64_t allocs = g_allocs - allocs_before;

  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(rig.server->total_requests() - requests_before, 1000u)
      << "the window must carry real traffic";
  EXPECT_GT(rig.tb.server_nic.stats().rx_steered_filter, filter_hits_before)
      << "frames must be steered by tracking filters";
}

TEST(AllocFree, RingStoresTrackPeakConcurrencyNotConnectionCount) {
  // One request per connection: every connection opens, writes its rings
  // and closes — 1,000+ cycles in total across the generators.
  Rig rig(/*requests_per_conn=*/1, /*max_conns=*/600);
  rig.tb.sim.run_for(2 * sim::kSecond);
  std::uint64_t conns = 0;
  for (std::size_t i = 0; i < rig.server->neat->replica_count(); ++i) {
    conns += rig.server->neat->replica(i).tcp().stats().conns_accepted;
  }
  ASSERT_GE(conns, 1000u);

  const auto& rs = rig.tb.pool.ring_store_stats();
  // A connection writes at most six rings (a TCP send and receive ring
  // plus a socket-library tx ring, on each side). Its server half can
  // still hold its rings while the client has already opened the next
  // connection, so up to twice the client concurrency is live at once.
  const std::uint64_t bound = 6 * 2 * rig.concurrency();
  EXPECT_LE(rs.fresh, bound);
  EXPECT_GE(rs.fresh + rs.reused, conns) << "every connection takes stores";
  EXPECT_EQ(rs.dropped_full, 0u);
}

TEST(AllocFree, RingOutlivingItsPoolFreesItsStore) {
  const std::uint8_t byte = 7;
  std::optional<ipc::ByteRing> survivor;
  {
    net::PacketPool pool;
    net::PacketPool::Use use(pool);
    survivor.emplace(4096);
    survivor->write({&byte, 1});
    {
      ipc::ByteRing idle(4096);
      idle.write({&byte, 1});
    }  // returned to the freelist...
    ipc::ByteRing again(4096);
    again.write({&byte, 1});  // ...and taken back out
    again.release();
    EXPECT_EQ(pool.ring_store_stats().fresh, 2u);
    EXPECT_EQ(pool.ring_store_stats().reused, 1u);
    EXPECT_EQ(pool.ring_store_stats().recycled, 2u);
  }  // the pool frees its idle store
  // The survivor's store comes back after its pool is gone: it must be
  // freed, not pushed onto a freelist nobody will drain.
  const std::uint64_t frees_before = g_array_frees;
  survivor.reset();
  EXPECT_EQ(g_array_frees - frees_before, 1u);
}

}  // namespace
}  // namespace neat::harness
