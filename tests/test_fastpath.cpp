// Tests for the data-path fast paths: SmallFn inline closures, EventQueue
// slot recycling, PacketPool buffer reuse, the ring/sorted-vector TCP
// stream path, and the channel-registry reset hook.
//
// The perf work these cover (see DESIGN.md "Performance engineering") is
// all invisible-by-construction: a recycled buffer must be byte-identical
// to a fresh one, a recycled event slot must never resurrect a cancelled
// closure, and the ring-backed TCP stream must deliver exactly the bytes
// the old map-based implementation did under loss and reordering. These
// tests pin those equivalences down with property-style checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "ipc/channel.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "net/tcp.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/small_fn.hpp"

namespace neat {
namespace {

// ---------------------------------------------------------------------------
// SmallFn
// ---------------------------------------------------------------------------

TEST(SmallFn, InvokesInlineCapture) {
  int hits = 0;
  sim::SmallFn fn([&hits] { ++hits; });
  ASSERT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFn, DefaultConstructedIsEmpty) {
  sim::SmallFn fn;
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(SmallFn, HeapFallbackPreservesOversizedCapture) {
  // A capture larger than the inline budget must take the heap path and
  // still carry its state faithfully.
  std::array<std::uint64_t, 32> big{};  // 256 bytes > kInlineSize
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i * 3 + 1;
  std::uint64_t sum = 0;
  sim::SmallFn fn([big, &sum] {
    for (const auto v : big) sum += v;
  });
  static_assert(sizeof(big) > sim::SmallFn::kInlineSize);
  fn();
  std::uint64_t want = 0;
  for (std::size_t i = 0; i < big.size(); ++i) want += i * 3 + 1;
  EXPECT_EQ(sum, want);
}

TEST(SmallFn, MoveTransfersOwnershipOfCapture) {
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> alive = token;
  sim::SmallFn a([token] { (void)*token; });
  token.reset();
  EXPECT_FALSE(alive.expired()) << "closure owns the capture";

  sim::SmallFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(alive.expired());
  b();  // moved-to callable still works

  b.reset();
  EXPECT_TRUE(alive.expired()) << "reset() releases the capture immediately";
}

TEST(SmallFn, MoveAssignDestroysPreviousCapture) {
  auto first = std::make_shared<int>(1);
  std::weak_ptr<int> first_alive = first;
  sim::SmallFn fn([first] {});
  first.reset();
  fn = sim::SmallFn([] {});
  EXPECT_TRUE(first_alive.expired())
      << "assignment must destroy the replaced closure's capture";
  fn();
}

// ---------------------------------------------------------------------------
// EventQueue: generation-checked slot recycling
// ---------------------------------------------------------------------------

TEST(EventQueueFastPath, StaleHandleCannotCancelRecycledSlot) {
  // After an event fires, its slot is recycled for later events. A stale
  // handle to the fired event must be inert: cancelling it must not kill
  // whatever event now occupies the slot.
  sim::EventQueue q;
  std::vector<sim::EventHandle> old;
  int first_fired = 0;
  for (int i = 0; i < 64; ++i) {
    old.push_back(q.schedule_at(10, [&first_fired] { ++first_fired; }));
  }
  q.run();
  ASSERT_EQ(first_fired, 64);

  int second_fired = 0;
  std::vector<sim::EventHandle> fresh;
  for (int i = 0; i < 64; ++i) {
    fresh.push_back(q.schedule(10, [&second_fired] { ++second_fired; }));
  }
  for (auto& h : old) {
    EXPECT_FALSE(h.pending());
    h.cancel();  // must be a no-op against the recycled slots
  }
  q.run();
  EXPECT_EQ(second_fired, 64)
      << "stale cancels must not affect events reusing the slots";
  for (auto& h : fresh) EXPECT_FALSE(h.pending());
}

TEST(EventQueueFastPath, CancelReleasesClosureResourcesImmediately) {
  // Cancellation paths must not pin captured resources (packets!) until
  // the cancelled entry surfaces at the top of the heap.
  sim::EventQueue q;
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> alive = token;
  auto h = q.schedule_at(1000, [token] {});
  token.reset();
  ASSERT_FALSE(alive.expired());
  h.cancel();
  EXPECT_TRUE(alive.expired())
      << "cancel() must destroy the closure, not wait for the heap pop";
  q.run();
}

TEST(EventQueueFastPath, ExecutedCountsFiredNotCancelled) {
  sim::EventQueue q;
  const auto base = q.executed();
  auto h1 = q.schedule_at(10, [] {});
  auto h2 = q.schedule_at(20, [] {});
  q.post_at(30, [] {});  // fire-and-forget events count too
  h1.cancel();
  q.run();
  EXPECT_EQ(q.executed() - base, 2u);
  EXPECT_FALSE(h2.pending());
}

TEST(EventQueueFastPath, HandleOutlivesQueue) {
  // Handles reference the slot table through a shared_ptr: using one after
  // the queue is gone must be safe (timers owned by sockets routinely
  // outlive the simulator during teardown).
  std::optional<sim::EventQueue> q;
  q.emplace();
  auto h = q->schedule_at(10, [] { FAIL() << "must never fire"; });
  EXPECT_TRUE(h.pending());
  q.reset();  // queue dies with the event still scheduled
  EXPECT_FALSE(h.pending());
  h.cancel();  // no-op, no crash
}

TEST(EventQueueFastPath, QueueDestructionReleasesPendingClosures) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> alive = token;
  {
    sim::EventQueue q;
    q.post_at(1000, [token] {});
    token.reset();
    ASSERT_FALSE(alive.expired());
  }
  EXPECT_TRUE(alive.expired());
}

// ---------------------------------------------------------------------------
// PacketPool
// ---------------------------------------------------------------------------

TEST(PacketPool, RecycledBufferIndistinguishableFromFresh) {
  net::PacketPool pool;
  net::PacketPool::Use use(pool);

  // Dirty a buffer thoroughly: payload bytes, pushed header bytes, then
  // drop it back to the pool.
  {
    auto p = net::Packet::make(1460);
    std::memset(p->bytes().data(), 0xff, p->size());
    auto hdr = p->push(54);
    std::memset(hdr.data(), 0xee, hdr.size());
  }
  ASSERT_GE(pool.stats().recycled, 1u);

  // The next similarly-sized allocation must reuse it — and look exactly
  // like a fresh zeroed buffer with full headroom.
  auto p = net::Packet::make(1460);
  EXPECT_GE(pool.stats().reused, 1u);
  EXPECT_EQ(p->size(), 1460u);
  EXPECT_TRUE(std::all_of(p->bytes().begin(), p->bytes().end(),
                          [](std::uint8_t b) { return b == 0; }));
  auto hdr = p->push(net::Packet::kDefaultHeadroom);  // full headroom intact
  EXPECT_EQ(hdr.size(), net::Packet::kDefaultHeadroom);
  EXPECT_TRUE(std::all_of(hdr.begin(), hdr.end(),
                          [](std::uint8_t b) { return b == 0; }));
}

TEST(PacketPool, OfAndCloneCopyExactBytesThroughThePool) {
  net::PacketPool pool;
  net::PacketPool::Use use(pool);
  std::vector<std::uint8_t> data(997);
  sim::Rng rng(42);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());

  // Round-trip the same sizes a few times so later iterations hit reuse.
  for (int round = 0; round < 4; ++round) {
    auto p = net::Packet::of(data);
    ASSERT_EQ(p->size(), data.size());
    EXPECT_EQ(std::memcmp(p->bytes().data(), data.data(), data.size()), 0);
    auto c = p->clone();
    ASSERT_EQ(c->size(), data.size());
    EXPECT_EQ(std::memcmp(c->bytes().data(), data.data(), data.size()), 0);
    // Deep copy: mutating the clone must not touch the original.
    c->bytes()[0] ^= 0xff;
    EXPECT_NE(c->bytes()[0], p->bytes()[0]);
  }
  EXPECT_GT(pool.stats().reused, 0u);
}

TEST(PacketPool, UseScopesNestAndRestore) {
  net::PacketPool outer;
  net::PacketPool inner;
  {
    net::PacketPool::Use u1(outer);
    { auto p = net::Packet::make(100); }
    {
      net::PacketPool::Use u2(inner);
      { auto p = net::Packet::make(100); }
    }
    // Back to the outer pool: this reuses outer's recycled buffer.
    { auto p = net::Packet::make(100); }
  }
  EXPECT_EQ(outer.stats().fresh, 1u);
  EXPECT_EQ(outer.stats().reused, 1u);
  EXPECT_EQ(inner.stats().fresh, 1u);
  EXPECT_EQ(inner.stats().reused, 0u);
  // Outside every scope: plain heap, pools untouched.
  { auto p = net::Packet::make(100); }
  EXPECT_EQ(outer.stats().fresh + inner.stats().fresh, 2u);
}

TEST(PacketPool, PooledPacketsOutliveThePoolScope) {
  // A packet allocated under a Use scope may be dropped long after the
  // scope (even the PacketPool) is gone — the shared core keeps the
  // freelist alive until the last packet returns its buffer.
  net::PacketPtr survivor;
  {
    net::PacketPool pool;
    net::PacketPool::Use use(pool);
    survivor = net::Packet::make(256);
  }
  std::memset(survivor->bytes().data(), 0xaa, survivor->size());
  survivor.reset();  // returns the buffer to the (orphaned) core: no crash
}

// ---------------------------------------------------------------------------
// TCP stream property test: ring buffers + sorted ooo vector
// ---------------------------------------------------------------------------

const net::Ipv4Addr kClientIp = net::Ipv4Addr::of(10, 0, 0, 2);
const net::Ipv4Addr kServerIp = net::Ipv4Addr::of(10, 0, 0, 1);

/// Minimal TcpEnv over the bare event queue with loss + jitter, enough to
/// force retransmission (lazy RTO rearming) and reordering (the sorted
/// out-of-order vector) on every seed.
class LossyWire final : public net::TcpEnv {
 public:
  LossyWire(sim::Simulator& sim, std::uint64_t seed, double loss,
            sim::SimTime jitter)
      : sim_(sim), rng_(seed), loss_(loss), jitter_(jitter) {}

  void set_peer(net::TcpStack* peer) { peer_ = peer; }

  sim::SimTime now() override { return sim_.now(); }
  sim::EventHandle start_timer(sim::SimTime delay,
                               net::TcpTimer fn) override {
    return sim_.schedule(delay, std::move(fn));
  }
  std::uint32_t random_u32() override {
    return static_cast<std::uint32_t>(rng_());
  }
  void tx(net::PacketPtr segment, net::Ipv4Addr src,
          net::Ipv4Addr dst) override {
    if (rng_.chance(loss_)) return;
    const sim::SimTime delay =
        10 * sim::kMicrosecond + (jitter_ ? rng_.below(jitter_) : 0);
    sim_.schedule(delay, [this, segment, src, dst] {
      if (peer_ != nullptr) peer_->rx(src, dst, segment);
    });
  }

 private:
  sim::Simulator& sim_;
  sim::Rng rng_;
  double loss_;
  sim::SimTime jitter_;
  net::TcpStack* peer_{nullptr};
};

net::TcpConfig stream_cfg() {
  net::TcpConfig c;
  c.rto_min = 20 * sim::kMillisecond;
  c.rto_initial = 50 * sim::kMillisecond;
  c.delayed_ack = 0;
  c.tso = false;  // per-MSS segments maximise reordering opportunities
  return c;
}

struct StreamOutcome {
  std::uint64_t ooo_segments{0};  ///< receiver-side reassembly events
  std::uint64_t retransmits{0};   ///< sender-side RTO/dup-ack recoveries
};

/// Drive `total` pseudorandom bytes client->server through an impaired
/// wire with random-size writes and reads, and check the received stream
/// is byte-identical to the sent one. Fills `out` (when given) so callers
/// can assert the impairment actually exercised the path under test.
void stream_roundtrip(std::uint64_t seed, double loss, sim::SimTime jitter,
                      std::size_t total, StreamOutcome* out = nullptr) {
  sim::Simulator sim;
  LossyWire cwire(sim, seed * 2 + 1, loss, jitter);
  LossyWire swire(sim, seed * 2 + 2, loss, jitter);
  net::TcpStack client(cwire, kClientIp, stream_cfg());
  net::TcpStack server(swire, kServerIp, stream_cfg());
  cwire.set_peer(&server);
  swire.set_peer(&client);

  sim::Rng rng(seed);
  std::vector<std::uint8_t> sent(total);
  for (auto& b : sent) b = static_cast<std::uint8_t>(rng());
  std::vector<std::uint8_t> got;
  got.reserve(total);

  net::TcpSocketPtr accepted;
  net::TcpListener* listener = server.listen(80);
  listener->set_accept_ready([&] { accepted = listener->accept(); });
  auto sock = client.connect(net::SockAddr{kServerIp, 80});
  sim.run_for(300 * sim::kMillisecond);
  ASSERT_TRUE(accepted != nullptr) << "handshake failed under seed " << seed;

  std::size_t written = 0;
  std::uint8_t buf[4096];
  // Random interleaving of writes and reads, advanced by sim time so the
  // protocol machinery (acks, retransmits, window updates) runs between.
  while (got.size() < total) {
    if (written < total && rng.chance(0.6)) {
      const std::size_t want =
          std::min<std::size_t>(1 + rng.below(4096), total - written);
      written += sock->send({sent.data() + written, want});
    }
    if (rng.chance(0.7)) {
      std::size_t n = accepted->recv(buf);
      got.insert(got.end(), buf, buf + n);
    }
    sim.run_for(1 + rng.below(2 * sim::kMillisecond));
    ASSERT_LT(sim.now(), 600 * sim::kSecond) << "stream stalled";
  }
  ASSERT_EQ(got.size(), sent.size());
  EXPECT_TRUE(got == sent) << "stream corrupted under seed " << seed;
  if (out != nullptr) {
    out->ooo_segments = server.stats().ooo_segments;
    out->retransmits = sock->retransmits();
  }
}

TEST(TcpStreamProperty, CleanWireDeliversExactStream) {
  stream_roundtrip(/*seed=*/1, /*loss=*/0.0, /*jitter=*/0, 256 * 1024);
}

TEST(TcpStreamProperty, ReorderingWireDeliversExactStream) {
  // Heavy jitter reorders nearly every segment: the sorted ooo_ vector
  // does the reassembly the std::map used to do.
  for (std::uint64_t seed : {11, 12, 13}) {
    StreamOutcome oc;
    stream_roundtrip(seed, /*loss=*/0.0, /*jitter=*/2 * sim::kMillisecond,
                     128 * 1024, &oc);
    EXPECT_GT(oc.ooo_segments, 0u)
        << "jitter must actually reorder segments (seed " << seed << ")";
  }
}

TEST(TcpStreamProperty, LossAndReorderingDeliverExactStream) {
  // Loss exercises the single lazily re-armed RTO timer per socket.
  for (std::uint64_t seed : {21, 22, 23}) {
    StreamOutcome oc;
    stream_roundtrip(seed, /*loss=*/0.05, /*jitter=*/1 * sim::kMillisecond,
                     64 * 1024, &oc);
    EXPECT_GT(oc.retransmits, 0u)
        << "loss must actually force retransmission (seed " << seed << ")";
  }
}

TEST(TcpStreamProperty, CheckpointRestoreResumesMidStream) {
  // Snapshot the server mid-transfer, destroy its state (crash), restore
  // from the snapshot: the stream must complete without corruption. This
  // pins the ring-backed recv path to TcpConnSnapshot's semantics.
  sim::Simulator sim;
  LossyWire cwire(sim, 101, 0.0, 0);
  LossyWire swire(sim, 102, 0.0, 0);
  net::TcpStack client(cwire, kClientIp, stream_cfg());
  net::TcpStack server(swire, kServerIp, stream_cfg());
  cwire.set_peer(&server);
  swire.set_peer(&client);

  sim::Rng rng(7);
  std::vector<std::uint8_t> sent(96 * 1024);
  for (auto& b : sent) b = static_cast<std::uint8_t>(rng());
  std::vector<std::uint8_t> got;

  net::TcpSocketPtr accepted;
  net::TcpListener* listener = server.listen(80);
  listener->set_accept_ready([&] { accepted = listener->accept(); });
  auto sock = client.connect(net::SockAddr{kServerIp, 80});
  sim.run_for(300 * sim::kMillisecond);
  ASSERT_TRUE(accepted != nullptr);

  std::uint8_t buf[4096];
  auto drain = [&](net::TcpSocket& s) {
    for (std::size_t n = s.recv(buf); n > 0; n = s.recv(buf)) {
      got.insert(got.end(), buf, buf + n);
    }
  };

  // First half, read as it arrives.
  std::size_t written = 0;
  while (written < sent.size() / 2) {
    written += sock->send({sent.data() + written,
                           std::min<std::size_t>(4096, sent.size() / 2 -
                                                           written)});
    sim.run_for(5 * sim::kMillisecond);
    drain(*accepted);
  }
  // Quiesce so the checkpoint and the client agree on stream position.
  sim.run_for(200 * sim::kMillisecond);
  drain(*accepted);

  const net::TcpCheckpoint cp = server.snapshot();
  ASSERT_EQ(cp.conns.size(), 1u);
  server.destroy_all_state();
  auto restored = server.restore(cp);
  ASSERT_EQ(restored.size(), 1u);
  accepted = restored[0];

  // Second half through the restored connection.
  while (got.size() < sent.size()) {
    if (written < sent.size()) {
      written += sock->send(
          {sent.data() + written,
           std::min<std::size_t>(4096, sent.size() - written)});
    }
    sim.run_for(5 * sim::kMillisecond);
    drain(*accepted);
    ASSERT_LT(sim.now(), 600 * sim::kSecond) << "restored stream stalled";
  }
  EXPECT_TRUE(got == sent) << "stream corrupted across checkpoint/restore";
}

TEST(TcpStreamProperty, MigrationPreservesExactStreamUnderLossAndReorder) {
  // Ping-pong the server side of a live transfer between two stacks with
  // extract_for_migration()/adopt() — no quiesce, the wire stays impaired
  // the whole time. Frames in flight toward the old stack hit its
  // migrated-out tombstone and are silently dropped; retransmission must
  // recover them, and the delivered stream must stay byte-exact.
  for (std::uint64_t seed : {31, 32, 33}) {
    sim::Simulator sim;
    const double loss = 0.03;
    const sim::SimTime jitter = 1 * sim::kMillisecond;
    LossyWire cwire(sim, seed * 3 + 1, loss, jitter);
    LossyWire swire_a(sim, seed * 3 + 2, loss, jitter);
    LossyWire swire_b(sim, seed * 3 + 3, loss, jitter);
    net::TcpStack client(cwire, kClientIp, stream_cfg());
    net::TcpStack server_a(swire_a, kServerIp, stream_cfg());
    net::TcpStack server_b(swire_b, kServerIp, stream_cfg());
    cwire.set_peer(&server_a);
    swire_a.set_peer(&client);
    swire_b.set_peer(&client);

    sim::Rng rng(seed);
    std::vector<std::uint8_t> sent(96 * 1024);
    for (auto& b : sent) b = static_cast<std::uint8_t>(rng());
    std::vector<std::uint8_t> got;

    net::TcpSocketPtr accepted;
    net::TcpListener* listener = server_a.listen(80);
    listener->set_accept_ready([&] { accepted = listener->accept(); });
    auto sock = client.connect(net::SockAddr{kServerIp, 80});
    sim.run_for(300 * sim::kMillisecond);
    ASSERT_TRUE(accepted != nullptr) << "handshake failed under seed " << seed;

    net::TcpStack* here = &server_a;
    net::TcpStack* there = &server_b;
    int migrations = 0;
    std::size_t written = 0;
    std::uint8_t buf[4096];
    while (got.size() < sent.size()) {
      if (written < sent.size() && rng.chance(0.6)) {
        const std::size_t want =
            std::min<std::size_t>(1 + rng.below(4096), sent.size() - written);
        written += sock->send({sent.data() + written, want});
      }
      for (std::size_t n = accepted->recv(buf); n > 0;
           n = accepted->recv(buf)) {
        got.insert(got.end(), buf, buf + n);
      }
      if (rng.chance(0.08)) {
        // Mid-stream hand-off, in-flight segments and all.
        const net::TcpCheckpoint cp = here->extract_for_migration();
        ASSERT_EQ(cp.conns.size(), 1u);
        auto adopted = there->adopt(cp);
        ASSERT_EQ(adopted.size(), 1u);
        accepted = adopted[0];
        cwire.set_peer(there);
        std::swap(here, there);
        ++migrations;
      }
      sim.run_for(1 + rng.below(2 * sim::kMillisecond));
      ASSERT_LT(sim.now(), 600 * sim::kSecond)
          << "migrated stream stalled (seed " << seed << ")";
    }
    EXPECT_GT(migrations, 2) << "seed " << seed
                             << " must actually exercise migration";
    ASSERT_EQ(got.size(), sent.size());
    EXPECT_TRUE(got == sent)
        << "stream corrupted across migration (seed " << seed << ")";
  }
}

// ---------------------------------------------------------------------------
// PacketRef ownership properties
// ---------------------------------------------------------------------------
//
// The intrusive refcount replaced shared_ptr<Packet> on the data path; its
// contract is that every buffer handed out by the pool comes back exactly
// once — on the LAST release, wherever that happens. These tests pin the
// count arithmetic (copy/move/self-assign) and the fan-out patterns the
// stack actually uses (capture buffers holding extra handles, clone for
// deep copies).

TEST(PacketRefOwnership, BufferReturnsToPoolExactlyOnce) {
  net::PacketPool pool;
  net::PacketPool::Use use(pool);
  {
    auto p = net::Packet::make(512);
    EXPECT_EQ(p->ref_count(), 1u);
    {
      net::PacketPtr a = p;  // copy: same packet, count up
      net::PacketPtr b = a;
      EXPECT_EQ(p->ref_count(), 3u);
      net::PacketPtr c = std::move(b);  // move: count unchanged
      EXPECT_EQ(p->ref_count(), 3u);
      EXPECT_TRUE(b == nullptr);
    }
    EXPECT_EQ(p->ref_count(), 1u);
    EXPECT_EQ(pool.stats().recycled, 0u)
        << "buffer returned while handles were still live";
  }
  EXPECT_EQ(pool.stats().recycled, 1u) << "last release must recycle once";
}

TEST(PacketRefOwnership, AssignmentsStayBalanced) {
  net::PacketPool pool;
  net::PacketPool::Use use(pool);
  auto p = net::Packet::make(256);
  p = *&p;  // self-assignment must not release the buffer
  ASSERT_TRUE(p != nullptr);
  EXPECT_EQ(p->ref_count(), 1u);
  EXPECT_EQ(pool.stats().recycled, 0u);

  auto q = net::Packet::make(256);
  p = q;  // overwrite: p's old buffer returns now
  EXPECT_EQ(pool.stats().recycled, 1u);
  EXPECT_EQ(q->ref_count(), 2u);
  p.reset();
  EXPECT_EQ(q->ref_count(), 1u);
  q.reset();
  EXPECT_EQ(pool.stats().recycled, 2u);
}

TEST(PacketRefOwnership, CaptureFanOutReturnsOnceAfterLastDrop) {
  // The migration capture window keeps extra handles to in-flight packets
  // while the RX path processes them; whichever side drops last returns
  // the buffer — once.
  net::PacketPool pool;
  net::PacketPool::Use use(pool);
  std::vector<net::PacketPtr> capture;
  {
    auto p = net::Packet::make(1460);
    for (int i = 0; i < 7; ++i) capture.push_back(p);
    EXPECT_EQ(p->ref_count(), 8u);
  }  // the RX handle drops first; the capture buffer still owns it
  EXPECT_EQ(pool.stats().recycled, 0u);
  capture.clear();
  EXPECT_EQ(pool.stats().recycled, 1u);
  // A fresh allocation must find exactly the one recycled buffer — a
  // double return would have corrupted the freelist.
  auto q = net::Packet::make(1460);
  EXPECT_EQ(pool.stats().reused, 1u);
}

TEST(PacketRefOwnership, ChurnSoakLeaksNothingAndFreesNothingTwice) {
  // Property-style churn over a ring of slots: random alloc / share /
  // deep-copy / drop. At the end every buffer the pool handed out must be
  // accounted for by exactly one return. Run under ASan this also shakes
  // out use-after-free in the release path.
  net::PacketPool pool;
  {
    net::PacketPool::Use use(pool);
    sim::Rng rng(12345);
    std::vector<net::PacketPtr> slots(64);
    for (int step = 0; step < 20000; ++step) {
      const std::size_t i = rng.below(slots.size());
      switch (rng.below(4)) {
        case 0:
          slots[i] = net::Packet::make(64 + rng.below(1400));
          break;
        case 1:
          slots[i] = slots[rng.below(slots.size())];  // share a handle
          break;
        case 2:
          if (slots[i] != nullptr) slots[i] = slots[i]->clone();
          break;
        default:
          slots[i] = nullptr;
          break;
      }
    }
  }
  const auto& st = pool.stats();
  EXPECT_EQ(st.fresh + st.reused, st.recycled + st.dropped_full)
      << "every allocation must be matched by exactly one return";
}

// ---------------------------------------------------------------------------
// Wakeup-coalescing equivalence
// ---------------------------------------------------------------------------

/// Wire that delivers whole batches through TcpStack::rx_batch — the path
/// where wakeup coalescing engages. Frames accumulate (loss and jitter
/// applied per frame) and a periodic pump hands everything due to the peer
/// as one batch, like a NIC ring drained per interrupt.
class BatchWire final : public net::TcpEnv {
 public:
  BatchWire(sim::Simulator& sim, std::uint64_t seed, double loss,
            sim::SimTime jitter)
      : sim_(sim), rng_(seed), loss_(loss), jitter_(jitter) {
    arm();
  }

  void set_peer(net::TcpStack* peer) { peer_ = peer; }
  [[nodiscard]] std::size_t max_batch() const { return max_batch_; }

  sim::SimTime now() override { return sim_.now(); }
  sim::EventHandle start_timer(sim::SimTime delay,
                               net::TcpTimer fn) override {
    return sim_.schedule(delay, std::move(fn));
  }
  std::uint32_t random_u32() override {
    return static_cast<std::uint32_t>(rng_());
  }
  void tx(net::PacketPtr segment, net::Ipv4Addr src,
          net::Ipv4Addr dst) override {
    if (rng_.chance(loss_)) return;
    const sim::SimTime due = sim_.now() + 10 * sim::kMicrosecond +
                             (jitter_ ? rng_.below(jitter_) : 0);
    inbox_.push_back(Frame{due, src, dst, std::move(segment)});
  }

 private:
  struct Frame {
    sim::SimTime due;
    net::Ipv4Addr src, dst;
    net::PacketPtr seg;
  };

  static constexpr sim::SimTime kPumpEvery = 50 * sim::kMicrosecond;

  void arm() {
    sim_.schedule(kPumpEvery, [this] {
      pump();
      arm();
    });
  }

  void pump() {
    if (peer_ == nullptr || inbox_.empty()) return;
    // Deliver everything due, ordered by arrival time: jitter larger than
    // the pump period reorders frames across batches.
    std::stable_sort(
        inbox_.begin(), inbox_.end(),
        [](const Frame& a, const Frame& b) { return a.due < b.due; });
    std::vector<net::TcpStack::SegmentArrival> batch;
    std::vector<Frame> later;
    for (auto& f : inbox_) {
      if (f.due <= sim_.now()) {
        batch.push_back({f.src, f.dst, std::move(f.seg)});
      } else {
        later.push_back(std::move(f));
      }
    }
    inbox_ = std::move(later);
    if (batch.empty()) return;
    max_batch_ = std::max(max_batch_, batch.size());
    peer_->rx_batch(std::move(batch));
  }

  sim::Simulator& sim_;
  sim::Rng rng_;
  double loss_;
  sim::SimTime jitter_;
  net::TcpStack* peer_{nullptr};
  std::vector<Frame> inbox_;
  std::size_t max_batch_{0};
};

struct CoalesceOutcome {
  std::vector<std::uint8_t> got;
  std::uint64_t readable_cbs{0};
  bool eof{false};
  bool closed{false};
  std::size_t max_batch{0};
};

/// Reference-model run for the coalescing equivalence test: drive a
/// client->server stream over batch-delivering impaired wires, reading
/// ONLY from on_readable callbacks — a lost or extra wakeup shows up as a
/// stalled stream or a divergent byte sequence. Finishes with a half-close
/// (client FIN -> server EOF) and a full close, so the EOF and close edges
/// are part of the compared behaviour.
CoalesceOutcome coalesced_stream(std::uint64_t seed, bool coalesce) {
  constexpr double kLoss = 0.03;
  constexpr sim::SimTime kJitter = 500 * sim::kMicrosecond;
  constexpr std::size_t kTotal = 64 * 1024;

  sim::Simulator sim;
  BatchWire cwire(sim, seed * 2 + 1, kLoss, kJitter);
  BatchWire swire(sim, seed * 2 + 2, kLoss, kJitter);
  net::TcpConfig cfg = stream_cfg();
  cfg.coalesce_wakeups = coalesce;
  net::TcpStack client(cwire, kClientIp, cfg);
  net::TcpStack server(swire, kServerIp, cfg);
  cwire.set_peer(&server);
  swire.set_peer(&client);

  sim::Rng rng(seed);
  std::vector<std::uint8_t> sent(kTotal);
  for (auto& b : sent) b = static_cast<std::uint8_t>(rng());

  CoalesceOutcome oc;
  net::TcpSocketPtr accepted;
  std::uint8_t buf[4096];
  const auto drain = [&] {
    for (std::size_t n = accepted->recv(buf); n > 0;
         n = accepted->recv(buf)) {
      oc.got.insert(oc.got.end(), buf, buf + n);
    }
    if (accepted->eof()) oc.eof = true;
  };
  net::TcpListener* listener = server.listen(80);
  listener->set_accept_ready([&] {
    accepted = listener->accept();
    net::TcpSocket::Callbacks cb;
    cb.on_readable = [&] {
      ++oc.readable_cbs;
      drain();
    };
    cb.on_closed = [&](net::TcpCloseReason) { oc.closed = true; };
    accepted->set_callbacks(std::move(cb));
    drain();  // data that raced ahead of accept
  });

  auto sock = client.connect(net::SockAddr{kServerIp, 80});
  sim.run_for(300 * sim::kMillisecond);
  EXPECT_TRUE(accepted != nullptr) << "handshake failed under seed " << seed;
  if (accepted == nullptr) return oc;

  std::size_t written = 0;
  while (written < sent.size() && sim.now() < 600 * sim::kSecond) {
    const std::size_t want =
        std::min<std::size_t>(1 + rng.below(4096), sent.size() - written);
    written += sock->send({sent.data() + written, want});
    sim.run_for(1 + rng.below(2 * sim::kMillisecond));
  }
  for (int i = 0; i < 2000 && oc.got.size() < sent.size(); ++i) {
    sim.run_for(5 * sim::kMillisecond);  // retransmissions finish the tail
  }
  EXPECT_EQ(oc.got.size(), sent.size()) << "stream stalled (seed " << seed
                                        << ", coalesce " << coalesce << ")";
  EXPECT_TRUE(oc.got == sent) << "stream corrupted (seed " << seed
                              << ", coalesce " << coalesce << ")";
  sock->close();  // half-close: the FIN must wake the reader for EOF
  for (int i = 0; i < 2000 && !oc.eof; ++i) {
    sim.run_for(5 * sim::kMillisecond);
  }
  accepted->close();
  for (int i = 0; i < 2000 && !oc.closed; ++i) {
    sim.run_for(5 * sim::kMillisecond);
  }
  oc.max_batch = std::max(cwire.max_batch(), swire.max_batch());
  return oc;
}

TEST(WakeupCoalescing, BatchedNotificationsMatchPerSegmentReferenceModel) {
  // Same seeds, coalescing on vs off: the app-observed behaviour — byte
  // stream, EOF edge, close edge — must be identical; only the NUMBER of
  // readable wakeups may differ (fewer when coalesced).
  std::uint64_t wakeups_on = 0;
  std::uint64_t wakeups_off = 0;
  for (std::uint64_t seed : {41, 42, 43}) {
    const CoalesceOutcome on = coalesced_stream(seed, true);
    const CoalesceOutcome off = coalesced_stream(seed, false);
    EXPECT_TRUE(on.got == off.got)
        << "delivered stream diverged under coalescing (seed " << seed << ")";
    EXPECT_EQ(on.eof, off.eof) << "EOF edge diverged (seed " << seed << ")";
    EXPECT_TRUE(on.eof) << "half-close FIN must wake the reader (seed "
                        << seed << ")";
    EXPECT_EQ(on.closed, off.closed)
        << "close edge diverged (seed " << seed << ")";
    EXPECT_TRUE(on.closed) << "full close must be delivered (seed " << seed
                           << ")";
    EXPECT_GT(on.max_batch, 1u)
        << "wire must actually deliver multi-segment batches (seed " << seed
        << ")";
    wakeups_on += on.readable_cbs;
    wakeups_off += off.readable_cbs;
  }
  EXPECT_LT(wakeups_on, wakeups_off)
      << "coalescing must actually reduce readable wakeups";
}

// ---------------------------------------------------------------------------
// Channel registry reset
// ---------------------------------------------------------------------------

class FakeChannel : public ipc::ChannelBase {
 public:
  FakeChannel() = default;
  [[nodiscard]] const ipc::ChannelStats& channel_stats() const override {
    return stats_;
  }
  [[nodiscard]] std::size_t channel_in_flight() const override { return 0; }
  [[nodiscard]] std::string describe() const override { return "fake"; }

 private:
  ipc::ChannelStats stats_;
};

TEST(ChannelRegistry, ResetClearsAndDestructionStaysSafe) {
  const std::size_t baseline = ipc::channel_registry().size();
  {
    FakeChannel a;
    FakeChannel b;
    EXPECT_EQ(ipc::channel_registry().size(), baseline + 2);
    ipc::channel_registry_reset();
    EXPECT_EQ(ipc::channel_registry().size(), 0u);
    // a and b now destruct with no registry entry: must be a no-op.
  }
  EXPECT_EQ(ipc::channel_registry().size(), 0u);
  {
    FakeChannel c;  // registration works again after a reset
    EXPECT_EQ(ipc::channel_registry().size(), 1u);
  }
  EXPECT_EQ(ipc::channel_registry().size(), 0u);
}

}  // namespace
}  // namespace neat
