// Unit and property tests for the IPC substrate: byte rings, channels,
// doorbells.
#include <gtest/gtest.h>

#include <deque>
#include <numeric>
#include <vector>

#include "ipc/byte_ring.hpp"
#include "ipc/channel.hpp"
#include "ipc/doorbell.hpp"
#include "sim/machine.hpp"
#include "sim/process.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace neat::ipc {
namespace {

class TestProc : public sim::Process {
 public:
  using sim::Process::Process;
};

struct SimFixture : public ::testing::Test {
  SimFixture() : machine(sim.add_machine(fast_params())), proc(sim, "c") {
    proc.pin(machine.thread(0));
  }
  static sim::MachineParams fast_params() {
    sim::MachineParams p;
    p.cores = 2;
    p.freq = sim::Frequency{1.0};
    return p;
  }
  sim::Simulator sim;
  sim::Machine& machine;
  TestProc proc;
};

// ---------------------------------------------------------------------------
// ByteRing
// ---------------------------------------------------------------------------

TEST(ByteRing, BasicWriteRead) {
  ByteRing r(16);
  const std::uint8_t in[] = {1, 2, 3, 4, 5};
  EXPECT_EQ(r.write(in), 5u);
  EXPECT_EQ(r.readable(), 5u);
  EXPECT_EQ(r.writable(), 11u);
  std::uint8_t out[5] = {};
  EXPECT_EQ(r.read(out), 5u);
  EXPECT_TRUE(std::equal(std::begin(in), std::end(in), std::begin(out)));
  EXPECT_TRUE(r.empty());
}

TEST(ByteRing, WriteBoundedByCapacity) {
  ByteRing r(4);
  std::uint8_t in[10] = {};
  EXPECT_EQ(r.write(in), 4u);
  EXPECT_TRUE(r.full());
  EXPECT_EQ(r.write(in), 0u);
}

TEST(ByteRing, PeekDoesNotConsume) {
  ByteRing r(8);
  const std::uint8_t in[] = {9, 8, 7};
  r.write(in);
  std::uint8_t out[3] = {};
  EXPECT_EQ(r.peek(out), 3u);
  EXPECT_EQ(out[0], 9);
  EXPECT_EQ(r.readable(), 3u);
}

TEST(ByteRing, PeekAtOffset) {
  ByteRing r(8);
  const std::uint8_t in[] = {10, 11, 12, 13};
  r.write(in);
  std::uint8_t out[2] = {};
  EXPECT_EQ(r.peek_at(2, out), 2u);
  EXPECT_EQ(out[0], 12);
  EXPECT_EQ(out[1], 13);
  EXPECT_EQ(r.peek_at(4, out), 0u);  // past end
}

TEST(ByteRing, DiscardSkipsBytes) {
  ByteRing r(8);
  const std::uint8_t in[] = {1, 2, 3, 4};
  r.write(in);
  EXPECT_EQ(r.discard(2), 2u);
  std::uint8_t out[2] = {};
  r.read(out);
  EXPECT_EQ(out[0], 3);
}

TEST(ByteRing, LazyAllocationAndRelease) {
  ByteRing r(1 << 20);
  EXPECT_EQ(r.readable(), 0u);
  EXPECT_EQ(r.writable(), 1u << 20);  // capacity visible pre-allocation
  std::uint8_t b = 1;
  r.write({&b, 1});
  r.release();
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.writable(), 1u << 20);
  // Usable again after release.
  r.write({&b, 1});
  EXPECT_EQ(r.readable(), 1u);
}

TEST(ByteRing, OperationsOnUnallocatedRingAreSafe) {
  ByteRing r(64);
  std::uint8_t out[4];
  EXPECT_EQ(r.read(out), 0u);
  EXPECT_EQ(r.peek(out), 0u);
  EXPECT_EQ(r.peek_at(0, out), 0u);
  EXPECT_EQ(r.discard(10), 0u);
}

/// Property: arbitrary interleavings of writes and reads deliver exactly
/// the written byte stream, in order.
class ByteRingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ByteRingProperty, StreamIntegrityUnderRandomChunking) {
  sim::Rng rng(GetParam());
  ByteRing ring(1 + rng.below(257));
  std::vector<std::uint8_t> sent, received;
  std::uint8_t next = 0;
  for (int step = 0; step < 2000; ++step) {
    if (rng.chance(0.5)) {
      std::vector<std::uint8_t> chunk(1 + rng.below(64));
      for (auto& c : chunk) c = next++;
      const std::size_t n = ring.write(chunk);
      sent.insert(sent.end(), chunk.begin(), chunk.begin() + static_cast<long>(n));
      next = static_cast<std::uint8_t>(chunk[0] + n);  // rewind unwritten
    } else {
      std::vector<std::uint8_t> buf(1 + rng.below(64));
      const std::size_t n = ring.read(buf);
      received.insert(received.end(), buf.begin(),
                      buf.begin() + static_cast<long>(n));
    }
  }
  std::vector<std::uint8_t> drain(ring.readable());
  ring.read(drain);
  received.insert(received.end(), drain.begin(), drain.end());
  ASSERT_EQ(sent, received);
  EXPECT_EQ(ring.total_in(), sent.size());
  EXPECT_EQ(ring.total_out(), received.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ByteRingProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/// Property: against a std::deque reference model, arbitrary interleavings
/// of write / read / peek / peek_at / discard behave identically — this
/// pins the wrap-around arithmetic (at most two memcpy segments per
/// operation) to an obviously-correct implementation.
class ByteRingModelProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ByteRingModelProperty, MatchesDequeReferenceModel) {
  sim::Rng rng(GetParam());
  const std::size_t cap = 1 + rng.below(300);
  ByteRing ring(cap);
  std::deque<std::uint8_t> model;
  std::size_t model_high_water = 0;
  std::uint8_t next = 0;

  for (int step = 0; step < 4000; ++step) {
    // release (TIME_WAIT teardown) drops the content and frees the backing
    // store, so the next write allocates afresh. Rare, so the ring still
    // fills and wraps between releases.
    if (rng.below(64) == 0) {
      ring.release();
      model.clear();
    }
    switch (rng.below(5)) {
      case 0: {  // write
        std::vector<std::uint8_t> chunk(1 + rng.below(cap + 16));
        for (auto& c : chunk) c = next++;
        const std::size_t n = ring.write(chunk);
        const std::size_t expect = std::min(chunk.size(), cap - model.size());
        ASSERT_EQ(n, expect);
        model.insert(model.end(), chunk.begin(),
                     chunk.begin() + static_cast<long>(n));
        model_high_water = std::max(model_high_water, model.size());
        break;
      }
      case 1: {  // read (consumes)
        std::vector<std::uint8_t> buf(1 + rng.below(cap + 16));
        const std::size_t n = ring.read(buf);
        ASSERT_EQ(n, std::min(buf.size(), model.size()));
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(buf[i], model.front());
          model.pop_front();
        }
        break;
      }
      case 2: {  // peek (does not consume)
        std::vector<std::uint8_t> buf(1 + rng.below(cap + 16));
        const std::size_t n = ring.peek(buf);
        ASSERT_EQ(n, std::min(buf.size(), model.size()));
        for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(buf[i], model[i]);
        break;
      }
      case 3: {  // peek_at offset (retransmission path)
        const std::size_t off = rng.below(cap + 8);
        std::vector<std::uint8_t> buf(1 + rng.below(64));
        const std::size_t n = ring.peek_at(off, buf);
        const std::size_t expect =
            off >= model.size() ? 0 : std::min(buf.size(), model.size() - off);
        ASSERT_EQ(n, expect);
        for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(buf[i], model[off + i]);
        break;
      }
      case 4: {  // discard (acked data drop)
        const std::size_t want = rng.below(cap + 8);
        const std::size_t n = ring.discard(want);
        ASSERT_EQ(n, std::min(want, model.size()));
        model.erase(model.begin(), model.begin() + static_cast<long>(n));
        break;
      }
    }
    ASSERT_EQ(ring.readable(), model.size());
    ASSERT_EQ(ring.writable(), cap - model.size());
  }
  EXPECT_EQ(ring.high_water(), model_high_water);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ByteRingModelProperty,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18,
                                           19, 20));

// ---------------------------------------------------------------------------
// Channel
// ---------------------------------------------------------------------------

TEST_F(SimFixture, ChannelDeliversInOrderWithCost) {
  std::vector<int> got;
  Channel<int> ch(proc, 16, kDefaultChannelLatency, 100,
                  [&](int&& v) { got.push_back(v); });
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ch.send(i));
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(ch.stats().delivered, 5u);
  EXPECT_GE(proc.stats().processing, 500u);
}

TEST_F(SimFixture, ChannelDropsWhenFull) {
  std::vector<int> got;
  Channel<int> ch(proc, 3, kDefaultChannelLatency, 100,
                  [&](int&& v) { got.push_back(v); });
  int sent = 0;
  for (int i = 0; i < 10; ++i) {
    if (ch.send(i)) ++sent;
  }
  EXPECT_EQ(sent, 3);
  EXPECT_EQ(ch.stats().dropped_full, 7u);
  sim.run();
  EXPECT_EQ(got.size(), 3u);
  // Capacity frees up after consumption.
  EXPECT_TRUE(ch.send(99));
  sim.run();
  EXPECT_EQ(got.back(), 99);
}

TEST_F(SimFixture, ChannelToCrashedConsumerDropsAndRecovers) {
  int got = 0;
  Channel<int> ch(proc, 4, kDefaultChannelLatency, 10,
                  [&](int&&) { ++got; });
  proc.crash();
  EXPECT_FALSE(ch.send(1));
  EXPECT_EQ(ch.stats().dropped_dead, 1u);
  proc.restart();
  ch.rebind(proc);
  EXPECT_TRUE(ch.send(2));
  sim.run();
  EXPECT_EQ(got, 1);
}

TEST_F(SimFixture, ChannelMessageCostMayDependOnPayload) {
  Channel<std::vector<int>> ch(
      proc, 8, kDefaultChannelLatency,
      [](const std::vector<int>& v) {
        return static_cast<sim::Cycles>(v.size() * 10);
      },
      [](std::vector<int>&&) {});
  ch.send(std::vector<int>(100));
  sim.run();
  EXPECT_EQ(proc.stats().processing, 1000u);
}

TEST_F(SimFixture, ChannelBatchHandlerReceivesWholeBurst) {
  // A burst deposited inside one transfer latency drains as ONE delivery:
  // the batch handler sees the whole burst, in order, and the consumer is
  // still charged the summed per-message cost (virtual time unchanged).
  std::vector<std::vector<int>> bursts;
  Channel<int> ch(proc, 64, kDefaultChannelLatency, 100,
                  [&](int&&) { FAIL() << "batch handler must override"; });
  ch.set_batch_handler(
      [&](std::vector<int>&& b) { bursts.push_back(std::move(b)); });
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ch.send(i));
  sim.run();
  ASSERT_EQ(bursts.size(), 1u);
  EXPECT_EQ(bursts[0], (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(ch.stats().delivered, 5u);
  EXPECT_EQ(ch.stats().batches, 1u);
  EXPECT_GE(proc.stats().processing, 500u);  // 5 x 100, summed into one job
}

TEST_F(SimFixture, ChannelBatchRespectsBudgetAndOrder) {
  // More than kBatchBudget staged messages split into budget-sized
  // deliveries; concatenated they are exactly the sent sequence.
  std::vector<std::size_t> burst_sizes;
  std::vector<int> got;
  Channel<int> ch(proc, 128, kDefaultChannelLatency, 1,
                  [&](int&&) { FAIL() << "batch handler must override"; });
  ch.set_batch_handler([&](std::vector<int>&& b) {
    burst_sizes.push_back(b.size());
    for (int v : b) got.push_back(v);
  });
  constexpr int kN = 80;  // 2 full budgets + a remainder of 16
  for (int i = 0; i < kN; ++i) EXPECT_TRUE(ch.send(i));
  sim.run();
  ASSERT_EQ(burst_sizes.size(), 3u);
  EXPECT_EQ(burst_sizes[0], Channel<int>::kBatchBudget);
  EXPECT_EQ(burst_sizes[1], Channel<int>::kBatchBudget);
  EXPECT_EQ(burst_sizes[2], kN - 2 * Channel<int>::kBatchBudget);
  std::vector<int> want(kN);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(got, want);
  EXPECT_EQ(ch.stats().delivered, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(ch.stats().batches, 3u);
}

TEST_F(SimFixture, ChannelBatchAndSingleDeliveryAreEquivalent) {
  // The batch path and the per-message path must agree on everything
  // observable: messages, order, delivered count, and charged cycles.
  auto run_one = [&](bool batched) {
    sim::Simulator s;
    sim::Machine& m = s.add_machine(fast_params());
    TestProc p(s, "c");
    p.pin(m.thread(0));
    std::vector<int> got;
    Channel<int> ch(p, 64, kDefaultChannelLatency, 100,
                    [&](int&& v) { got.push_back(v); });
    if (batched) {
      ch.set_batch_handler([&](std::vector<int>&& b) {
        for (int v : b) got.push_back(v);
      });
    }
    for (int i = 0; i < 20; ++i) EXPECT_TRUE(ch.send(i));
    s.run();
    return std::tuple{got, ch.stats().delivered, p.stats().processing};
  };
  EXPECT_EQ(run_one(false), run_one(true));
}

TEST_F(SimFixture, ChannelBatchDiesWithCrashedConsumer) {
  // Crash while the burst is in transfer: the whole burst is classified
  // dropped_dead and the accounting invariant still balances.
  int handled = 0;
  Channel<int> ch(proc, 16, kDefaultChannelLatency, 10,
                  [&](int&&) { ++handled; });
  ch.set_batch_handler([&](std::vector<int>&& b) {
    handled += static_cast<int>(b.size());
  });
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ch.send(i));
  proc.crash();
  sim.run();
  EXPECT_EQ(handled, 0);
  const auto& st = ch.stats();
  EXPECT_EQ(st.sent, st.delivered + st.dropped_full + st.dropped_dead);
  EXPECT_EQ(st.dropped_dead, 4u);
  EXPECT_EQ(ch.in_flight(), 0u);
}

// ---------------------------------------------------------------------------
// Doorbell
// ---------------------------------------------------------------------------

TEST_F(SimFixture, DoorbellCoalescesRings) {
  int handled = 0;
  Doorbell bell(proc, 50, [&] { ++handled; });
  bell.ring();
  bell.ring();
  bell.ring();
  sim.run();
  EXPECT_EQ(handled, 1);
  EXPECT_EQ(bell.rings(), 3u);
  EXPECT_EQ(bell.deliveries(), 1u);
  // After consumption, a new ring delivers again.
  bell.ring();
  sim.run();
  EXPECT_EQ(handled, 2);
}

TEST_F(SimFixture, DoorbellToCrashedConsumerIsNoop) {
  int handled = 0;
  Doorbell bell(proc, 50, [&] { ++handled; });
  proc.crash();
  bell.ring();
  sim.run();
  EXPECT_EQ(handled, 0);
}

TEST_F(SimFixture, DestroyedDoorbellNeverFires) {
  int handled = 0;
  {
    Doorbell bell(proc, 50, [&] { ++handled; });
    bell.ring();
  }  // destroyed with the ring still in flight
  sim.run();
  EXPECT_EQ(handled, 0);
}

}  // namespace
}  // namespace neat::ipc
