// FlowTable tests: a seeded reference-model property test against
// std::unordered_map (churn through a few forced home slots, wrap-around at
// the end of the slot array, growth mid-churn), iteration and erase_if
// exactly-once properties, zero-valued keys, value lifetime on erase, and
// the probe lengths the real FlowKeyHash gives sequential ephemeral ports
// at the maximum load.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <random>
#include <unordered_map>
#include <vector>

#include "net/flow_table.hpp"

namespace neat::net {
namespace {

/// Sends every key to one of four home slots: 0, 1, 5 and the last slot of
/// the array (all-ones masks to capacity - 1 at every size), so runs are
/// long, collide, and wrap from the end of the array to its start.
struct FewHomesHash {
  std::size_t operator()(const FlowKey& k) const {
    switch (k.remote_port % 4) {
      case 0: return 0;
      case 1: return 1;
      case 2: return 5;
      default: return ~std::size_t{0};
    }
  }
};

FlowKey key_of(std::uint32_t i) {
  return FlowKey{Ipv4Addr{0x0a000001}, static_cast<std::uint16_t>(i >> 16),
                 Ipv4Addr{0x0a000002 + (i % 7)},
                 static_cast<std::uint16_t>(i)};
}

using Model = std::unordered_map<FlowKey, std::uint64_t, FlowKeyHash>;

template <typename Table>
void expect_same(const Table& t, const Model& m) {
  ASSERT_EQ(t.size(), m.size());
  Model seen;
  t.for_each([&](const FlowKey& k, const std::uint64_t& v) {
    EXPECT_TRUE(seen.emplace(k, v).second) << "visited twice: " << k.str();
  });
  EXPECT_EQ(seen, m);
  for (const auto& [k, v] : m) {
    const std::uint64_t* got = t.find(k);
    ASSERT_NE(got, nullptr) << k.str();
    EXPECT_EQ(*got, v);
  }
}

template <typename Hash>
void churn_against_model(std::uint64_t seed, std::uint32_t max_keys,
                         int ops) {
  std::mt19937_64 rng(seed);
  FlowTable<std::uint64_t, Hash> t;
  Model m;
  // The key pool widens in phases, so the table grows while entries are
  // being inserted and erased around it.
  std::uint32_t pool = 8;
  const int check_every = std::max(97, ops / 64);
  for (int op = 0; op < ops; ++op) {
    if (op % (ops / 8) == 0 && pool < max_keys) pool *= 2;
    const FlowKey k = key_of(static_cast<std::uint32_t>(rng() % pool));
    switch (rng() % 5) {
      case 0:
      case 1: {
        const std::uint64_t v = rng();
        const auto [slot, inserted] = t.try_emplace(k, v);
        const auto [it, model_inserted] = m.try_emplace(k, v);
        ASSERT_EQ(inserted, model_inserted);
        ASSERT_EQ(*slot, it->second);
        break;
      }
      case 2: {
        const std::uint64_t v = rng();
        t[k] = v;
        m[k] = v;
        break;
      }
      case 3:
        ASSERT_EQ(t.erase(k), m.erase(k) > 0) << k.str();
        break;
      default: {
        const std::uint64_t* got = t.find(k);
        const auto it = m.find(k);
        ASSERT_EQ(got != nullptr, it != m.end()) << k.str();
        if (got != nullptr) {
          ASSERT_EQ(*got, it->second);
        }
        ASSERT_EQ(t.contains(k), it != m.end());
        break;
      }
    }
    ASSERT_EQ(t.size(), m.size());
    ASSERT_LE(t.size() * 4, t.capacity() * 3);
    if (op % check_every == 0) expect_same(t, m);
  }
  expect_same(t, m);
  // Drain to empty through erase: every key still reachable after the
  // shifts that earlier erases made.
  std::vector<FlowKey> keys;
  for (const auto& [k, v] : m) keys.push_back(k);
  for (const auto& k : keys) {
    ASSERT_TRUE(t.erase(k)) << k.str();
    m.erase(k);
    if (m.size() % static_cast<std::size_t>(check_every / 8) == 0) {
      expect_same(t, m);
    }
  }
  EXPECT_TRUE(t.empty());
}

TEST(FlowTable, ChurnMatchesModelWithFewHomeSlotsAndWrapAround) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    churn_against_model<FewHomesHash>(seed, 512, 6000);
  }
}

TEST(FlowTable, ChurnMatchesModelWithFlowKeyHash) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    churn_against_model<FlowKeyHash>(seed, 1 << 14, 60000);
  }
}

TEST(FlowTable, EraseIfRemovesExactlyTheMatchingEntries) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    FlowTable<std::uint64_t, FewHomesHash> t;
    Model m;
    const auto n = static_cast<std::uint32_t>(rng() % 200);
    for (std::uint32_t i = 0; i < n; ++i) {
      const FlowKey k = key_of(static_cast<std::uint32_t>(rng() % 400));
      const std::uint64_t v = rng() % 4;
      t[k] = v;
      m[k] = v;
    }
    const std::uint64_t doomed = rng() % 4;
    Model tested;
    const std::size_t removed = t.erase_if(
        [&](const FlowKey& k, const std::uint64_t& v) {
          EXPECT_TRUE(tested.emplace(k, v).second)
              << "tested twice: " << k.str();
          return v == doomed;
        });
    EXPECT_EQ(tested, m);  // every live entry tested exactly once
    const std::size_t expected = std::erase_if(
        m, [&](const auto& kv) { return kv.second == doomed; });
    EXPECT_EQ(removed, expected);
    expect_same(t, m);
  }
}

TEST(FlowTable, ZeroPortsAndAddressesAreOrdinaryKeys) {
  // A malformed frame can carry zero ports or addresses; such keys must
  // not collide with the empty-slot state or with each other.
  const std::vector<FlowKey> keys = {
      FlowKey{},
      FlowKey{Ipv4Addr{}, 0, Ipv4Addr{}, 1},
      FlowKey{Ipv4Addr{}, 1, Ipv4Addr{}, 0},
      FlowKey{Ipv4Addr{1}, 0, Ipv4Addr{}, 0},
      FlowKey{Ipv4Addr{}, 0, Ipv4Addr{1}, 0},
      FlowKey{Ipv4Addr{0x0a000001}, 0, Ipv4Addr{0x0a000002}, 0},
  };
  FlowTable<int> t;
  EXPECT_FALSE(t.contains(FlowKey{}));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(t.try_emplace(keys[i], static_cast<int>(i)).second);
  }
  EXPECT_EQ(t.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_NE(t.find(keys[i]), nullptr);
    EXPECT_EQ(*t.find(keys[i]), static_cast<int>(i));
  }
  EXPECT_TRUE(t.erase(FlowKey{}));
  EXPECT_FALSE(t.contains(FlowKey{}));
  EXPECT_FALSE(t.erase(FlowKey{}));
  for (std::size_t i = 1; i < keys.size(); ++i) {
    EXPECT_TRUE(t.contains(keys[i]));
  }

  FlowSet s;
  EXPECT_TRUE(s.try_emplace(FlowKey{}).second);
  EXPECT_FALSE(s.try_emplace(FlowKey{}).second);
  EXPECT_TRUE(s.contains(FlowKey{}));
  EXPECT_EQ(s.size(), 1u);
}

/// Records, at destruction, what its table looked like.
struct Witness {
  const FlowTable<std::shared_ptr<Witness>>* table{nullptr};
  FlowKey key;
  bool* destroyed{nullptr};
  ~Witness() {
    // The erase is complete when the value dies: the key is gone.
    EXPECT_FALSE(table->contains(key));
    *destroyed = true;
  }
};

TEST(FlowTable, ErasedValueDiesAfterTheTableIsConsistent) {
  FlowTable<std::shared_ptr<Witness>> t;
  std::array<bool, 40> destroyed{};
  for (std::uint32_t i = 0; i < 40; ++i) {
    auto w = std::make_shared<Witness>();
    w->table = &t;
    w->key = key_of(i);
    w->destroyed = &destroyed[i];
    t.try_emplace(key_of(i), std::move(w));
  }
  EXPECT_TRUE(t.erase(key_of(3)));
  EXPECT_TRUE(destroyed[3]);
  EXPECT_EQ(t.erase_if([](const FlowKey& k, const auto&) {
              return k.remote_port % 2 == 0;
            }),
            20u);
  for (std::uint32_t i = 0; i < 40; ++i) {
    EXPECT_EQ(destroyed[i], i == 3 || i % 2 == 0) << i;
    EXPECT_EQ(t.contains(key_of(i)), !destroyed[i]) << i;
  }
  t.clear();
}

TEST(FlowTable, MoveLeavesTheSourceEmpty) {
  FlowTable<int> a;
  for (std::uint32_t i = 0; i < 100; ++i) a[key_of(i)] = static_cast<int>(i);
  FlowTable<int> b = std::move(a);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.capacity(), 0u);
  EXPECT_FALSE(a.contains(key_of(1)));
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(*b.find(key_of(42)), 42);
  a[key_of(7)] = 7;  // a moved-from table is reusable
  EXPECT_EQ(a.size(), 1u);
}

TEST(FlowTable, SlotsPackTheOccupancyByteIntoKeyPadding) {
  // The 16-B key carries the occupancy byte in its tail padding.
  static_assert(sizeof(FlowKey) == 16);
  static_assert(FlowSet::slot_bytes() == 16);
  static_assert(FlowTable<int>::slot_bytes() == 20);
  static_assert(FlowTable<std::shared_ptr<int>>::slot_bytes() == 32);
  // Growth keeps the load at or under 3/4: 12 entries fit 16 slots.
  FlowTable<std::shared_ptr<int>> t;
  for (std::uint32_t i = 0; i < 12; ++i) t[key_of(i)];
  EXPECT_EQ(t.capacity(), 16u);
  t[key_of(12)];
  EXPECT_EQ(t.capacity(), 32u);
}

TEST(FlowTable, ProbeLengthsForSequentialEphemeralPortsAtMaxLoad) {
  // One client stack's view: fixed local address, sequential ephemeral
  // ports, one VIP:port remote. Fill to exactly the 3/4 load bound.
  FlowTable<int> t;
  const Ipv4Addr local{0x0a000101};
  const Ipv4Addr vip{0x0a0000fe};
  std::vector<FlowKey> keys;
  for (std::uint32_t i = 0; i < 12288; ++i) {
    keys.push_back(FlowKey{local, static_cast<std::uint16_t>(49152 + i), vip,
                           static_cast<std::uint16_t>(8000 + i % 8)});
  }
  for (const auto& k : keys) t[k] = 1;
  ASSERT_EQ(t.size() * 4, t.capacity() * 3);
  std::size_t total = 0;
  std::size_t worst = 0;
  for (const auto& k : keys) {
    const std::size_t p = t.probe_length(k);
    total += p;
    worst = std::max(worst, p);
  }
  const double mean = static_cast<double>(total) / keys.size();
  std::printf("[ probe ] %zu keys in %zu slots: mean %.3f, max %zu slots\n",
              keys.size(), t.capacity(), mean, worst);
  // Linear probing with a uniform hash expects (1 + 1/(1-a))/2 = 2.5 at
  // a = 3/4; a hash that clustered sequential ports would blow far past.
  EXPECT_LT(mean, 4.0);
}

}  // namespace
}  // namespace neat::net
