// Per-flow lookup table: open addressing keyed by the connection 4-tuple.
//
// Every frame a replica receives starts with a lookup in its connection
// table, and in front of a fleet also with one in the steering tier's
// conntrack. A node-based hash map costs three dependent cache misses per
// lookup there (bucket, previous node, node), each into a different corner
// of a heap holding hundreds of thousands of flows. This table keeps key,
// occupancy and value together in one contiguous slot array, so a lookup is
// one miss plus a short linear scan.
//
// Layout and policy:
//   * capacity is a power of two; a key's home slot is its FlowKeyHash
//     masked to the capacity, and collisions probe linearly (wrapping);
//   * the table grows (doubling) before the load would exceed 3/4, and
//     never shrinks; an empty table holds no memory;
//   * erase uses backward-shift deletion: the entries after the hole that
//     may legally move back do so, so there are no tombstones and churn
//     never lengthens probe sequences;
//   * the occupancy byte lives in FlowKey's tail padding, so a slot is
//     sizeof(FlowKey) + the value's padded size (32 B for a shared_ptr).
//
// Iteration (for_each) walks slots in index order. That order is a pure
// function of the sequence of inserts and erases since the table was
// created, so it is as deterministic as the simulation that drives it.
//
// Rules for callers: no pointer returned by find/try_emplace/operator[]
// survives an insert or erase on the same table, and the callbacks of
// for_each and erase_if must not insert into or erase from the table they
// are visiting. Copy what must outlive a mutation (a shared_ptr, a key)
// before mutating.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "net/addr.hpp"

namespace neat::net {

template <typename V, typename Hash = FlowKeyHash>
class FlowTable {
 public:
  FlowTable() = default;
  /// Leaves `o` empty and usable (TcpStack::destroy_all_state moves its
  /// table out before the sockets in it die).
  FlowTable(FlowTable&& o) noexcept
      : slots_(std::move(o.slots_)),
        mask_(std::exchange(o.mask_, 0)),
        size_(std::exchange(o.size_, 0)) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Bytes one slot occupies: key, occupancy byte and value.
  static constexpr std::size_t slot_bytes() { return sizeof(Slot); }
  /// Number of slots (0 until the first insert).
  [[nodiscard]] std::size_t capacity() const { return slots_ ? mask_ + 1 : 0; }

  /// The value stored for `key`, or nullptr.
  [[nodiscard]] V* find(const FlowKey& key) {
    const std::size_t i = locate(key);
    return i == kNone ? nullptr : &slots_[i].value;
  }
  [[nodiscard]] const V* find(const FlowKey& key) const {
    const std::size_t i = locate(key);
    return i == kNone ? nullptr : &slots_[i].value;
  }
  [[nodiscard]] bool contains(const FlowKey& key) const {
    return locate(key) != kNone;
  }

  /// Insert `key` with a value built from `args` unless it is present.
  /// Returns the stored value and whether it was inserted.
  template <typename... Args>
  std::pair<V*, bool> try_emplace(const FlowKey& key, Args&&... args) {
    if (V* v = find(key)) return {v, false};
    if ((size_ + 1) * 4 > capacity() * 3) grow();
    Slot& s = slots_[free_slot_for(key)];
    s.key = key;
    s.used = true;
    s.value = V(std::forward<Args>(args)...);
    ++size_;
    return {&s.value, true};
  }

  /// The value for `key`, default-constructed first if absent.
  V& operator[](const FlowKey& key) { return *try_emplace(key).first; }

  /// Remove `key`; returns whether it was present. The erased value is
  /// destroyed after the table is consistent again, so a destructor that
  /// re-enters the table sees it without the key.
  bool erase(const FlowKey& key) {
    const std::size_t i = locate(key);
    if (i == kNone) return false;
    [[maybe_unused]] V dead = std::move(slots_[i].value);
    remove_at(i);
    return true;
  }

  /// Remove every entry for which pred(key, value) holds; returns how many.
  /// Each live entry is tested exactly once.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    if (size_ == 0) return 0;
    // Start just past an empty slot: no probe run then wraps past the
    // start, so backward shifts only move not-yet-visited entries into the
    // slot being visited, never an already-tested one past the cursor.
    std::size_t start = 0;
    while (slots_[start].used) ++start;
    std::size_t removed = 0;
    for (std::size_t n = 0; n <= mask_; ++n) {
      const std::size_t i = (start + 1 + n) & mask_;
      // remove_at may shift the next entry of the run into slot i.
      while (slots_[i].used && pred(std::as_const(slots_[i].key),
                                    std::as_const(slots_[i].value))) {
        [[maybe_unused]] V dead = std::move(slots_[i].value);
        remove_at(i);
        ++removed;
      }
    }
    return removed;
  }

  /// Call fn(key, value) for every entry, in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < capacity(); ++i) {
      if (slots_[i].used) fn(slots_[i].key, slots_[i].value);
    }
  }

  /// Drop every entry and the slot array. The values die after the table
  /// reads as empty.
  void clear() {
    mask_ = 0;
    size_ = 0;
    std::unique_ptr<Slot[]> old = std::move(slots_);
  }

  /// Slots a lookup of `key` examines (hit or miss): 1 when the key sits
  /// in its home slot. A diagnostic for the probe-length tests.
  [[nodiscard]] std::size_t probe_length(const FlowKey& key) const {
    if (!slots_) return 0;
    std::size_t n = 1;
    for (std::size_t i = home(key);; i = (i + 1) & mask_, ++n) {
      if (!slots_[i].used || slots_[i].key == key) return n;
    }
  }

 private:
  struct Slot {
    [[no_unique_address]] FlowKey key{};
    bool used{false};  // shares FlowKey's tail padding
    [[no_unique_address]] V value{};
  };
  static constexpr std::size_t kNone = ~std::size_t{0};
  static constexpr std::size_t kMinCapacity = 16;

  [[nodiscard]] std::size_t home(const FlowKey& key) const {
    return Hash{}(key) & mask_;
  }

  [[nodiscard]] std::size_t locate(const FlowKey& key) const {
    if (size_ == 0) return kNone;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (!slots_[i].used) return kNone;
      if (slots_[i].key == key) return i;
    }
  }

  /// First empty slot on `key`'s probe sequence (key known absent).
  [[nodiscard]] std::size_t free_slot_for(const FlowKey& key) const {
    std::size_t i = home(key);
    while (slots_[i].used) i = (i + 1) & mask_;
    return i;
  }

  /// Backward-shift deletion of the (already moved-from) entry at `hole`.
  void remove_at(std::size_t hole) {
    for (std::size_t j = (hole + 1) & mask_; slots_[j].used;
         j = (j + 1) & mask_) {
      // The entry at j may fill the hole only if its home does not lie
      // cyclically in (hole, j]: it must stay reachable from its home.
      const std::size_t dist_home = (j - home(slots_[j].key)) & mask_;
      const std::size_t dist_hole = (j - hole) & mask_;
      if (dist_home < dist_hole) continue;
      slots_[hole].key = slots_[j].key;
      slots_[hole].value = std::move(slots_[j].value);
      hole = j;
    }
    slots_[hole].used = false;
    slots_[hole].value = V{};
    --size_;
  }

  void grow() {
    const std::size_t old_cap = capacity();
    const std::size_t cap = old_cap == 0 ? kMinCapacity : old_cap * 2;
    std::unique_ptr<Slot[]> old = std::move(slots_);
    slots_ = std::make_unique<Slot[]>(cap);
    mask_ = cap - 1;
    for (std::size_t i = 0; i < old_cap; ++i) {
      if (!old[i].used) continue;
      Slot& s = slots_[free_slot_for(old[i].key)];
      s.key = old[i].key;
      s.used = true;
      s.value = std::move(old[i].value);
    }
  }

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_{0};
  std::size_t size_{0};
};

/// A set of flows: a FlowTable whose slots carry no value (16 B each).
struct NoValue {};
using FlowSet = FlowTable<NoValue>;

}  // namespace neat::net
