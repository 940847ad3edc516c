// Packet buffer with headroom for in-place header push/pull.
//
// Packets are real byte strings: every layer serializes a genuine wire
// header (checksums included) on transmit and parses it on receive, so the
// protocol code in this repository is testable against the actual formats —
// only the passage of time is simulated.
//
// Ownership is an intrusive, non-atomic refcount (PacketRef): a packet is
// born with one reference, copies of the handle bump a plain integer in the
// packet header, and the last release returns the *whole object* — buffer,
// capacity and all — to the installed net::PacketPool freelist. Replica
// processes never share a packet across HwThreads concurrently (the sim is
// single-threaded; real NEaT pins each replica to a core), so the count
// needs no atomics and no control block. Reused packets are
// indistinguishable from fresh ones — same size, same headroom, zeroed
// (make_uninit skips only the zero-fill), metadata reset. Without an
// installed pool every packet is plain heap (bare unit tests) and the last
// release deletes it.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace neat::net {

class Packet;

/// Intrusive refcounted handle to a Packet. Drop-in for the old
/// std::shared_ptr<Packet> on the data path, minus the control block, the
/// atomic count, and the separate allocation.
class PacketRef {
 public:
  PacketRef() = default;
  PacketRef(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  inline PacketRef(const PacketRef& o);
  PacketRef(PacketRef&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }
  inline PacketRef& operator=(const PacketRef& o);
  inline PacketRef& operator=(PacketRef&& o) noexcept;
  PacketRef& operator=(std::nullptr_t) {
    reset();
    return *this;
  }
  inline ~PacketRef();

  /// Wrap a packet whose count is already 1 (allocation sites only).
  [[nodiscard]] static PacketRef adopt(Packet* p) {
    PacketRef r;
    r.p_ = p;
    return r;
  }

  inline void reset();

  [[nodiscard]] Packet* get() const { return p_; }
  [[nodiscard]] Packet& operator*() const { return *p_; }
  [[nodiscard]] Packet* operator->() const { return p_; }
  [[nodiscard]] explicit operator bool() const { return p_ != nullptr; }

  friend bool operator==(const PacketRef& a, const PacketRef& b) {
    return a.p_ == b.p_;
  }
  friend bool operator!=(const PacketRef& a, const PacketRef& b) {
    return a.p_ != b.p_;
  }
  friend bool operator==(const PacketRef& a, std::nullptr_t) {
    return a.p_ == nullptr;
  }
  friend bool operator!=(const PacketRef& a, std::nullptr_t) {
    return a.p_ != nullptr;
  }
  friend bool operator==(std::nullptr_t, const PacketRef& a) {
    return a.p_ == nullptr;
  }
  friend bool operator!=(std::nullptr_t, const PacketRef& a) {
    return a.p_ != nullptr;
  }

 private:
  static inline void release(Packet* p);

  Packet* p_{nullptr};
};

using PacketPtr = PacketRef;

namespace detail {

/// Shared freelist state. Lives behind a shared_ptr: every pooled Packet
/// holds a reference, so recycling stays safe no matter which of the pool
/// and the packet dies first.
struct PoolCore {
  /// Packets are bucketed by buffer capacity: bucket b serves kMinBytes<<b.
  static constexpr std::size_t kMinBytes = 128;
  static constexpr std::size_t kBuckets = 12;  // up to 256 KiB
  /// Retention cap per bucket; beyond it returned packets are freed.
  static constexpr std::size_t kMaxPerBucket = 4096;

  struct Stats {
    std::uint64_t fresh{0};         ///< packets the allocator provided
    std::uint64_t reused{0};        ///< packets served from the freelist
    std::uint64_t recycled{0};      ///< packets accepted back
    std::uint64_t dropped_full{0};  ///< returns refused (bucket at cap)
  };

  std::array<std::vector<Packet*>, kBuckets> free;
  Stats stats;
  /// Set by ~PacketPool after draining the freelists: in-flight packets
  /// released after the pool died delete themselves instead of recycling
  /// into a freelist nobody will ever take from again.
  bool shut_down{false};
  // Optional live export (PacketPool::bind); null until bound.
  obs::Counter* fresh_ctr{nullptr};
  obs::Counter* reused_ctr{nullptr};
  obs::Counter* recycled_ctr{nullptr};

  /// Bucket that serves a request of `n` bytes, or -1 if oversized.
  [[nodiscard]] static int bucket_for(std::size_t n) {
    if (n <= kMinBytes) return 0;
    const int b = std::bit_width(n - 1) - 7;  // ceil(log2(n)) - log2(128)
    return b < static_cast<int>(kBuckets) ? b : -1;
  }

  /// Largest bucket a buffer of `capacity` can serve (floor), or -1.
  [[nodiscard]] static int bucket_of_capacity(std::size_t capacity) {
    if (capacity < kMinBytes) return -1;
    const int b = std::bit_width(capacity) - 8;  // floor(log2(cap)) - 7
    return b < static_cast<int>(kBuckets) ? b
                                          : static_cast<int>(kBuckets) - 1;
  }

  /// Pop a recycled packet able to hold `need` bytes; nullptr on miss.
  /// The caller reinitializes it (Packet::make).
  [[nodiscard]] Packet* try_take(std::size_t need) {
    const int b = bucket_for(need);
    if (b < 0) return nullptr;
    auto& bucket = free[static_cast<std::size_t>(b)];
    if (bucket.empty()) return nullptr;
    Packet* p = bucket.back();
    bucket.pop_back();
    ++stats.reused;
    if (reused_ctr != nullptr) reused_ctr->inc();
    return p;
  }

  /// Accept a dead packet back (count already 0). Returns true when the
  /// freelist took ownership; false = caller must delete. Defined after
  /// Packet (needs its buffer capacity).
  inline bool give_packet(Packet* p);
};

/// Pool installed for the current thread (the sim is single-threaded; this
/// is a plain pointer swap per PacketPool::Use scope, not a lock).
[[nodiscard]] inline const std::shared_ptr<PoolCore>*& current_pool() {
  thread_local const std::shared_ptr<PoolCore>* cur = nullptr;
  return cur;
}

}  // namespace detail

class Packet {
 public:
  static constexpr std::size_t kDefaultHeadroom = 64;

  /// Allocate with `payload` zero bytes of content and room to prepend
  /// headers. Served from the installed PacketPool when one is in scope.
  [[nodiscard]] static PacketPtr make(std::size_t payload,
                                      std::size_t headroom = kDefaultHeadroom) {
    return allocate(payload, headroom, /*zero=*/true);
  }

  /// As make(), but the content bytes are left unspecified: for callers
  /// that overwrite every one of them at once (a TCP segment copied out of
  /// the send ring), so the buffer is not written twice.
  [[nodiscard]] static PacketPtr make_uninit(
      std::size_t payload, std::size_t headroom = kDefaultHeadroom) {
    return allocate(payload, headroom, /*zero=*/false);
  }

  /// Allocate with content copied from `data`.
  [[nodiscard]] static PacketPtr of(std::span<const std::uint8_t> data,
                                    std::size_t headroom = kDefaultHeadroom) {
    auto p = make(data.size(), headroom);
    if (!data.empty()) {
      std::memcpy(p->buf_.get() + p->head_, data.data(), data.size());
    }
    return p;
  }

  /// Fresh packet of `need` = headroom + payload bytes; plain heap when
  /// `core` is null. A pooled one gets its capacity rounded up to the
  /// bucket size, so reinit() after recycling never reallocates.
  Packet(std::size_t need, std::size_t headroom,
         std::shared_ptr<detail::PoolCore> core, bool zero)
      : cap_(need), len_(need), head_(headroom), core_(std::move(core)) {
    const int b = detail::PoolCore::bucket_for(need);
    if (core_ && b >= 0) cap_ = detail::PoolCore::kMinBytes << b;
    buf_ = std::make_unique_for_overwrite<std::uint8_t[]>(cap_);
    if (zero) std::memset(buf_.get(), 0, need);
  }

  Packet(const Packet&) = delete;
  Packet& operator=(const Packet&) = delete;
  ~Packet() = default;

  /// Deep copy (duplication injection, loopback). Pool-aware: the copy
  /// comes from the installed pool like any other allocation, with its own
  /// count — the original's ownership is untouched.
  [[nodiscard]] PacketPtr clone() const {
    auto p = make(size(), head_);
    if (size() > 0) {
      std::memcpy(p->buf_.get() + p->head_, buf_.get() + head_, size());
    }
    p->rx_queue = rx_queue;
    p->tso = tso;
    p->nic_rx_time = nic_rx_time;
    return p;
  }

  [[nodiscard]] std::size_t size() const { return len_ - head_; }

  [[nodiscard]] std::span<std::uint8_t> bytes() {
    return {buf_.get() + head_, size()};
  }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return {buf_.get() + head_, size()};
  }

  /// Prepend `n` bytes (push a header); returns the new front region.
  std::span<std::uint8_t> push(std::size_t n) {
    assert(head_ >= n && "insufficient headroom");
    head_ -= n;
    return {buf_.get() + head_, n};
  }

  /// Consume `n` bytes from the front (pop a header); returns them.
  std::span<const std::uint8_t> pull(std::size_t n) {
    assert(size() >= n && "pulling past end of packet");
    auto r = std::span<const std::uint8_t>{buf_.get() + head_, n};
    head_ += n;
    return r;
  }

  /// Trim the packet to `n` bytes of content (drop trailing padding).
  void truncate(std::size_t n) {
    assert(n <= size());
    len_ = head_ + n;
  }

  /// Live references to this packet (diagnostics / property tests).
  [[nodiscard]] std::uint32_t ref_count() const { return refs_; }

  // --- out-of-band metadata (not on the wire) -----------------------------

  /// NIC RX queue this packet was steered to; -1 before classification.
  int rx_queue{-1};
  /// True when this buffer is a TSO super-segment that the NIC will cut
  /// into MTU-sized frames on the wire (we charge wire time for the total).
  bool tso{false};
  /// Ingress timestamp set by the NIC (for latency accounting in tests).
  std::uint64_t nic_rx_time{0};

 private:
  friend class PacketRef;
  friend struct detail::PoolCore;

  /// Shared body of make() and make_uninit().
  [[nodiscard]] static PacketPtr allocate(std::size_t payload,
                                          std::size_t headroom, bool zero) {
    const std::size_t need = headroom + payload;
    if (const auto* pool = detail::current_pool()) {
      if (Packet* p = (*pool)->try_take(need)) {
        p->reinit(need, headroom, zero);
        return PacketRef::adopt(p);
      }
      auto& core = (*pool)->stats;
      ++core.fresh;
      if ((*pool)->fresh_ctr != nullptr) (*pool)->fresh_ctr->inc();
      return PacketRef::adopt(new Packet(need, headroom, *pool, zero));
    }
    return PacketRef::adopt(new Packet(need, headroom, nullptr, zero));
  }

  /// Reset a recycled packet to fresh-allocation state. The buffer
  /// capacity is at least the bucket size (invariant from the pooled
  /// constructor), so it is never reallocated.
  void reinit(std::size_t need, std::size_t headroom, bool zero) {
    assert(need <= cap_);
    if (zero) std::memset(buf_.get(), 0, need);
    len_ = need;
    head_ = headroom;
    refs_ = 1;
    rx_queue = -1;
    tso = false;
    nic_rx_time = 0;
  }

  std::unique_ptr<std::uint8_t[]> buf_;
  std::size_t cap_;   ///< bytes allocated
  std::size_t len_;   ///< bytes in use: headroom + content
  std::size_t head_;
  std::uint32_t refs_{1};  ///< non-atomic: single-threaded ownership
  std::shared_ptr<detail::PoolCore> core_;
};

inline bool detail::PoolCore::give_packet(Packet* p) {
  const int b = bucket_of_capacity(p->cap_);
  if (b < 0 || free[static_cast<std::size_t>(b)].size() >= kMaxPerBucket) {
    ++stats.dropped_full;
    return false;  // caller deletes
  }
  ++stats.recycled;
  if (recycled_ctr != nullptr) recycled_ctr->inc();
  free[static_cast<std::size_t>(b)].push_back(p);
  return true;
}

inline PacketRef::PacketRef(const PacketRef& o) : p_(o.p_) {
  if (p_ != nullptr) ++p_->refs_;
}

inline PacketRef& PacketRef::operator=(const PacketRef& o) {
  Packet* old = p_;
  p_ = o.p_;
  if (p_ != nullptr) ++p_->refs_;
  release(old);  // after the bump: self-assignment safe
  return *this;
}

inline PacketRef& PacketRef::operator=(PacketRef&& o) noexcept {
  if (this != &o) {
    Packet* old = p_;
    p_ = o.p_;
    o.p_ = nullptr;
    release(old);
  }
  return *this;
}

inline PacketRef::~PacketRef() { release(p_); }

inline void PacketRef::reset() {
  Packet* old = p_;
  p_ = nullptr;
  release(old);
}

inline void PacketRef::release(Packet* p) {
  if (p == nullptr) return;
  assert(p->refs_ > 0 && "releasing a dead packet");
  if (--p->refs_ > 0) return;
  // Last reference: recycle the whole object into its pool. The freelist
  // entry keeps its shared_ptr to the core, so recycled packets cost no
  // refcount traffic on later reuse; ~PacketPool breaks the cycle by
  // draining the freelists and flagging shut_down for in-flight stragglers.
  if (p->core_ && !p->core_->shut_down) {
    if (p->core_->give_packet(p)) return;
  }
  delete p;
}

}  // namespace neat::net
