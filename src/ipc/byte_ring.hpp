// Shared-memory byte ring: the data plane of a NEaT socket.
//
// The socket design (Hruby et al., TRIOS'14, cited as [35]) maps a pair of
// byte rings between the application and its network stack replica, so that
// send()/recv() are plain memory copies plus an occasional doorbell —
// "resolving the vast majority of system calls within the application
// itself". This class is that ring.
//
// A ring's backing store comes from the RingStorePool installed for the
// current thread (net::PacketPool::Use installs the rig's pool along with
// its packet freelist), so connection churn recycles stores instead of
// sending a 96 KiB chunk through the allocator per ring per connection.
// Stores are plain `new[]` blocks of exactly the ring's capacity, so any
// pool (or delete[]) can take one back: a ring remembers no pool, and a
// store returned while no pool is installed — a socket outliving its rig,
// a bare unit test — is freed.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace neat::ipc {

/// Per-rig freelist of ring backing stores, bucketed by capacity. Owned by
/// net::PacketPool and installed by its Use scope, so it lives and dies
/// with the rig that installs it; the scope always ends before the pool
/// dies, so no store can be returned into a dead pool.
class RingStorePool {
 public:
  /// Distinct ring capacities pooled. A rig uses two or three (the TCP
  /// send and receive buffer sizes, the socket library's tx ring); stores
  /// of any further capacity are plain heap.
  static constexpr std::size_t kBuckets = 4;
  /// Stores kept per capacity; beyond it returned stores are freed, so a
  /// burst of closes cannot pin memory the rest of the rig wants back.
  static constexpr std::size_t kMaxPerBucket = 512;

  struct Stats {
    std::uint64_t fresh{0};         ///< stores the allocator provided
    std::uint64_t reused{0};        ///< stores served from the freelist
    std::uint64_t recycled{0};      ///< stores accepted back
    std::uint64_t dropped_full{0};  ///< returns freed (bucket at cap)
  };

  RingStorePool() = default;
  ~RingStorePool() {
    for (auto& b : buckets_) {
      for (std::uint8_t* store : b.free) delete[] store;
    }
  }

  RingStorePool(const RingStorePool&) = delete;
  RingStorePool& operator=(const RingStorePool&) = delete;

  /// An uninitialised store of `capacity` bytes, recycled when one is free.
  [[nodiscard]] std::uint8_t* take(std::size_t capacity) {
    if (Bucket* b = bucket(capacity); b != nullptr && !b->free.empty()) {
      std::uint8_t* store = b->free.back();
      b->free.pop_back();
      ++stats_.reused;
      return store;
    }
    ++stats_.fresh;
    return new std::uint8_t[capacity];  // default-initialised: no zero-fill
  }

  /// Accept a store of `capacity` bytes back, or free it.
  void give(std::uint8_t* store, std::size_t capacity) {
    Bucket* b = bucket(capacity);
    if (b == nullptr || b->free.size() >= kMaxPerBucket) {
      ++stats_.dropped_full;
      delete[] store;
      return;
    }
    ++stats_.recycled;
    b->free.push_back(store);
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Bucket {
    std::size_t capacity{0};  ///< 0 = unclaimed
    std::vector<std::uint8_t*> free;
  };

  /// The bucket serving `capacity`, claiming a free one on first use;
  /// nullptr when every bucket serves another capacity.
  [[nodiscard]] Bucket* bucket(std::size_t capacity) {
    for (auto& b : buckets_) {
      if (b.capacity == capacity) return &b;
      if (b.capacity == 0) {
        b.capacity = capacity;
        b.free.reserve(kMaxPerBucket);  // returns never reallocate
        return &b;
      }
    }
    return nullptr;
  }

  std::array<Bucket, kBuckets> buckets_;
  Stats stats_;
};

namespace detail {

/// Pool installed for the current thread (see net::PacketPool::Use).
[[nodiscard]] inline RingStorePool*& current_ring_stores() {
  thread_local RingStorePool* cur = nullptr;
  return cur;
}

}  // namespace detail

class ByteRing {
 public:
  /// Backing memory is allocated lazily on first write and can be released
  /// with release() — connection teardown states (TIME_WAIT) must not pin
  /// buffer memory, or high connection churn exhausts RAM. It is allocated
  /// uninitialised: only bytes inside the readable region are ever read, so
  /// a zero-fill would touch the whole capacity for nothing (a short-lived
  /// connection writes a few hundred bytes into a 96 KiB ring).
  /// The store comes from the installed RingStorePool, if any, and goes
  /// back to the pool installed at release() or destruction (freed when
  /// there is none).
  explicit ByteRing(std::size_t capacity) : capacity_(capacity) {
    assert(capacity > 0);
  }
  ~ByteRing() { drop_store(); }

  ByteRing(const ByteRing&) = delete;
  ByteRing& operator=(const ByteRing&) = delete;

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t readable() const { return size_; }
  [[nodiscard]] std::size_t writable() const { return capacity_ - size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool full() const { return size_ == capacity_; }

  /// Copy as much of `src` in as fits; returns bytes written. At most two
  /// memcpy segments: [tail, min(end, tail+n)) and the wrap onto [0, rest).
  std::size_t write(std::span<const std::uint8_t> src) {
    // Physically the full logical capacity, never less: the wrap position
    // is observable — NeatSocket::pump hands TcpSocket::send one call per
    // readable_spans() segment, and each call may emit segments.
    if (buf_ == nullptr && !src.empty()) take_store();
    const std::size_t n = std::min(src.size(), writable());
    if (n == 0) return 0;
    const std::size_t tail = (head_ + size_) % capacity_;
    const std::size_t first = std::min(n, capacity_ - tail);
    std::memcpy(buf_ + tail, src.data(), first);
    if (n > first) std::memcpy(buf_, src.data() + first, n - first);
    size_ += n;
    high_water_ = std::max(high_water_, size_);
    total_in_ += n;
    return n;
  }

  /// Drop content AND give back the backing memory (lazily re-acquired if
  /// the ring is written again).
  void release() {
    head_ = 0;
    size_ = 0;
    drop_store();
  }

  /// Copy up to dst.size() bytes out; returns bytes read.
  std::size_t read(std::span<std::uint8_t> dst) {
    const std::size_t n = copy_out(0, dst);
    head_ = (head_ + n) % capacity_;
    size_ -= n;
    total_out_ += n;
    return n;
  }

  /// Copy bytes starting `offset` into the readable region, without
  /// consuming (TCP retransmission reads unacked data at an offset).
  std::size_t peek_at(std::size_t offset, std::span<std::uint8_t> dst) const {
    return copy_out(offset, dst);
  }

  /// Copy up to `n` bytes without consuming them.
  std::size_t peek(std::span<std::uint8_t> dst) const {
    return copy_out(0, dst);
  }

  /// Zero-copy view of the readable region in ring order: at most two
  /// contiguous segments (the second is the wrap; empty when the content
  /// is contiguous). Invalidated by any mutating call.
  [[nodiscard]] std::array<std::span<const std::uint8_t>, 2> readable_spans()
      const {
    if (buf_ == nullptr || size_ == 0) return {};
    const std::size_t first = std::min(size_, capacity_ - head_);
    return {std::span<const std::uint8_t>{buf_ + head_, first},
            std::span<const std::uint8_t>{buf_, size_ - first}};
  }

  /// Drop up to n bytes; returns bytes dropped.
  std::size_t discard(std::size_t n) {
    if (buf_ == nullptr) return 0;
    n = std::min(n, readable());
    head_ = (head_ + n) % capacity_;
    size_ -= n;
    total_out_ += n;
    return n;
  }

  /// Remove all content (socket teardown / replica restart).
  void clear() {
    head_ = 0;
    size_ = 0;
  }

  [[nodiscard]] std::uint64_t total_in() const { return total_in_; }
  [[nodiscard]] std::uint64_t total_out() const { return total_out_; }
  /// Largest occupancy ever reached (queue-pressure diagnostics).
  [[nodiscard]] std::size_t high_water() const { return high_water_; }

 private:
  /// Shared tail of read/peek/peek_at: copy up to dst.size() bytes starting
  /// `offset` into the readable region, in at most two memcpy segments.
  std::size_t copy_out(std::size_t offset,
                       std::span<std::uint8_t> dst) const {
    if (buf_ == nullptr || offset >= size_) return 0;
    const std::size_t n = std::min(dst.size(), size_ - offset);
    if (n == 0) return 0;
    const std::size_t pos = (head_ + offset) % capacity_;
    const std::size_t first = std::min(n, capacity_ - pos);
    std::memcpy(dst.data(), buf_ + pos, first);
    if (n > first) std::memcpy(dst.data() + first, buf_, n - first);
    return n;
  }

  void take_store() {
    RingStorePool* pool = detail::current_ring_stores();
    buf_ = pool != nullptr ? pool->take(capacity_)
                           : new std::uint8_t[capacity_];
  }

  void drop_store() {
    if (buf_ == nullptr) return;
    if (RingStorePool* pool = detail::current_ring_stores()) {
      pool->give(buf_, capacity_);
    } else {
      delete[] buf_;
    }
    buf_ = nullptr;
  }

  std::size_t capacity_;
  std::uint8_t* buf_{nullptr};  // null until first write
  std::size_t head_{0};
  std::size_t size_{0};
  std::size_t high_water_{0};
  std::uint64_t total_in_{0};
  std::uint64_t total_out_{0};
};

}  // namespace neat::ipc
