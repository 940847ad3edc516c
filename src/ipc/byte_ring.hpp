// Shared-memory byte ring: the data plane of a NEaT socket.
//
// The socket design (Hruby et al., TRIOS'14, cited as [35]) maps a pair of
// byte rings between the application and its network stack replica, so that
// send()/recv() are plain memory copies plus an occasional doorbell —
// "resolving the vast majority of system calls within the application
// itself". This class is that ring.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>

namespace neat::ipc {

class ByteRing {
 public:
  /// Backing memory is allocated lazily on first write and can be released
  /// with release() — connection teardown states (TIME_WAIT) must not pin
  /// buffer memory, or high connection churn exhausts RAM. It is allocated
  /// uninitialised: only bytes inside the readable region are ever read, so
  /// a zero-fill would touch the whole capacity for nothing (a short-lived
  /// connection writes a few hundred bytes into a 96 KiB ring).
  explicit ByteRing(std::size_t capacity) : capacity_(capacity) {
    assert(capacity > 0);
  }

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
    if (!buf_ && !src.empty()) {
      buf_ = std::make_unique_for_overwrite<std::uint8_t[]>(capacity_);
    }
    const std::size_t n = std::min(src.size(), writable());
    if (n == 0) return 0;
    const std::size_t tail = (head_ + size_) % capacity_;
    const std::size_t first = std::min(n, capacity_ - tail);
    std::memcpy(buf_.get() + tail, src.data(), first);
    if (n > first) std::memcpy(buf_.get(), src.data() + first, n - first);
    size_ += n;
    high_water_ = std::max(high_water_, size_);
    total_in_ += n;
    return n;
  }

  /// Drop content AND free the backing memory (lazily re-allocated if the
  /// ring is written again).
  void release() {
    head_ = 0;
    size_ = 0;
    buf_.reset();
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
    if (!buf_ || size_ == 0) return {};
    const std::size_t first = std::min(size_, capacity_ - head_);
    return {std::span<const std::uint8_t>{buf_.get() + head_, first},
            std::span<const std::uint8_t>{buf_.get(), size_ - first}};
  }

  /// Drop up to n bytes; returns bytes dropped.
  std::size_t discard(std::size_t n) {
    if (!buf_) return 0;
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
    if (!buf_ || offset >= size_) return 0;
    const std::size_t n = std::min(dst.size(), size_ - offset);
    if (n == 0) return 0;
    const std::size_t pos = (head_ + offset) % capacity_;
    const std::size_t first = std::min(n, capacity_ - pos);
    std::memcpy(dst.data(), buf_.get() + pos, first);
    if (n > first) std::memcpy(dst.data() + first, buf_.get(), n - first);
    return n;
  }

  std::size_t capacity_;
  std::unique_ptr<std::uint8_t[]> buf_;  // null until first write
  std::size_t head_{0};
  std::size_t size_{0};
  std::size_t high_water_{0};
  std::uint64_t total_in_{0};
  std::uint64_t total_out_{0};
};

}  // namespace neat::ipc
