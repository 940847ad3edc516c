// Per-simulator freelist of whole packet objects.
//
// The data path used to allocate and free a byte vector plus a shared_ptr
// control block per packet — three allocator round-trips per frame, tens
// of millions per bench run, plus two atomic refcount updates per handle
// copy. The pool short-circuits all of it: when the last PacketRef to a
// pooled Packet drops, the *object* (buffer, capacity and all) goes back
// to a capacity-bucketed freelist, and the next Packet::make of a similar
// size pops it whole — no allocation, no control block, no shared_ptr
// traffic. Install with a PacketPool::Use scope (the harness Testbed does
// this; bare unit tests that never install a pool get plain heap packets
// and are unaffected).
//
// The pool also owns the rig's ipc::RingStorePool, and the same Use scope
// installs it: socket ring stores recycle per rig exactly like packets,
// and both die with the rig that owns the pool.
//
// Reused packets are fully reinitialized — same size, same headroom, all
// bytes zeroed, metadata reset — so pooling is observationally
// transparent; the property tests in tests/test_fastpath.cpp pin this
// down (including that a packet returns to the pool exactly once under
// clone/duplicate/capture-replay).
#pragma once

#include <memory>

#include "ipc/byte_ring.hpp"
#include "net/packet.hpp"
#include "obs/obs.hpp"

namespace neat::net {

class PacketPool {
 public:
  using Stats = detail::PoolCore::Stats;

  PacketPool() : core_(std::make_shared<detail::PoolCore>()) {}

  ~PacketPool() {
    // Freelist packets hold shared_ptr refs to the core (so reuse costs no
    // refcount traffic); drain them here to break the cycle, and flag the
    // core so in-flight packets released after this point self-delete
    // instead of recycling into a freelist nobody will drain again.
    for (auto& bucket : core_->free) {
      for (Packet* p : bucket) delete p;
      bucket.clear();
    }
    core_->shut_down = true;
  }

  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// Export live alloc/recycle counters through the simulation's
  /// observability hub (pool.fresh / pool.reused / pool.recycled).
  void bind(obs::Hub& hub) {
    core_->fresh_ctr = &hub.metrics.counter("pool.fresh");
    core_->reused_ctr = &hub.metrics.counter("pool.reused");
    core_->recycled_ctr = &hub.metrics.counter("pool.recycled");
  }

  /// Detach from the hub. Must be called before the hub dies if the pool
  /// (or any pooled packet) can outlive it — buffers released during
  /// simulator teardown would otherwise bump freed counters.
  void unbind() {
    core_->fresh_ctr = nullptr;
    core_->reused_ctr = nullptr;
    core_->recycled_ctr = nullptr;
  }

  [[nodiscard]] const Stats& stats() const { return core_->stats; }
  [[nodiscard]] const ipc::RingStorePool::Stats& ring_store_stats() const {
    return ring_stores_.stats();
  }

  /// RAII install scope: while alive, every Packet::make and every ring
  /// store a ByteRing takes on this thread is served by this pool. Nests
  /// (restores the previous pool on exit).
  class Use {
   public:
    explicit Use(PacketPool& pool)
        : prev_(detail::current_pool()),
          prev_rings_(ipc::detail::current_ring_stores()) {
      detail::current_pool() = &pool.core_;
      ipc::detail::current_ring_stores() = &pool.ring_stores_;
    }
    ~Use() {
      detail::current_pool() = prev_;
      ipc::detail::current_ring_stores() = prev_rings_;
    }

    Use(const Use&) = delete;
    Use& operator=(const Use&) = delete;

   private:
    const std::shared_ptr<detail::PoolCore>* prev_;
    ipc::RingStorePool* prev_rings_;
  };

 private:
  std::shared_ptr<detail::PoolCore> core_;
  ipc::RingStorePool ring_stores_;
};

}  // namespace neat::net
