// Move-only callable with large inline storage.
//
// The simulator's hot path is "schedule a closure, fire it once": 18M+
// closures per bench run. std::function's 16-byte small-buffer means nearly
// every capture (a PacketPtr plus a timestamp plus a this-pointer already
// exceeds it) heap-allocates, and the allocator shows up at the top of the
// wall-clock profile. SmallFn trades memory for allocation-freedom: 80
// bytes of inline storage covers every closure the data path creates, with
// a heap fallback for the rare oversized capture. Move-only (closures own
// packets and sockets; copying them would be a bug anyway).
//
// SmallFnOf<Sig> generalizes the same storage scheme to any signature —
// the socket layer's per-connection callbacks (on_readable(fd),
// on_closed(fd, reason), ...) use it so the per-segment notification path
// carries no std::function dispatch or allocation either. sim::SmallFn
// stays the void() alias every schedule()/post() call site uses.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace neat::sim {

template <typename Sig>
class SmallFnOf;

template <typename R, typename... Args>
class SmallFnOf<R(Args...)> {
 public:
  /// Inline capture budget. Sized for the largest hot-path closure (a
  /// Process::after timer wrapper around a caller's capture). A SmallFn
  /// nested in a closure never fits; the wake path parks its callable in
  /// a process-owned slot instead (Process::park).
  static constexpr std::size_t kInlineSize = 80;

  SmallFnOf() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFnOf> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  SmallFnOf(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for
                      // std::function at every call site
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &heap_ops<Fn>;
    }
  }

  SmallFnOf(SmallFnOf&& other) noexcept { steal(other); }

  SmallFnOf& operator=(SmallFnOf&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  SmallFnOf(const SmallFnOf&) = delete;
  SmallFnOf& operator=(const SmallFnOf&) = delete;

  ~SmallFnOf() { reset(); }

  R operator()(Args... args) {
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  /// Destroy the held callable (releases captured resources immediately —
  /// cancellation paths use this so dead closures don't pin packets).
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    R (*invoke)(unsigned char*, Args&&...);
    void (*destroy)(unsigned char*);
    void (*relocate)(unsigned char* dst, unsigned char* src);
  };

  template <typename Fn>
  static constexpr Ops inline_ops{
      [](unsigned char* b, Args&&... args) -> R {
        return (*std::launder(reinterpret_cast<Fn*>(b)))(
            std::forward<Args>(args)...);
      },
      [](unsigned char* b) { std::launder(reinterpret_cast<Fn*>(b))->~Fn(); },
      [](unsigned char* dst, unsigned char* src) {
        Fn* s = std::launder(reinterpret_cast<Fn*>(src));
        ::new (static_cast<void*>(dst)) Fn(std::move(*s));
        s->~Fn();
      }};

  template <typename Fn>
  static constexpr Ops heap_ops{
      [](unsigned char* b, Args&&... args) -> R {
        return (**std::launder(reinterpret_cast<Fn**>(b)))(
            std::forward<Args>(args)...);
      },
      [](unsigned char* b) {
        delete *std::launder(reinterpret_cast<Fn**>(b));
      },
      [](unsigned char* dst, unsigned char* src) {
        Fn** s = std::launder(reinterpret_cast<Fn**>(src));
        ::new (static_cast<void*>(dst)) Fn*(*s);
      }};

  void steal(SmallFnOf& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  const Ops* ops_{nullptr};
};

using SmallFn = SmallFnOf<void()>;

}  // namespace neat::sim
