// Discrete-event simulation kernel.
//
// All overlays execute queries on this kernel; one overlay hop costs one
// time unit by default, so arrival time equals hop count and "query delay"
// (the paper's metric) is the latest arrival at any destination peer.
//
// The pending-event set is a binary min-heap of 24-byte keys (when, seq,
// slot); each event's callback waits in a slot of its own, so a sift step
// moves a key, never a closure. Event callbacks are stored in a
// small-buffer EventFn, so scheduling a typical closure performs no heap
// allocation at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace armada::sim {

using Time = double;

/// Move-only callable of signature void() with small-buffer storage:
/// closures up to kInlineSize bytes (every callback the kernel and the
/// transport schedule today) live inline in the event's slot; larger or
/// throwing-move callables fall back to a single heap cell.
class EventFn {
 public:
  EventFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, EventFn>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): function-like
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  void operator()() { ops_->invoke(buf_); }
  explicit operator bool() const { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-construct the callable at dst from src, then destroy src.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* dst, void* src) {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      [](void* p) { static_cast<Fn*>(p)->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* p) { (**static_cast<Fn**>(p))(); },
      [](void* dst, void* src) {
        ::new (dst) Fn*(*static_cast<Fn**>(src));
      },
      [](void* p) { delete *static_cast<Fn**>(p); },
  };

  void move_from(EventFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  static constexpr std::size_t kInlineSize = 56;

  alignas(std::max_align_t) std::byte buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

/// Minimal deterministic event loop. Events at equal times run in
/// scheduling (FIFO) order, which keeps runs reproducible for a fixed seed:
/// dispatch order is the strict total order (when, seq).
class Simulator {
 public:
  void schedule_at(Time when, EventFn action);
  void schedule_after(Time delay, EventFn action);

  /// Process events until the queue is empty.
  void run();

  /// Process events with time <= horizon; later events stay queued.
  void run_until(Time horizon);

  Time now() const { return now_; }
  std::uint64_t events_processed() const { return processed_; }
  bool idle() const { return heap_.empty(); }

 private:
  /// A pending event's dispatch key and the slot its callback waits in.
  struct Key {
    Time when;
    std::uint64_t seq;
    std::size_t slot;
  };

  /// Pop the earliest key, advance now_ to it and run its callback.
  /// Requires a pending event.
  void dispatch();

  std::vector<Key> heap_;  ///< min-heap by (when, seq)
  std::vector<EventFn> slots_;
  std::vector<std::size_t> free_slots_;  ///< slots_ entries not in use

  Time now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace armada::sim
