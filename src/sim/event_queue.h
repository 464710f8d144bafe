// Discrete-event simulation kernel.
//
// All overlays execute queries on this kernel; one overlay hop costs one
// time unit by default, so arrival time equals hop count and "query delay"
// (the paper's metric) is the latest arrival at any destination peer.
//
// The pending-event set is an indexed calendar (bucket) queue: events hash
// into time-windowed buckets, so scheduling and dispatch are O(1) amortized
// instead of the O(log n) of a binary heap — the difference between heap
// churn and straight-line dispatch on million-event runs. Event callbacks
// are stored in a small-buffer EventFn, so scheduling a typical closure
// performs no heap allocation at all.
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
/// transport schedule today) live inline in the event record; larger or
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
/// dispatch order is the strict total order (when, seq), exactly the order
/// the previous binary-heap kernel produced.
class Simulator {
 public:
  Simulator();

  void schedule_at(Time when, EventFn action);
  void schedule_after(Time delay, EventFn action);

  /// Process events until the queue is empty.
  void run();

  /// Process events with time <= horizon; later events stay queued.
  void run_until(Time horizon);

  Time now() const { return now_; }
  std::uint64_t events_processed() const { return processed_; }
  bool idle() const { return count_ == 0; }

 private:
  struct Event {
    Time when;
    std::uint64_t seq;
    EventFn fn;
  };

  std::uint64_t window_of(Time when) const {
    return static_cast<std::uint64_t>(when / width_);
  }
  void insert(Event e);
  /// Remove and return the earliest event by (when, seq). Requires
  /// count_ > 0. `peeked_when`, when already known via min_when(), skips
  /// the second scan.
  Event pop_min();
  /// Earliest pending timestamp; requires count_ > 0. Positions the cursor
  /// (window_) at that event's window as a side effect.
  Time min_when();
  void rebuild(std::size_t new_bucket_count);

  std::vector<std::vector<Event>> buckets_;
  std::size_t bucket_mask_ = 0;  ///< buckets_.size() - 1 (power of two)
  double width_ = 1.0;           ///< seconds of simulated time per bucket
  std::uint64_t window_ = 0;     ///< cursor: current time window index
  std::size_t count_ = 0;
  /// Bucket currently kept sorted descending by (when, seq) — the
  /// equal-time-batch fast path; SIZE_MAX when none.
  std::size_t sorted_bucket_ = static_cast<std::size_t>(-1);

  Time now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace armada::sim
