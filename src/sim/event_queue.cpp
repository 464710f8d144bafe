#include "sim/event_queue.h"

#include <algorithm>

#include "util/check.h"

namespace armada::sim {

namespace {

/// Heap order: a dispatches after b. std::push_heap/pop_heap keep the
/// greatest element first, so the earliest (when, seq) is at the front.
constexpr auto kLater = [](const auto& a, const auto& b) {
  if (a.when != b.when) {
    return a.when > b.when;
  }
  return a.seq > b.seq;
};

}  // namespace

void Simulator::schedule_at(Time when, EventFn action) {
  ARMADA_CHECK_MSG(when >= now_, "scheduling into the past");
  std::size_t slot = slots_.size();
  if (free_slots_.empty()) {
    slots_.push_back(std::move(action));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(action);
  }
  heap_.push_back(Key{when, seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), kLater);
}

void Simulator::schedule_after(Time delay, EventFn action) {
  ARMADA_CHECK(delay >= 0.0);
  schedule_at(now_ + delay, std::move(action));
}

void Simulator::dispatch() {
  std::pop_heap(heap_.begin(), heap_.end(), kLater);
  const Key key = heap_.back();
  heap_.pop_back();
  // The callback may schedule more events, which can grow slots_: run it
  // from a local, not from its slot.
  EventFn fn = std::move(slots_[key.slot]);
  free_slots_.push_back(key.slot);
  now_ = key.when;
  ++processed_;
  fn();
}

void Simulator::run() {
  while (!heap_.empty()) {
    dispatch();
  }
}

void Simulator::run_until(Time horizon) {
  while (!heap_.empty() && heap_.front().when <= horizon) {
    dispatch();
  }
  now_ = horizon > now_ ? horizon : now_;
}

}  // namespace armada::sim
