#include "sim/event_queue.h"

#include <algorithm>

#include "util/check.h"

namespace armada::sim {

namespace {

constexpr std::size_t kNoBucket = static_cast<std::size_t>(-1);
constexpr std::size_t kMinBuckets = 16;
/// Below this width, window indices of far-future events would overflow;
/// equal-time batches are handled by the sorted-bucket path instead.
constexpr double kMinWidth = 1e-9;
/// A bucket with more current-window events than this is sorted once and
/// popped from its back, so equal-time batches dispatch in O(log k) per
/// event instead of O(k).
constexpr std::size_t kSortThreshold = 16;

/// The dispatch order: the strict total order (when, seq).
bool earlier(const Time a_when, const std::uint64_t a_seq, const Time b_when,
             const std::uint64_t b_seq) {
  if (a_when != b_when) {
    return a_when < b_when;
  }
  return a_seq < b_seq;
}

}  // namespace

Simulator::Simulator() {
  buckets_.resize(kMinBuckets);
  bucket_mask_ = kMinBuckets - 1;
}

void Simulator::schedule_at(Time when, EventFn action) {
  ARMADA_CHECK_MSG(when >= now_, "scheduling into the past");
  insert(Event{when, seq_++, std::move(action)});
}

void Simulator::schedule_after(Time delay, EventFn action) {
  ARMADA_CHECK(delay >= 0.0);
  schedule_at(now_ + delay, std::move(action));
}

void Simulator::insert(Event e) {
  if (count_ + 1 > 2 * buckets_.size()) {
    rebuild(buckets_.size() * 2);
  }
  const std::uint64_t w = window_of(e.when);
  if (w < window_) {
    window_ = w;  // rewind the cursor: never leave events behind it
  }
  const std::size_t b = static_cast<std::size_t>(w) & bucket_mask_;
  if (b == sorted_bucket_) {
    sorted_bucket_ = kNoBucket;
  }
  buckets_[b].push_back(std::move(e));
  ++count_;
}

Time Simulator::min_when() {
  for (;;) {
    for (std::size_t pass = 0; pass <= bucket_mask_; ++pass) {
      const std::size_t b = static_cast<std::size_t>(window_) & bucket_mask_;
      std::vector<Event>& bk = buckets_[b];
      if (!bk.empty()) {
        if (b == sorted_bucket_) {
          if (window_of(bk.back().when) <= window_) {
            return bk.back().when;
          }
        } else {
          std::size_t best = kNoBucket;
          std::size_t in_window = 0;
          for (std::size_t i = 0; i < bk.size(); ++i) {
            if (window_of(bk[i].when) <= window_) {
              ++in_window;
              if (best == kNoBucket ||
                  earlier(bk[i].when, bk[i].seq, bk[best].when,
                          bk[best].seq)) {
                best = i;
              }
            }
          }
          if (best != kNoBucket) {
            if (in_window > kSortThreshold) {
              // Equal-time batch: order the bucket once, pop from the back.
              std::sort(bk.begin(), bk.end(),
                        [](const Event& x, const Event& y) {
                          return earlier(y.when, y.seq, x.when, x.seq);
                        });
              sorted_bucket_ = b;
              return bk.back().when;
            }
            return bk[best].when;
          }
        }
      }
      ++window_;
    }
    // A whole calendar cycle is empty below the cursor: jump the cursor
    // straight to the window of the globally earliest event.
    const Event* min_event = nullptr;
    for (const std::vector<Event>& bk : buckets_) {
      for (const Event& e : bk) {
        if (min_event == nullptr ||
            earlier(e.when, e.seq, min_event->when, min_event->seq)) {
          min_event = &e;
        }
      }
    }
    ARMADA_CHECK(min_event != nullptr);
    window_ = window_of(min_event->when);
  }
}

Simulator::Event Simulator::pop_min() {
  // min_when() leaves the cursor on the window of the earliest event, so
  // re-locating it within the single bucket of that window is cheap.
  (void)min_when();
  const std::size_t b = static_cast<std::size_t>(window_) & bucket_mask_;
  std::vector<Event>& bk = buckets_[b];
  std::size_t idx;
  if (b == sorted_bucket_) {
    idx = bk.size() - 1;
  } else {
    idx = kNoBucket;
    for (std::size_t i = 0; i < bk.size(); ++i) {
      if (window_of(bk[i].when) <= window_ &&
          (idx == kNoBucket ||
           earlier(bk[i].when, bk[i].seq, bk[idx].when, bk[idx].seq))) {
        idx = i;
      }
    }
  }
  Event out = std::move(bk[idx]);
  if (idx + 1 != bk.size()) {
    bk[idx] = std::move(bk.back());
  }
  bk.pop_back();
  --count_;
  if (buckets_.size() > kMinBuckets && count_ < buckets_.size() / 4) {
    rebuild(buckets_.size() / 2);
  }
  return out;
}

void Simulator::rebuild(std::size_t new_bucket_count) {
  std::vector<Event> pending;
  pending.reserve(count_);
  for (std::vector<Event>& bk : buckets_) {
    for (Event& e : bk) {
      pending.push_back(std::move(e));
    }
    bk.clear();
  }
  buckets_.clear();
  buckets_.resize(new_bucket_count);
  bucket_mask_ = new_bucket_count - 1;
  sorted_bucket_ = kNoBucket;
  count_ = 0;
  if (pending.empty()) {
    window_ = window_of(now_);
    return;
  }
  Time lo = pending.front().when;
  Time hi = lo;
  for (const Event& e : pending) {
    lo = std::min(lo, e.when);
    hi = std::max(hi, e.when);
  }
  if (hi > lo) {
    // Aim for ~1 event per window, with a calendar year (buckets * width)
    // strictly longer than the pending span. A grow rebuild has as many
    // events as buckets, so span / pending would make the year equal the
    // span: FRT waves one time unit apart would then share a bucket, and
    // each arrival of the next wave would unsort the batch being
    // dispatched. hi > lo implies at least two events.
    width_ = std::max((hi - lo) / static_cast<double>(pending.size() - 1),
                      kMinWidth);
  }
  window_ = window_of(lo);
  for (Event& e : pending) {
    const std::uint64_t w = window_of(e.when);
    buckets_[static_cast<std::size_t>(w) & bucket_mask_].push_back(
        std::move(e));
    ++count_;
  }
}

void Simulator::run() {
  while (count_ > 0) {
    Event item = pop_min();
    now_ = item.when;
    ++processed_;
    item.fn();
  }
}

void Simulator::run_until(Time horizon) {
  while (count_ > 0 && min_when() <= horizon) {
    Event item = pop_min();
    now_ = item.when;
    ++processed_;
    item.fn();
  }
  now_ = horizon > now_ ? horizon : now_;
}

}  // namespace armada::sim
