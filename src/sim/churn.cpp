#include "sim/churn.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace armada::sim {

ChurnProcess::ChurnProcess(Config config, std::uint64_t seed)
    : config_(config), seed_(seed) {
  ARMADA_CHECK(config_.join_rate >= 0.0);
  ARMADA_CHECK(config_.leave_rate >= 0.0);
  ARMADA_CHECK(config_.crash_rate >= 0.0);
  ARMADA_CHECK(config_.horizon >= config_.start);
}

std::vector<ChurnEvent> ChurnProcess::events() const {
  const double total =
      config_.join_rate + config_.leave_rate + config_.crash_rate;
  std::vector<ChurnEvent> out;
  if (total <= 0.0) {
    return out;
  }
  // Merged Poisson process: exponential inter-arrival gaps at the summed
  // rate, each event's kind drawn proportionally to the per-kind rates.
  Rng rng(seed_);
  Time t = config_.start;
  for (;;) {
    const double u = rng.next_double();
    t += -std::log1p(-u) / total;
    if (!(t < config_.horizon)) {
      break;
    }
    const double pick = rng.next_double() * total;
    ChurnEventKind kind = ChurnEventKind::kCrash;
    if (pick < config_.join_rate) {
      kind = ChurnEventKind::kJoin;
    } else if (pick < config_.join_rate + config_.leave_rate) {
      kind = ChurnEventKind::kLeave;
    }
    out.push_back(ChurnEvent{t, kind});
  }
  return out;
}

std::vector<ChurnEvent> ChurnProcess::lifetimes(const LifetimeConfig& config,
                                                std::uint64_t seed) {
  ARMADA_CHECK(config.shape > 0.0);
  ARMADA_CHECK(config.scale > 0.0);
  ARMADA_CHECK(config.arrival_rate >= 0.0);
  ARMADA_CHECK(config.crash_fraction >= 0.0 && config.crash_fraction <= 1.0);
  ARMADA_CHECK(config.horizon >= config.start);

  std::vector<ChurnEvent> out;
  if (config.arrival_rate <= 0.0) {
    return out;
  }
  Rng rng(seed);
  Time t = config.start;
  for (;;) {
    // Session starts form a Poisson stream, like the merged event process.
    const double u = rng.next_double();
    t += -std::log1p(-u) / config.arrival_rate;
    if (!(t < config.horizon)) {
      break;
    }
    out.push_back(ChurnEvent{t, ChurnEventKind::kJoin});
    // Inverse-transform sample of the session lifetime.
    const double v = rng.next_double();
    const double lifetime =
        config.scale * std::pow(1.0 - v, -1.0 / config.shape);
    const Time end = t + lifetime;
    // Keep the RNG stream independent of whether the departure lands inside
    // the horizon: the crash draw always happens.
    const bool crash = rng.next_double() < config.crash_fraction;
    if (end < config.horizon) {
      out.push_back(ChurnEvent{end, crash ? ChurnEventKind::kCrash
                                          : ChurnEventKind::kLeave});
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const ChurnEvent& a, const ChurnEvent& b) {
                     return a.at < b.at;
                   });
  return out;
}

}  // namespace armada::sim
