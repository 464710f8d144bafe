// Simulator-driven periodic metrics sampling: snapshots a Registry into
// a time series during a run.
//
// Tick events are pre-scheduled over a fixed [start, horizon] window —
// the sampler never re-schedules itself, so it cannot keep a simulation
// alive past its natural quiescence, and ticks placed inside the
// workload's own span never extend sim.now() (keeping goodput math of
// traced and untraced runs identical). The collect callback only *reads*
// simulation state (congestion counters, backlog probes, stats structs)
// and publishes it into the registry; it must not mutate the simulation.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/registry.h"
#include "sim/event_queue.h"

namespace armada::obs {

class Sampler {
 public:
  using Collect = std::function<void(Registry&)>;

  /// One snapshot: every instrument's value at time t, in name order.
  struct Sample {
    sim::Time t = 0.0;
    std::vector<std::pair<std::string, double>> values;
  };

  /// `registry` and the sampler itself must outlive the simulation run.
  Sampler(Registry& registry, Collect collect)
      : registry_(registry), collect_(std::move(collect)) {}

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Pre-schedules ticks at start, start+interval, ... up to and
  /// including horizon. Call before (or during) the run; events land on
  /// the caller's simulator.
  void schedule(sim::Simulator& sim, sim::Time start, sim::Time horizon,
                sim::Time interval);

  /// Takes one snapshot immediately (also what scheduled ticks call).
  void tick(sim::Time now);

  const std::vector<Sample>& samples() const { return samples_; }

  /// One JSON object per sample:
  /// {"schema":1,"kind":"sample","series":...,"t":...,"values":{...}}.
  std::string jsonl(std::string_view series) const;

 private:
  Registry& registry_;
  Collect collect_;
  std::vector<Sample> samples_;
};

}  // namespace armada::obs
