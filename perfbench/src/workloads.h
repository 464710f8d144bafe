// The benchmark's workloads: Armada range queries over a FISSIONE overlay,
// each run in its own process (see main.cpp and run.py).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Wall time one run measures for.
  double seconds = 10.0;
  /// false: the end-to-end run; true: the traced run (per-layer metrics).
  bool trace = false;
  /// Overlay size and object count (100k each; smaller for smoke runs).
  std::size_t peers = 100'000;
  std::size_t objects = 100'000;
  /// Where the traced run writes its spans (JSON Lines); empty: nowhere.
  std::string spans_path;
};

/// Workload names, in the order BENCHMARK.json lists them.
std::vector<std::string> workload_names();

/// Runs `opt.workload` and fills `report`: the end-to-end metrics, or the
/// per-layer metrics when opt.trace. Returns false for an unknown name.
bool run_workload(const Options& opt, Report& report);

}  // namespace perfbench
