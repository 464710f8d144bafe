// Measurement plumbing shared by the benchmark's workloads: the wall clock,
// sample summaries, the run report (metrics + correctness checks) and the
// benchmark-side span log of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Nearest-rank quantile of `v` (copied: selection reorders). q in (0, 1].
/// Returns 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// A fixed piece of work that shares no code with the system under test:
/// sorting small arrays of generated keys, all of it in the L1 cache and
/// none of it touching the heap, so neither the workload's cache footprint
/// nor its allocator state moves it. The shared host this runs on switches
/// between speed states, for seconds to minutes, that change the
/// workloads' wall times by up to 1.6x; slices of this work move with
/// them (per-block correlation of log rate with log slice time -0.8 on
/// point_100k, slope -1.1). Slices run between the benchmark's timed
/// intervals, and every wall metric is scaled by the slowness they show.
class HostReference {
 public:
  /// Wall time of one slice on the host the scale is anchored to (a 4-vCPU
  /// x86-64 KVM guest in its slower, usual state). A scaled wall metric
  /// reads what it would on that host.
  static constexpr double kNominalSliceUs = 350.0;

  /// Runs one slice; returns its wall time in microseconds.
  double slice_us();
  /// Host slowness: a slice time over the nominal one (> 1: slower).
  static double slowness(double slice_us) { return slice_us / kNominalSliceUs; }

 private:
  std::uint64_t sink_ = 0;  ///< keeps the work observable
};

/// One timed operation of a closed loop.
struct OpTime {
  double busy_us = 0.0;   ///< wall time of the whole operation
  double query_us = -1.0;  ///< wall time of its query call; < 0: no query
};

/// A stretch of a run: the wall time it took, each of its queries' wall
/// times, and the median reference slice time measured amid it.
struct Block {
  double busy_s = 0.0;
  std::vector<double> query_us;
  double slice_us = HostReference::kNominalSliceUs;
};

/// Cuts a closed loop's operations into consecutive blocks of at least
/// `block_seconds` of busy wall time, running a reference slice between
/// operations after every `slice_every_seconds` of it.
class BlockRecorder {
 public:
  BlockRecorder(HostReference& reference, double block_seconds,
                double slice_every_seconds)
      : reference_(reference),
        block_seconds_(block_seconds),
        slice_every_seconds_(slice_every_seconds) {}

  void add(const OpTime& op);
  /// The blocks; a trailing partial block is kept only when none closed.
  std::vector<Block> finish();

 private:
  void close();

  HostReference& reference_;
  double block_seconds_;
  double slice_every_seconds_;
  double since_slice_s_ = 0.0;
  std::vector<double> slices_us_;  ///< of the open block
  Block open_;
  std::vector<Block> blocks_;
};

/// Wall-time summary of a run, each figure the median over its blocks.
/// Every block's figures are scaled to the nominal host speed by the
/// reference slices measured amid it (HostReference::slowness).
struct WallSummary {
  double queries_per_s = 0.0;
  double query_us_p50 = 0.0;
  double query_us_p99 = 0.0;
  double raw_queries_per_s = 0.0;  ///< the same, unscaled (diagnostics)
  double slowness = 0.0;           ///< median block slowness (diagnostics)
  std::size_t blocks = 0;          ///< blocks summarized (diagnostics)
};
WallSummary summarize_wall(const std::vector<Block>& blocks);

/// What one run prints: the correctness verdict, the operation counts and
/// the named metrics with their units.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }

  /// Record one correctness check; the first few failures are described
  /// on stderr, all of them are counted.
  void check(bool ok, const std::string& what);
  bool correct() const { return check_failures_ == 0; }
  std::uint64_t checks() const { return checks_; }

  /// The result object, one line of JSON.
  std::string json() const;

 private:
  std::uint64_t checks_ = 0;
  std::uint64_t check_failures_ = 0;
};

/// Benchmark-side spans of the traced run: each one wraps a call into a
/// module from outside, carrying the query (operation) it belongs to and
/// its parent span. Kept in memory and written out once, at exit.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  /// Opens a span now; returns its id (1-based).
  std::uint64_t begin(const char* name, std::uint64_t query,
                      std::uint64_t parent = 0);
  /// Closes span `id` now; returns its duration in microseconds.
  double end(std::uint64_t id);
  /// Records an already finished span (event-driven work whose start and
  /// end were stamped by callbacks); returns its id.
  std::uint64_t add(const char* name, std::uint64_t query,
                    std::uint64_t parent, Clock::time_point start,
                    Clock::time_point end);

  std::size_t size() const { return spans_.size(); }

  /// JSON Lines: {"id", "parent", "query", "name", "start_us", "end_us"}.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t query;
    const char* name;
    double start_us;
    double end_us;
  };
  double now_us() const { return us_between(origin_, Clock::now()); }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

}  // namespace perfbench
