// Scale trajectory: how far the overlay machinery goes on one core.
//
// One FISSIONE network is grown through the tier sizes (10k -> 100k -> 1M
// peers at full scale) along a single join trajectory — each tier is a
// snapshot of the same growth path, built with the non-routing join
// placement (FissioneNetwork::grow_snapshot, bit-identical structure to
// build()). Per tier, two throughput measurements and the memory they
// leave:
//
//   - construction: incremental grow time, joins/second;
//   - routing: exact-match shift routes from random issuers to uniform
//     ObjectIDs (workload RNG separate from the network's stream, so the
//     trajectory stays the canonical build-path overlay), the median of
//     kRepeats timed repeats. One pass over the 2,000 routes takes about
//     2 ms at 10k peers and 25 ms at 1M, too short for one timing to mean
//     anything, so each repeat reruns the pass until it has run for
//     kRepeatSeconds (scaled by ARMADA_BENCH_SCALE);
//   - memory: the process's peak resident set after the tier (getrusage's
//     ru_maxrss), which the growth path can only raise;
//   - shape: the longest PeerID and the largest out- and in-degree, which
//     the neighborhood invariant bounds at 4 and 2 (the inline lists of a
//     peer's record).
//
// Once per run, network-free: event dispatch, the simulation kernel's hot
// loop, under a self-rescheduling event population; also the median of
// kRepeats runs.
//
// The committed BENCH_scale.json at the repo root is this bench's
// ARMADA_BENCH_JSON output at full scale; CI re-runs the bench at smoke
// scale and validates both feeds (see "Scaling & performance" in README.md).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "kautz/kautz_space.h"
#include "sim/event_queue.h"
#include "util/rng.h"

namespace armada::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Timed repeats behind every wall-clock throughput this bench reports.
constexpr int kRepeats = 5;
/// Least wall time of one routing repeat at full scale.
constexpr double kRepeatSeconds = 0.1;

/// Peak resident set of this process so far, in MB (Linux reports KiB).
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct Tier {
  const char* name;  ///< stable series key, independent of ARMADA_BENCH_SCALE
  std::size_t full_peers;
};

constexpr Tier kTiers[] = {
    {"tier10k", 10'000},
    {"tier100k", 100'000},
    {"tier1m", 1'000'000},
};

/// Routing throughput at the current size: `routes` exact-match walks from
/// random issuers to uniform random ObjectIDs. The workload draws from its
/// own RNG so the network's join stream is untouched between tiers.
struct RouteSample {
  double routes_per_second = 0.0;  ///< median over kRepeats repeats
  double hops_mean = 0.0;
  int passes = 0;  ///< passes over the routes, summed over the repeats
};

RouteSample sample_routes(const fissione::FissioneNetwork& net, Rng& rng,
                          int routes) {
  const auto& alive = net.alive_peers();
  // Draw the whole workload first so the timed section is routing only.
  std::vector<std::pair<fissione::PeerId, kautz::KautzString>> work;
  work.reserve(static_cast<std::size_t>(routes));
  for (int i = 0; i < routes; ++i) {
    work.emplace_back(
        alive[rng.next_index(alive.size())],
        kautz::random_string(rng, fissione::FissioneNetwork::kObjectIdLength));
  }
  // route() is const: every pass walks the same paths.
  const double budget = kRepeatSeconds * scale();
  std::uint64_t hops = 0;
  std::vector<double> rates;
  RouteSample s;
  for (int r = 0; r < kRepeats; ++r) {
    int passes = 0;
    double secs = 0.0;
    const Clock::time_point t0 = Clock::now();
    do {
      hops = 0;
      for (const auto& [issuer, oid] : work) {
        hops += net.route(issuer, oid).hops;
      }
      ++passes;
      secs = seconds_since(t0);
    } while (secs < budget);
    s.passes += passes;
    rates.push_back(static_cast<double>(routes) * passes / secs);
  }
  s.routes_per_second = median(std::move(rates));
  s.hops_mean = static_cast<double>(hops) / static_cast<double>(routes);
  return s;
}

/// One run's dispatch throughput: a fixed population of self-rescheduling
/// events with mixed delays (uniform jitter plus an equal-time burst
/// component) dispatched `target` times.
double sample_events_per_second(std::uint64_t target, std::uint64_t seed) {
  sim::Simulator sim;
  Rng rng(seed);
  constexpr int kPopulation = 1024;
  std::uint64_t remaining = target;
  // One shared tick closure: reschedules itself until the budget is spent.
  struct Tick {
    sim::Simulator* sim;
    Rng* rng;
    std::uint64_t* remaining;
    void operator()() const {
      if (*remaining == 0) {
        return;
      }
      --*remaining;
      // 1-in-8 events land on the current instant (equal-time batch work,
      // the FRT fan-out shape); the rest spread over a unit window.
      const double delay =
          (*remaining % 8 == 0) ? 0.0 : rng->next_double(0.0, 1.0);
      sim->schedule_after(delay, Tick{sim, rng, remaining});
    }
  };
  for (int i = 0; i < kPopulation; ++i) {
    sim.schedule_after(rng.next_double(0.0, 1.0),
                       Tick{&sim, &rng, &remaining});
  }
  const Clock::time_point t0 = Clock::now();
  sim.run();
  const double secs = seconds_since(t0);
  return static_cast<double>(sim.events_processed()) / secs;
}

int run() {
  constexpr std::uint64_t kSeed = 0x5ca1eull;
  fissione::FissioneNetwork net(fissione::FissioneNetwork::Config{}, kSeed);
  Rng workload_rng(kSeed ^ 0x9e3779b97f4a7c15ull);

  Table table({"tier", "peers", "grow_s", "joins/s", "routes/s", "hops",
               "max_id_len", "max_out", "max_in", "rss_mb"});
  double build_total = 0.0;
  for (const Tier& tier : kTiers) {
    const std::size_t n = scaled(tier.full_peers, 64);
    const std::size_t before = net.num_peers();
    if (n <= before) {
      continue;  // degenerate scale collapsed two tiers onto one size
    }
    const Clock::time_point t0 = Clock::now();
    net.grow_snapshot(n);
    const double grow_seconds = seconds_since(t0);
    build_total += grow_seconds;
    const double joins_per_second =
        static_cast<double>(n - before) / grow_seconds;

    const int routes = scaled_queries(2000);
    const RouteSample rs = sample_routes(net, workload_rng, routes);

    std::size_t max_id_len = 0;
    std::size_t max_out = 0;
    std::size_t max_in = 0;
    for (fissione::PeerId p : net.alive_peers()) {
      max_id_len = std::max(max_id_len, net.peer_id(p).length());
      max_out = std::max(max_out, net.out_neighbors(p).size());
      max_in = std::max(max_in, net.in_neighbors(p).size());
    }
    const double rss_mb = peak_rss_mb();

    table.add_row({tier.name, Table::cell(static_cast<std::uint64_t>(n)),
                   Table::cell(grow_seconds, 3),
                   Table::cell(joins_per_second, 0),
                   Table::cell(rs.routes_per_second, 0),
                   Table::cell(rs.hops_mean, 2),
                   Table::cell(static_cast<std::uint64_t>(max_id_len)),
                   Table::cell(static_cast<std::uint64_t>(max_out)),
                   Table::cell(static_cast<std::uint64_t>(max_in)),
                   Table::cell(rss_mb, 1)});

    JsonSink::instance().record(
        "scale", std::string("fissione/") + tier.name,
        {{"peers", static_cast<double>(n)},
         {"routes", static_cast<double>(routes)},
         {"repeats", static_cast<double>(kRepeats)},
         {"passes", static_cast<double>(rs.passes)}},
        {{"build_seconds", grow_seconds},
         {"build_seconds_total", build_total},
         {"joins_per_second", joins_per_second},
         {"routes_per_second", rs.routes_per_second},
         {"route_hops_mean", rs.hops_mean},
         {"max_peer_id_len", static_cast<double>(max_id_len)},
         {"max_out_degree", static_cast<double>(max_out)},
         {"max_in_degree", static_cast<double>(max_in)},
         {"peak_rss_mb", rss_mb}});
  }
  print_tables("Scale trajectory (one growth path, snapshot construction)",
               table);

  const auto event_target =
      static_cast<std::uint64_t>(scaled(2'000'000, 50'000));
  std::vector<double> dispatch_rates;
  for (int r = 0; r < kRepeats; ++r) {
    dispatch_rates.push_back(sample_events_per_second(event_target, kSeed));
  }
  const double events_per_second = median(std::move(dispatch_rates));
  Table dispatch({"events", "events/s"});
  dispatch.add_row({Table::cell(event_target),
                    Table::cell(events_per_second, 0)});
  print_tables("Event dispatch (network-free, median of " +
                   std::to_string(kRepeats) + " runs)",
               dispatch);
  JsonSink::instance().record(
      "scale", "sim/dispatch",
      {{"events", static_cast<double>(event_target)},
       {"repeats", static_cast<double>(kRepeats)}},
      {{"events_per_second", events_per_second}});
  return 0;
}

}  // namespace
}  // namespace armada::bench

int main() { return armada::bench::run(); }
