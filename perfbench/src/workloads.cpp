// The four workloads, their correctness checks, and the traced run.
//
// Every workload stands on a FISSIONE overlay built with build_snapshot and
// an ArmadaIndex over [0, 1000] holding uniform objects. Inputs (ranges,
// issuer draws, publishes, churn schedules) are drawn from the seed before
// any timing starts.
//
// Two kinds of numbers come out of a run, kept strictly apart:
//  * simulated metrics (hops, simulated latency, messages, coverage, load)
//    are computed over a fixed prefix of each workload's operations, so
//    they are a pure function of the seed and repeat bitwise;
//  * wall metrics (set-up time, throughput, per-query wall time) cover
//    every operation the run fits into --seconds. They are summarized as
//    medians over blocks of the run (open loop: windows of each pass), each
//    block scaled to the nominal host speed by reference slices run amid
//    it (HostReference), so the shared host's speed states do not move
//    them.
// Correctness checks run between timed intervals, never inside one.
#include "workloads.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <utility>

#include "armada/armada.h"
#include "armada/churn_harness.h"
#include "armada/frt_search.h"
#include "fissione/churn_driver.h"
#include "net/queueing.h"
#include "obs/trace.h"
#include "rebalance/rebalance.h"
#include "replica/replica_set.h"
#include "sim/churn.h"
#include "sim/workload.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace armada;
using fissione::PeerId;

constexpr double kDomainLo = 0.0;
constexpr double kDomainHi = 1000.0;
/// Zipf(1.0) popularity over this many equal slices of the domain.
constexpr std::size_t kZipfBins = 1000;
/// Set-ups per end-to-end run; setup_s is their median.
constexpr int kSetups = 3;
/// Busy wall time per block of the wall-time summary (see summarize_wall),
/// and between two reference slices inside a block.
constexpr double kBlockSeconds = 1.0;
constexpr double kSliceEverySeconds = 0.05;
/// Reference slices before and after each set-up, and the objects
/// published between two slices inside it.
constexpr int kSlicesAround = 8;
constexpr std::size_t kSliceEveryPublishes = 5000;
/// Every kCheckEvery-th query (and the first kCheckFirst) has its answer
/// compared against a global scan.
constexpr std::size_t kCheckEvery = 8;
constexpr std::size_t kCheckFirst = 32;

enum class Kind { kPoint, kWide, kCongested, kZipfRwChurn };

struct Spec {
  const char* name;
  Kind kind;
  double width;  ///< query range width
  /// Operations whose simulated outcome the end-to-end run reports, and
  /// the shorter prefix the traced run replays three times.
  std::size_t prefix;
  std::size_t traced_prefix;
  std::size_t pool;  ///< operations drawn before timing
};

// A stateless workload cycles through its pool; the stateful one
// (zipf_rw_churn_100k) stops when its pool is used up. The open loop's
// pass is its whole pool.
constexpr Spec kSpecs[] = {
    {"point_100k", Kind::kPoint, 0.01, 20000, 4000, 32768},
    {"wide_100k", Kind::kWide, 1.0, 3000, 400, 4096},
    {"congested_100k", Kind::kCongested, 0.01, 6000, 6000, 6000},
    {"zipf_rw_churn_100k", Kind::kZipfRwChurn, 1.0, 3000, 2000, 1u << 17},
};

// --- congested_100k --------------------------------------------------------
/// Simulated time between query injections.
constexpr double kInjectGap = 0.05;
/// One background kRepair delivery per this many queries.
constexpr std::size_t kRepairEvery = 4;
/// The end-to-end run cuts each pass into windows of this many injections,
/// the blocks of its wall summary, and runs one reference slice per
/// kSliceEveryInjections of them.
constexpr std::size_t kWindowInjections = 1000;
constexpr std::size_t kSliceEveryInjections = 25;

/// bench_congestion's closed-loop goodput config: strict priority, linear
/// backoff past 4 queued arrivals, admission refused at 12.
net::QueueingConfig congested_config() {
  net::QueueingConfig cfg;
  cfg.service_rate = 0.5;
  cfg.link_bandwidth = 1024.0;
  cfg.default_message_bytes = 256;
  cfg.coalesce_window = 0.05;
  cfg.scheduling = net::QueueingConfig::Scheduling::kStrict;
  cfg.flow.backoff_threshold = 4;
  cfg.flow.backoff = 0.5;
  cfg.flow.admission_limit = 12;
  return cfg;
}

// --- zipf_rw_churn_100k ----------------------------------------------------
/// One publish per this many operations (one per ten queries).
constexpr std::size_t kPublishEvery = 11;
/// Simulated time between consecutive operations (the churn clock).
constexpr double kOpSpacing = 1.0;

/// bench_load_balance's replication config at its full-scale threshold.
replica::ReplicationConfig replication_config() {
  replica::ReplicationConfig cfg;
  cfg.max_replicas = 8;
  cfg.region_prefix_len = 4;
  cfg.hot_threshold = 40.0;
  cfg.cool_threshold = cfg.hot_threshold / 8.0;
  cfg.cache_ttl = 64;
  return cfg;
}

/// bench_load_balance's rebalancing config.
rebalance::RebalanceConfig rebalance_config() {
  rebalance::RebalanceConfig cfg;
  cfg.trigger_load = 2.5;
  cfg.target_load = 1.25;
  cfg.sweep_interval = 8;
  cfg.cooldown = 32;
  cfg.max_inflight = 8;
  return cfg;
}

/// Operations per membership change.
constexpr std::size_t kChurnEvery = 100;

/// Low-rate membership change at a fixed cadence, one event per kChurnEvery
/// operations, cycling through five joins, four leaves and a crash. Every
/// event invalidates cached results, so a Poisson count of events would make
/// the work per query differ from seed to seed; the seed sets the phase.
std::vector<sim::ChurnEvent> churn_schedule(std::size_t ops,
                                            std::uint64_t seed) {
  using E = sim::ChurnEventKind;
  constexpr E kCycle[] = {E::kJoin,  E::kLeave, E::kJoin, E::kLeave,
                          E::kJoin,  E::kLeave, E::kJoin, E::kLeave,
                          E::kJoin,  E::kCrash};
  Rng rng(seed);
  // Between two operations, which run at whole multiples of kOpSpacing.
  const double phase = static_cast<double>(rng.next_index(kChurnEvery)) + 0.5;
  std::vector<sim::ChurnEvent> events;
  for (std::size_t k = 0; k * kChurnEvery < ops; ++k) {
    events.push_back({(phase + static_cast<double>(k * kChurnEvery)) *
                          kOpSpacing,
                      kCycle[k % std::size(kCycle)]});
  }
  return events;
}

// ---------------------------------------------------------------------------
// Inputs and the indexed overlay.
// ---------------------------------------------------------------------------

/// One pre-drawn operation.
struct Op {
  bool publish = false;
  double lo = 0.0;  ///< query lower bound, or the value to publish
  double hi = 0.0;
  /// Issuer draw: the issuer is alive_peers()[pick % size] at issue time,
  /// so draws stay valid while churn changes membership.
  std::uint64_t pick = 0;
};

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  return (seed + 1) * 0x9e3779b97f4a7c15ull ^ stream;
}

std::vector<Op> draw_ops(const Spec& spec, std::uint64_t seed) {
  std::vector<Op> ops(spec.pool);
  Rng picks(derive(seed, 1));
  for (Op& op : ops) {
    op.pick = picks.engine()();
  }
  if (spec.kind == Kind::kPoint || spec.kind == Kind::kWide) {
    sim::RangeWorkload ranges({kDomainLo, kDomainHi}, spec.width,
                              Rng(derive(seed, 2)));
    for (Op& op : ops) {
      const sim::RangeQuery q = ranges.next();
      op.lo = q.lo;
      op.hi = q.hi;
    }
    return ops;
  }
  // Zipf-hot quantized ranges: a query starts at its bin's lower edge, so
  // repeats of a bin are the same query (what result caches key on).
  sim::ZipfValues zipf({kDomainLo, kDomainHi}, kZipfBins, 1.0,
                       Rng(derive(seed, 3)));
  Rng values(derive(seed, 4));
  const double bin_width = (kDomainHi - kDomainLo) / kZipfBins;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    Op& op = ops[i];
    if (spec.kind == Kind::kZipfRwChurn && i % kPublishEvery ==
                                               kPublishEvery - 1) {
      op.publish = true;
      op.lo = values.next_double(kDomainLo, kDomainHi);
      continue;
    }
    const auto bin = std::min(
        kZipfBins - 1,
        static_cast<std::size_t>((zipf.next() - kDomainLo) / bin_width));
    op.lo = kDomainLo + static_cast<double>(bin) * bin_width;
    op.hi = op.lo + spec.width;
  }
  return ops;
}

/// The overlay is the benchmark's fixture, the same in every run; the
/// seed draws what runs on it (objects, queries, publishes, churn). Hot
/// spots then land on the same peers for every seed, which keeps the
/// congestion-driven metrics comparable from seed to seed.
constexpr std::uint64_t kOverlaySeed = 20060704;

/// The indexed overlay. Held by pointer: the index refers into the network.
struct World {
  World(std::size_t peers, std::uint64_t seed)
      : net(fissione::FissioneNetwork::build_snapshot(
            peers, seed, fissione::FissioneNetwork::Config{})),
        index(core::ArmadaIndex::single(net, {kDomainLo, kDomainHi})) {}

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  fissione::FissioneNetwork net;
  core::ArmadaIndex index;
  fissione::ServiceLoadMap load;
  std::size_t published = 0;
};

/// Wall time of the parts of one set-up.
struct SetupTimes {
  double build_s = 0.0;
  double publish_s = 0.0;
  double total_s = 0.0;  ///< reference slices left out
  std::vector<double> slice_us;  ///< reference slices run amid the publishes
  double slices_s() const {
    double s = 0.0;
    for (const double us : slice_us) {
      s += us * 1e-6;
    }
    return s;
  }
};

/// With `reference`, a slice of it runs after every kSliceEveryPublishes
/// objects, outside publish_s.
std::unique_ptr<World> build_world(const Options& opt, SetupTimes& times,
                                   HostReference* reference) {
  const Clock::time_point t0 = Clock::now();
  auto world = std::make_unique<World>(opt.peers, kOverlaySeed);
  const Clock::time_point t1 = Clock::now();
  Rng values(derive(opt.seed, 5));
  for (std::size_t i = 0; i < opt.objects; ++i) {
    world->index.publish(values.next_double(kDomainLo, kDomainHi));
    if (reference != nullptr && i % kSliceEveryPublishes ==
                                    kSliceEveryPublishes - 1) {
      times.slice_us.push_back(reference->slice_us());
    }
  }
  world->published = opt.objects;
  times.build_s = seconds_between(t0, t1);
  times.publish_s = seconds_between(t1, Clock::now()) - times.slices_s();
  return world;
}

double max_load(const fissione::ServiceLoadMap& load) {
  std::uint64_t m = 0;
  for (const auto& [peer, count] : load) {
    m = std::max(m, count);
  }
  return static_cast<double>(m);
}

/// Is `handle` stored in the overlay right now (natively or delegated)?
bool stored(const World& w, std::uint64_t handle) {
  const kautz::KautzString id =
      w.index.naming_tree().multiple_hash(w.index.attributes(handle));
  bool found = false;
  w.net.for_each_owned(w.net.owner_of(id),
                       [&](const fissione::StoredObject& obj) {
                         found = found || obj.payload == handle;
                       });
  return found;
}

std::vector<std::uint64_t> sorted(std::vector<std::uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// ---------------------------------------------------------------------------
// Simulated outcome of a workload's fixed prefix.
// ---------------------------------------------------------------------------

/// Module counters at the end of the prefix (all zero where a module is off).
struct Modules {
  replica::ReplicaStats replica;
  std::array<std::uint64_t, 8> rebalance{};  ///< RebalanceStats, in order
  sim::ChurnStats churn;
  net::CongestionStats congestion;

  friend bool operator==(const Modules&, const Modules&) = default;
};

std::array<std::uint64_t, 8> flatten(const rebalance::RebalanceStats& s) {
  return {s.sweeps,           s.migrations_started, s.migrations_completed,
          s.migrations_cancelled, s.objects_migrated, s.rehosted,
          s.cutover_messages, s.bytes_on_wire};
}

struct SimOutcome {
  std::vector<sim::QueryStats> stats;  ///< per query, in issue order
  std::vector<double> latency;  ///< from each query's scheduled injection
  std::uint64_t complete = 0;   ///< fully answered, not failed or missed
  double served_time = 0.0;     ///< simulated time the coverage took
  double service_load_max = 0.0;
  std::uint64_t events = 0;  ///< simulator events (open loop only)
  Modules modules;

  friend bool operator==(const SimOutcome&, const SimOutcome&) = default;
};

void add_simulated_metrics(Report& r, const SimOutcome& s) {
  std::vector<double> delays;
  double delay_sum = 0.0;
  double messages = 0.0;
  double coverage = 0.0;
  for (const sim::QueryStats& q : s.stats) {
    delays.push_back(q.delay);
    delay_sum += q.delay;
    messages += static_cast<double>(q.messages);
    coverage += q.coverage;
  }
  const auto n = static_cast<double>(std::max<std::size_t>(1, s.stats.size()));
  r.add("delay_hops_mean", delay_sum / n, "hops");
  r.add("delay_hops_p99", quantile(delays, 0.99), "hops");
  r.add("latency_p50", quantile(s.latency, 0.5), "simtime");
  r.add("latency_p99", quantile(s.latency, 0.99), "simtime");
  r.add("messages_per_query", messages / n, "count");
  r.add("coverage_mean", coverage / n, "fraction");
  r.add("complete_fraction", static_cast<double>(s.complete) / n, "fraction");
  r.add("goodput", s.served_time > 0.0 ? coverage / s.served_time : 0.0,
        "coverage/simtime");
  r.add("service_load_max", s.service_load_max, "count");
}

// ---------------------------------------------------------------------------
// Closed loop: point_100k, wide_100k, zipf_rw_churn_100k.
// ---------------------------------------------------------------------------

/// One sync query's outcome, whichever wrapper answered it.
struct Outcome {
  sim::QueryStats stats;
  std::vector<std::uint64_t> matches;
  bool stale = false;
  bool failed = false;
  std::uint64_t detours = 0;
  std::uint64_t missed = 0;
};

class ClosedLoop {
 public:
  /// The whole set-up: overlay, objects, subsystems and inputs.
  ClosedLoop(const Spec& spec, const Options& opt,
             HostReference* reference = nullptr)
      : spec_(spec) {
    const Clock::time_point t0 = Clock::now();
    world_ = build_world(opt, times_, reference);
    World& w = *world_;
    w.net.set_service_load(&w.load);
    ops_ = draw_ops(spec, opt.seed);
    if (spec.kind == Kind::kZipfRwChurn) {
      // Subsystems come after the bulk publish, which would otherwise pay
      // replica bookkeeping per object.
      w.index.enable_replication(replication_config());
      w.index.enable_rebalancing(rebalance_config());
      sim_ = std::make_unique<sim::Simulator>();
      driver_ = std::make_unique<fissione::ChurnDriver>(w.net, *sim_);
      harness_ = std::make_unique<core::ChurnHarness>(w.index, *driver_);
      driver_->set_membership_hook([this] {
        world_->index.replicas()->on_membership(*sim_);
        world_->index.rebalancer()->on_membership(*sim_);
      });
      driver_->schedule(churn_schedule(ops_.size(), derive(opt.seed, 6)));
    }
    times_.total_s = seconds_between(t0, Clock::now()) - times_.slices_s();
  }

  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  const SetupTimes& times() const { return times_; }
  World& world() { return *world_; }
  const std::vector<Op>& ops() const { return ops_; }

  struct Run {
    SimOutcome sim;
    std::vector<OpTime> times;  ///< every operation, in issue order
    WallSummary wall;  ///< with a host reference only
    std::vector<double> publish_us;  ///< wall time of each publish
    double busy_s = 0.0;  ///< wall time spent inside operations
    std::uint64_t queries = 0;
    std::uint64_t failed = 0;
    std::uint64_t messages = 0;  ///< query messages over every operation
  };

  /// Issue operations one at a time: at least the first `prefix`, then
  /// more until `seconds` of wall time have passed. With `spans`, every
  /// operation is wrapped in a benchmark-side span; with `reference`, the
  /// run is cut into blocks for the wall summary.
  Run run(std::size_t prefix, double seconds, Report& report, SpanLog* spans,
          HostReference* reference = nullptr) {
    World& w = *world_;
    const bool stateful = spec_.kind == Kind::kZipfRwChurn;
    w.load.clear();  // service load covers this run only
    Run out;
    std::optional<BlockRecorder> blocks;
    if (reference != nullptr) {
      blocks.emplace(*reference, kBlockSeconds, kSliceEverySeconds);
    }
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0;; ++i) {
      const bool in_prefix = i < prefix;
      if (!in_prefix && seconds_between(start, Clock::now()) >= seconds) {
        break;
      }
      if (stateful && i >= ops_.size()) {
        break;  // pool used up; the run measured less than `seconds`
      }
      const Op& op = ops_[i % ops_.size()];
      const Clock::time_point t0 = Clock::now();
      const std::uint64_t root =
          spans ? spans->begin(op.publish ? "op.publish" : "op.query", i) : 0;
      if (driver_ != nullptr) {
        const std::uint64_t s = spans ? spans->begin("churn.advance", i, root)
                                      : 0;
        sim_->run_until(static_cast<double>(i) * kOpSpacing);
        if (spans) {
          spans->end(s);
        }
      }
      if (op.publish) {
        const std::uint64_t s =
            spans ? spans->begin("armada.publish", i, root) : 0;
        const Clock::time_point p0 = Clock::now();
        w.index.publish(op.lo);
        const Clock::time_point p1 = Clock::now();
        if (spans) {
          spans->end(s);
          spans->end(root);
        }
        const double busy_us = us_between(t0, Clock::now());
        ++w.published;
        out.busy_s += busy_us * 1e-6;
        out.times.push_back({busy_us, -1.0});
        out.publish_us.push_back(us_between(p0, p1));
      } else {
        const std::vector<PeerId>& alive = w.net.alive_peers();
        const PeerId issuer = alive[op.pick % alive.size()];
        const Clock::time_point q0 = Clock::now();
        const std::uint64_t s =
            spans ? spans->begin("armada.range_query", i, root) : 0;
        Outcome o = query(issuer, op);
        if (spans) {
          spans->end(s);
          spans->end(root);
        }
        const Clock::time_point q1 = Clock::now();
        const double busy_us = us_between(t0, q1);
        ++out.queries;
        out.busy_s += busy_us * 1e-6;
        out.times.push_back({busy_us, us_between(q0, q1)});
        out.messages += o.stats.messages;
        out.failed += o.failed ? 1 : 0;
        check_query(report, issuer, op, o, i);
        if (in_prefix) {
          out.sim.stats.push_back(o.stats);
          out.sim.latency.push_back(o.stats.latency);
          out.sim.served_time += o.stats.latency;
          const bool complete =
              o.stats.coverage == 1.0 && !o.failed && o.missed == 0;
          out.sim.complete += complete ? 1 : 0;
        } else if (!stateful && i - ops_.size() < prefix) {
          // A repeat of a prefix query on an unchanged overlay: its
          // simulated outcome must repeat bitwise.
          report.check(o.stats == out.sim.stats[i - ops_.size()],
                       "repeated query changed its simulated outcome");
        }
      }
      if (blocks) {
        blocks->add(out.times.back());
      }
      if (stateful && (i % 256 == 255 || i + 1 == prefix)) {
        check_conservation(report);
      }
      if (i + 1 == prefix) {
        snapshot_modules(out.sim);
      }
    }
    if (stateful) {
      check_conservation(report);
    }
    if (blocks) {
      out.wall = summarize_wall(blocks->finish());
    }
    return out;
  }

  /// Detach replication and rebalancing (disabled configs keep the plain
  /// PIRA path bitwise), so the layer probe times the bare query path.
  void disable_subsystems() {
    if (spec_.kind == Kind::kZipfRwChurn) {
      driver_->set_membership_hook({});
      world_->index.enable_replication(replica::ReplicationConfig{});
      world_->index.enable_rebalancing(rebalance::RebalanceConfig{});
    }
  }

 private:
  Outcome query(PeerId issuer, const Op& op) {
    Outcome o;
    if (harness_ != nullptr) {
      core::ChurnHarness::RangeOutcome r =
          harness_->range_query(issuer, op.lo, op.hi);
      o.stats = r.stats;
      o.matches = std::move(r.matches);
      o.stale = r.stale;
      o.failed = r.failed;
      o.detours = r.detours;
      o.missed = r.missed;
      return o;
    }
    core::RangeQueryResult r = world_->index.range_query(issuer, op.lo, op.hi);
    o.stats = r.stats;
    o.matches = std::move(r.matches);
    return o;
  }

  void check_query(Report& report, PeerId issuer, const Op& op,
                   const Outcome& o, std::size_t i) {
    World& w = *world_;
    // Stale-window detours are churn's surcharge on top of the walk; the
    // paper's bound is on the walk itself.
    const auto bound = static_cast<double>(w.net.peer(issuer).peer_id.length());
    report.check(o.stats.delay - static_cast<double>(o.detours) <= bound,
                 "query delay exceeded |PeerID(issuer)|");
    report.check(o.stats.coverage >= 0.0 && o.stats.coverage <= 1.0,
                 "coverage outside [0, 1]");
    if (i >= kCheckFirst && i % kCheckEvery != 0) {
      return;
    }
    std::vector<std::uint64_t> truth = w.index.scan_matches({{op.lo, op.hi}});
    if (driver_ != nullptr) {
      // Live truth: crashes drop objects for good.
      std::erase_if(truth, [&](std::uint64_t h) { return !stored(w, h); });
    }
    const std::vector<std::uint64_t> got = sorted(o.matches);
    if (o.stats.coverage == 1.0 && !o.stale && !o.failed) {
      report.check(got == truth, "answer differs from the global scan");
    } else {
      report.check(std::includes(truth.begin(), truth.end(), got.begin(),
                                 got.end()),
                   "answer holds objects outside the live truth");
    }
  }

  void check_conservation(Report& report) {
    const World& w = *world_;
    const std::uint64_t dropped =
        driver_ != nullptr ? driver_->stats().objects_dropped : 0;
    report.check(w.net.total_objects() + dropped == w.published,
                 "objects were created or lost outside a crash");
  }

  void snapshot_modules(SimOutcome& s) const {
    const World& w = *world_;
    s.service_load_max = max_load(w.load);
    if (w.index.replicas() != nullptr) {
      s.modules.replica = w.index.replicas()->stats();
    }
    if (w.index.rebalancer() != nullptr) {
      s.modules.rebalance = flatten(w.index.rebalancer()->stats());
    }
    if (driver_ != nullptr) {
      s.modules.churn = driver_->stats();
    }
  }

  const Spec& spec_;
  SetupTimes times_;
  std::unique_ptr<World> world_;
  std::vector<Op> ops_;
  // zipf_rw_churn_100k only; declared after the world they drive.
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<fissione::ChurnDriver> driver_;
  std::unique_ptr<core::ChurnHarness> harness_;
};

// ---------------------------------------------------------------------------
// Open loop: congested_100k.
// ---------------------------------------------------------------------------

class OpenLoop {
 public:
  OpenLoop(const Spec& spec, const Options& opt,
           HostReference* reference = nullptr) {
    const Clock::time_point t0 = Clock::now();
    world_ = build_world(opt, times_, reference);
    ops_ = draw_ops(spec, opt.seed);
    const std::vector<PeerId>& alive = world_->net.alive_peers();
    Rng rng(derive(opt.seed, 7));
    for (std::size_t j = 0; j * kRepairEvery < ops_.size(); ++j) {
      const PeerId a = alive[rng.next_index(alive.size())];
      PeerId b = a;
      while (b == a) {
        b = alive[rng.next_index(alive.size())];
      }
      repairs_.emplace_back(a, b);
    }
    times_.total_s = seconds_between(t0, Clock::now()) - times_.slices_s();
  }

  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  const SetupTimes& times() const { return times_; }
  World& world() { return *world_; }
  const std::vector<Op>& ops() const { return ops_; }

  struct Pass {
    SimOutcome sim;
    std::vector<std::vector<std::uint64_t>> matches;
    std::vector<Clock::time_point> injected;  ///< wall instant per query
    std::vector<Clock::time_point> done;
    /// Wall time per query, injection to completion, reference slices left
    /// out.
    std::vector<double> query_us;
    double wall_s = 0.0;  ///< reference slices left out
    double run_s = 0.0;  ///< inside Simulator::run
    /// With a reference: the pass cut into windows of kWindowInjections,
    /// each from one injection to the first of the next window. Queries
    /// injected after the last full window, and the drain, are left out.
    std::vector<Block> windows;
    std::uint64_t completions = 0;
  };

  /// One deterministic pass: fresh queueing network and simulator, every
  /// query injected at i * kInjectGap, run until the network drains. With
  /// `reference`, a slice of it runs between events after every
  /// kSliceEveryInjections injections; slices touch no simulated state.
  Pass run_pass(HostReference* reference = nullptr) {
    World& w = *world_;
    fissione::FissioneNetwork& net = w.net;
    const std::size_t n = ops_.size();
    Pass p;
    p.sim.stats.resize(n);
    p.sim.latency.resize(n);
    p.matches.resize(n);
    p.injected.resize(n);
    p.done.resize(n);
    p.query_us.resize(n);
    std::vector<double> slices_before(n);  // reference time before injection
    std::vector<double> slices_us;
    double slices_total_us = 0.0;
    w.load.clear();
    net.set_service_load(&w.load);
    net.install_queueing(congested_config());
    net::Transport& transport = net.transport();
    sim::Simulator sim;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const double at = static_cast<double>(i) * kInjectGap;
      sim.schedule_at(at, [&, i, at] {
        const Op& op = ops_[i];
        const std::vector<PeerId>& alive = net.alive_peers();
        p.injected[i] = Clock::now();
        slices_before[i] = slices_total_us;
        w.index.range_query_async(
            sim, alive[op.pick % alive.size()], op.lo, op.hi,
            [&, i, at](core::RangeQueryResult r) {
              p.done[i] = Clock::now();
              p.query_us[i] = us_between(p.injected[i], p.done[i]) -
                              (slices_total_us - slices_before[i]);
              p.sim.latency[i] = sim.now() - at;
              p.sim.stats[i] = r.stats;
              p.matches[i] = std::move(r.matches);
              ++p.completions;
            });
      });
    }
    for (std::size_t j = 0; j < repairs_.size(); ++j) {
      const double at =
          (static_cast<double>(j * kRepairEvery) + 0.5) * kInjectGap;
      sim.schedule_at(at, [&, j] {
        transport.deliver(sim, repairs_[j].first, repairs_[j].second,
                          transport.default_message_bytes(), {}, 0.0,
                          net::TrafficClass::kRepair);
      });
    }
    if (reference != nullptr) {
      for (std::size_t i = 0; i < n; i += kSliceEveryInjections) {
        const double at = (static_cast<double>(i) + 0.25) * kInjectGap;
        sim.schedule_at(at, [&] {
          const double us = reference->slice_us();
          slices_us.push_back(us);
          slices_total_us += us;
        });
      }
    }
    const Clock::time_point r0 = Clock::now();
    sim.run();
    const Clock::time_point t1 = Clock::now();
    p.wall_s = seconds_between(t0, t1) - slices_total_us * 1e-6;
    p.run_s = seconds_between(r0, t1) - slices_total_us * 1e-6;
    p.sim.events = sim.events_processed() - slices_us.size();
    for (std::size_t a = 0; reference != nullptr && a + kWindowInjections < n;
         a += kWindowInjections) {
      const std::size_t b = a + kWindowInjections;
      Block& window = p.windows.emplace_back();
      window.busy_s = (us_between(p.injected[a], p.injected[b]) -
                       (slices_before[b] - slices_before[a])) *
                      1e-6;
      window.query_us.assign(p.query_us.begin() + a, p.query_us.begin() + b);
      window.slice_us = median(
          {slices_us.begin() + a / kSliceEveryInjections,
           slices_us.begin() + b / kSliceEveryInjections});
    }
    p.sim.served_time = sim.now();
    p.sim.service_load_max = max_load(w.load);
    p.sim.modules.congestion = net.congestion();
    for (const sim::QueryStats& q : p.sim.stats) {
      p.sim.complete += q.coverage == 1.0 ? 1 : 0;
    }
    net.uninstall_queueing();
    return p;
  }

  /// The checks of one pass, outside its timed interval.
  void check_pass(Report& report, const Pass& p) const {
    const World& w = *world_;
    report.check(p.completions == ops_.size(),
                 "a query did not complete exactly once");
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const Op& op = ops_[i];
      const sim::QueryStats& q = p.sim.stats[i];
      const std::vector<PeerId>& alive = w.net.alive_peers();
      const auto bound = static_cast<double>(
          w.net.peer(alive[op.pick % alive.size()]).peer_id.length());
      report.check(q.delay <= bound, "query delay exceeded |PeerID(issuer)|");
      report.check(q.coverage >= 0.0 && q.coverage <= 1.0,
                   "coverage outside [0, 1]");
      if (i >= kCheckFirst && i % kCheckEvery != 0) {
        continue;
      }
      const std::vector<std::uint64_t> truth =
          w.index.scan_matches({{op.lo, op.hi}});
      const std::vector<std::uint64_t> got = sorted(p.matches[i]);
      if (q.coverage == 1.0) {
        report.check(got == truth, "answer differs from the global scan");
      } else {
        report.check(std::includes(truth.begin(), truth.end(), got.begin(),
                                   got.end()),
                     "shed answer holds objects outside the truth");
      }
    }
  }

 private:
  SetupTimes times_;
  std::unique_ptr<World> world_;
  std::vector<Op> ops_;
  std::vector<std::pair<PeerId, PeerId>> repairs_;
};

// ---------------------------------------------------------------------------
// Layer probe (traced run): the PIRA pipeline taken apart from outside.
// ---------------------------------------------------------------------------

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Probe {
  std::vector<double> region_us;
  std::vector<double> split_us;
  std::vector<double> frt_us;
  std::vector<double> facade_overhead_us;
  std::vector<double> trace_ratio;  ///< untraced / traced facade wall time
  std::vector<double> trace_overhead_us;  ///< traced - untraced facade
  double frt_total_us = 0.0;
  double sim_run_us = 0.0;
  double route_us = 0.0;
  std::uint64_t frt_messages = 0;
  std::uint64_t dest_peers = 0;
  std::uint64_t events = 0;
  std::uint64_t hops = 0;
  std::uint64_t queries = 0;
};

/// For each query: a warm-up facade call (untimed), then region_for, the
/// common-prefix split and the FRT search on a benchmark-owned simulator
/// (FrtSearch::run_async + Simulator::run), an exact-match route to the
/// region's lower ObjectID, and the facade (ArmadaIndex::range_query) with
/// and without `recorder` attached — each inside its own span under one
/// root per query. The reconstructed search and the traced facade must
/// answer exactly like the facade.
Probe probe_layers(World& w, const std::vector<Op>& ops, double seconds,
                   std::uint64_t query_base,
                   const std::shared_ptr<obs::TraceRecorder>& recorder,
                   SpanLog& spans, Report& report) {
  Probe p;
  sim::Simulator sim;
  const core::FrtSearch search(w.net);
  const kautz::PartitionTree& tree = w.index.naming_tree();
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (p.queries >= 8 && seconds_between(start, Clock::now()) >= seconds) {
      break;
    }
    const Op& op = ops[i];
    if (op.publish) {
      continue;
    }
    const std::vector<PeerId>& alive = w.net.alive_peers();
    const PeerId issuer = alive[op.pick % alive.size()];
    const std::uint64_t q = query_base + i;
    (void)w.index.range_query(issuer, op.lo, op.hi);  // warm-up

    const std::uint64_t root = spans.begin("probe", q);
    double region_us = 0.0;
    double split_us = 0.0;
    double frt_us = 0.0;
    core::RangeQueryResult frt;
    const std::uint64_t events_before = sim.events_processed();
    std::optional<kautz::KautzRegion> region;
    // The query taken apart: naming, split, FRT on the benchmark's own
    // simulator.
    auto pieces = [&] {
      std::uint64_t s = spans.begin("kautz.region_for", q, root);
      region = tree.region_for(op.lo, op.hi);
      region_us = spans.end(s);
      s = spans.begin("kautz.split", q, root);
      std::vector<kautz::KautzRegion> subs = region->split_common_prefix();
      split_us = spans.end(s);

      const std::uint64_t frt_span = spans.begin("armada.frt_search", q, root);
      std::vector<core::FrtSearchClass> classes;
      classes.reserve(subs.size());
      for (kautz::KautzRegion& sub : subs) {
        core::FrtSearchClass cls;
        cls.com_t = sub.common_prefix();
        cls.viable = [sub = std::move(sub)](const kautz::KautzString& aligned) {
          return sub.intersects_prefix(aligned);
        };
        classes.push_back(std::move(cls));
      }
      search.run_async(
          sim, issuer, std::move(classes),
          [&w, &region, &op](PeerId, const fissione::StoreView& view,
                             core::RangeQueryResult& out) {
            view.for_each([&](const fissione::StoredObject& obj) {
              const double v = w.index.attributes(obj.payload)[0];
              if (region->contains(obj.object_id) && v >= op.lo &&
                  v <= op.hi) {
                out.matches.push_back(obj.payload);
                ++out.stats.results;
              }
            });
          },
          [&frt](core::RangeQueryResult r) { frt = std::move(r); });
      const std::uint64_t run_span = spans.begin("sim.run", q, frt_span);
      sim.run();
      p.sim_run_us += spans.end(run_span);
      frt_us = spans.end(frt_span);
    };
    // The same query through the facade.
    double facade_us = 0.0;
    core::RangeQueryResult facade;
    auto whole = [&] {
      const std::uint64_t s = spans.begin("armada.range_query", q, root);
      facade = w.index.range_query(issuer, op.lo, op.hi);
      facade_us = spans.end(s);
    };
    // The facade with a recorder attached. Paired with the untraced call
    // query by query, so a change in machine speed between two passes does
    // not enter the tracing overhead.
    double traced_us = 0.0;
    core::RangeQueryResult traced;
    auto whole_traced = [&] {
      w.net.transport().attach_trace(recorder);
      const std::uint64_t s = spans.begin("armada.range_query.traced", q, root);
      traced = w.index.range_query(issuer, op.lo, op.hi);
      traced_us = spans.end(s);
      w.net.transport().detach_trace();
    };
    // Alternate the order, so cache warmth favours neither side of the
    // facade-overhead and tracing-overhead differences.
    if (p.queries % 2 == 0) {
      pieces();
      whole();
      whole_traced();
    } else {
      whole_traced();
      whole();
      pieces();
    }
    const std::uint64_t s = spans.begin("fissione.route", q, root);
    const fissione::RouteResult route = w.net.route(issuer, region->lo());
    p.route_us += spans.end(s);
    spans.end(root);

    report.check(sorted(frt.matches) == sorted(facade.matches) &&
                     frt.stats.messages == facade.stats.messages &&
                     frt.stats.delay == facade.stats.delay &&
                     frt.stats.dest_peers == facade.stats.dest_peers,
                 "reconstructed PIRA search differs from the facade");
    report.check(traced.matches == facade.matches &&
                     traced.stats == facade.stats,
                 "an attached trace recorder changed a query's outcome");
    p.trace_ratio.push_back(ratio(facade_us, traced_us));
    p.trace_overhead_us.push_back(traced_us - facade_us);
    p.region_us.push_back(region_us);
    p.split_us.push_back(split_us);
    p.frt_us.push_back(frt_us);
    p.facade_overhead_us.push_back(facade_us - region_us - split_us - frt_us);
    p.frt_total_us += frt_us;
    p.frt_messages += frt.stats.messages;
    p.dest_peers += frt.stats.dest_peers;
    p.events += sim.events_processed() - events_before;
    p.hops += route.hops;
    ++p.queries;
  }
  return p;
}

/// The per-layer metrics, in BENCHMARK.json order. `sim_us_per_event` and
/// `events_per_query` come from whichever simulator carries the workload's
/// queries (see metric_map.json).
struct LayerInputs {
  SetupTimes setup;
  std::size_t objects = 0;
  const Probe* probe = nullptr;
  const SimOutcome* untraced = nullptr;
  /// Wall time of each publish between queries (zipf_rw_churn_100k).
  const std::vector<double>* publish_us = nullptr;
  double events_per_query = 0.0;
  double sim_us_per_event = 0.0;
  double wall_us_per_message = 0.0;
  double elapsed = 0.0;  ///< simulated span of the open-loop pass
  std::size_t peers = 0;
};

void add_layer_metrics(Report& r, const LayerInputs& in) {
  const Probe& p = *in.probe;
  const Modules& m = in.untraced->modules;
  r.add("kautz.region_for_us", median(p.region_us), "us");
  r.add("kautz.split_us", median(p.split_us), "us");
  r.add("fissione.build_s", in.setup.build_s, "s");
  r.add("fissione.route_us_per_hop",
        ratio(p.route_us, static_cast<double>(p.hops)), "us");
  r.add("armada.publish_us",
        ratio(in.setup.publish_s * 1e6, static_cast<double>(in.objects)), "us");
  r.add("armada.publish_live_us",
        in.publish_us != nullptr ? median(*in.publish_us) : 0.0, "us");
  r.add("armada.frt_search_us_p50", median(p.frt_us), "us");
  r.add("armada.frt_us_per_message",
        ratio(p.frt_total_us, static_cast<double>(p.frt_messages)), "us");
  r.add("armada.facade_overhead_us", median(p.facade_overhead_us), "us");
  r.add("armada.dest_peers_per_query",
        ratio(static_cast<double>(p.dest_peers), static_cast<double>(p.queries)),
        "count");
  r.add("sim.events_per_query", in.events_per_query, "count");
  r.add("sim.run_us_per_event", in.sim_us_per_event, "us");

  const net::CongestionStats& c = m.congestion;
  r.add("net.query_queue_delay_mean",
        c.class_queue_delay_mean(net::TrafficClass::kQuery), "simtime");
  r.add("net.repair_queue_delay_mean",
        c.class_queue_delay_mean(net::TrafficClass::kRepair), "simtime");
  r.add("net.shed_messages", static_cast<double>(c.shed_messages), "count");
  r.add("net.hedges_won_ratio",
        ratio(static_cast<double>(c.hedges_won),
              static_cast<double>(c.hedges_launched)),
        "ratio");
  r.add("net.batch_occupancy_mean", c.messages == 0 ? 0.0
                                                    : c.batch_occupancy_mean(),
        "count");
  r.add("net.ingress_depth_peak", static_cast<double>(c.ingress_depth_peak),
        "count");
  r.add("net.service_utilization", c.service_utilization(in.elapsed, in.peers),
        "fraction");
  r.add("net.wall_us_per_message", in.wall_us_per_message, "us");

  const replica::ReplicaStats& rs = m.replica;
  r.add("replica.cache_hit_ratio",
        ratio(static_cast<double>(rs.cache_hits),
              static_cast<double>(rs.cache_hits + rs.cache_misses)),
        "ratio");
  r.add("replica.replica_route_ratio",
        ratio(static_cast<double>(rs.replica_routes),
              static_cast<double>(rs.queries)),
        "ratio");
  r.add("replica.placement_messages",
        static_cast<double>(rs.placement_messages), "count");
  r.add("replica.cache_invalidated_publish",
        static_cast<double>(rs.cache_invalidated_publish), "count");
  r.add("replica.cache_invalidated_churn",
        static_cast<double>(rs.cache_invalidated_churn), "count");

  // flatten() order: sweeps, started, completed, cancelled, objects, ...
  r.add("rebalance.migrations_completed", static_cast<double>(m.rebalance[2]),
        "count");
  r.add("rebalance.objects_migrated", static_cast<double>(m.rebalance[4]),
        "count");
  r.add("rebalance.cutover_messages", static_cast<double>(m.rebalance[6]),
        "count");

  const sim::ChurnStats& ch = m.churn;
  r.add("churn.repair_messages", static_cast<double>(ch.repair_messages),
        "count");
  r.add("churn.repair_latency_mean", ch.repair_latency_mean(), "simtime");
  r.add("churn.stale_queries", static_cast<double>(ch.stale_queries), "count");
  r.add("churn.detours", static_cast<double>(ch.detours), "count");
  r.add("churn.failed_queries", static_cast<double>(ch.failed_queries),
        "count");

  r.add("obs.attached_qps_ratio", median(p.trace_ratio), "ratio");
  r.add("obs.trace_overhead_us_per_query", median(p.trace_overhead_us), "us");
}

std::shared_ptr<obs::TraceRecorder> make_recorder(std::uint64_t seed) {
  obs::TraceConfig cfg;
  cfg.sample_period = 16;
  cfg.seed = seed;
  return std::make_shared<obs::TraceRecorder>(cfg);
}

// ---------------------------------------------------------------------------
// Runs.
// ---------------------------------------------------------------------------

/// kSetups timed set-ups, each scaled to the nominal host speed by the
/// median of the reference slices run just before, amid and just after it;
/// the last one is kept for the run. Reports setup_s, their median, and
/// peak_rss_mb, the peak memory of a loaded index with its inputs. (Peak
/// memory over the run itself is left out: the queueing network's per-node
/// state grows in an order set by the query stream, so it moves by a third
/// from seed to seed.)
template <typename Loop>
std::unique_ptr<Loop> timed_setups(const Spec& spec, const Options& opt,
                                   HostReference& reference, Report& report) {
  std::unique_ptr<Loop> loop;
  std::vector<double> setup_s;
  std::vector<double> raw_s;
  auto slices = [&](std::vector<double>& out) {
    for (int i = 0; i < kSlicesAround; ++i) {
      out.push_back(reference.slice_us());
    }
  };
  std::vector<double> before;
  slices(before);
  for (int k = 0; k < kSetups; ++k) {
    loop.reset();  // free the previous overlay before building the next
    loop = std::make_unique<Loop>(spec, opt, &reference);
    std::vector<double> around = loop->times().slice_us;
    around.insert(around.end(), before.begin(), before.end());
    before.clear();
    slices(before);  // after this set-up, before the next
    around.insert(around.end(), before.begin(), before.end());
    const double slow = HostReference::slowness(median(around));
    raw_s.push_back(loop->times().total_s);
    setup_s.push_back(loop->times().total_s / slow);
  }
  std::fprintf(stderr, "perfbench: set-up %.3f s unscaled, %.3f s scaled\n",
               median(raw_s), median(setup_s));
  report.add("setup_s", median(setup_s), "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  return loop;
}

void print_wall(const char* name, const WallSummary& wall) {
  std::fprintf(stderr,
               "perfbench: %s: %zu blocks, %.1f queries/s unscaled, host "
               "slowness %.3f, %.1f queries/s scaled\n",
               name, wall.blocks, wall.raw_queries_per_s, wall.slowness,
               wall.queries_per_s);
}

void closed_loop_end_to_end(const Spec& spec, const Options& opt,
                            HostReference& reference, Report& report) {
  auto loop = timed_setups<ClosedLoop>(spec, opt, reference, report);
  ClosedLoop::Run run =
      loop->run(spec.prefix, opt.seconds, report, nullptr, &reference);
  report.attempted = run.times.size();
  report.failed = run.failed;
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu ops (%llu queries = wall "
               "samples) in %.2f s busy; prefix %zu queries\n",
               spec.name, static_cast<unsigned long long>(opt.seed),
               run.times.size(), static_cast<unsigned long long>(run.queries),
               run.busy_s, run.sim.stats.size());
  print_wall(spec.name, run.wall);
  report.add("queries_per_s", run.wall.queries_per_s, "1/s");
  report.add("query_wall_us_p50", run.wall.query_us_p50, "us");
  report.add("query_wall_us_p99", run.wall.query_us_p99, "us");
  add_simulated_metrics(report, run.sim);
}

void open_loop_end_to_end(const Spec& spec, const Options& opt,
                          HostReference& reference, Report& report) {
  auto loop = timed_setups<OpenLoop>(spec, opt, reference, report);
  std::vector<Block> windows;  // the blocks of the wall summary
  std::size_t passes = 0;
  OpenLoop::Pass first;
  const Clock::time_point start = Clock::now();
  do {
    OpenLoop::Pass p = loop->run_pass(&reference);
    std::move(p.windows.begin(), p.windows.end(), std::back_inserter(windows));
    if (++passes == 1) {
      loop->check_pass(report, p);
      first = std::move(p);
    } else {
      report.check(p.sim == first.sim,
                   "a repeated pass changed its simulated outcome");
    }
  } while (seconds_between(start, Clock::now()) < opt.seconds);
  report.attempted = passes * loop->ops().size();
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu passes of %zu queries (= wall "
               "samples per pass)\n",
               spec.name, static_cast<unsigned long long>(opt.seed),
               passes, loop->ops().size());
  const WallSummary wall = summarize_wall(windows);
  print_wall(spec.name, wall);
  report.add("queries_per_s", wall.queries_per_s, "1/s");
  report.add("query_wall_us_p50", wall.query_us_p50, "us");
  report.add("query_wall_us_p99", wall.query_us_p99, "us");
  add_simulated_metrics(report, first.sim);
}

/// Traced run of a closed-loop workload. The prefix runs three times: a
/// warm-up pass untraced, a pass with an obs::TraceRecorder attached and
/// benchmark spans around every operation, and a second untraced pass that
/// the traced one is timed against (each on a fresh set-up when the
/// workload has state). All three simulated outcomes must agree bitwise.
/// Then the layer probe.
void closed_loop_traced(const Spec& spec, const Options& opt, Report& report,
                        SpanLog& spans) {
  const bool stateful = spec.kind == Kind::kZipfRwChurn;
  auto loop = std::make_unique<ClosedLoop>(spec, opt);
  const SetupTimes setup = loop->times();
  auto fresh = [&] {
    if (stateful) {
      loop.reset();
      loop = std::make_unique<ClosedLoop>(spec, opt);
    }
  };
  const ClosedLoop::Run warmup =
      loop->run(spec.traced_prefix, 0.0, report, nullptr);
  fresh();
  auto recorder = make_recorder(opt.seed);
  loop->world().net.transport().attach_trace(recorder);
  const ClosedLoop::Run traced =
      loop->run(spec.traced_prefix, 0.0, report, &spans);
  loop->world().net.transport().detach_trace();
  report.check(recorder->validate().empty(), "trace recorder span tree");
  fresh();
  const ClosedLoop::Run untraced =
      loop->run(spec.traced_prefix, 0.0, report, nullptr);
  report.check(traced.sim == warmup.sim && untraced.sim == warmup.sim,
               "traced run changed a simulated metric");

  loop->disable_subsystems();
  const Probe probe =
      probe_layers(loop->world(), loop->ops(), opt.seconds / 4.0, spec.pool,
                   recorder, spans, report);
  report.attempted = warmup.times.size() + traced.times.size() +
                     untraced.times.size() + probe.queries;
  report.failed = warmup.failed + traced.failed + untraced.failed;

  LayerInputs in;
  in.setup = setup;
  in.objects = opt.objects;
  in.probe = &probe;
  in.untraced = &untraced.sim;
  in.publish_us = &untraced.publish_us;
  in.events_per_query = ratio(static_cast<double>(probe.events),
                              static_cast<double>(probe.queries));
  in.sim_us_per_event =
      ratio(probe.sim_run_us, static_cast<double>(probe.events));
  in.wall_us_per_message =
      ratio(untraced.busy_s * 1e6, static_cast<double>(untraced.messages));
  in.peers = opt.peers;
  add_layer_metrics(report, in);
}

void open_loop_traced(const Spec& spec, const Options& opt, Report& report,
                      SpanLog& spans) {
  auto loop = std::make_unique<OpenLoop>(spec, opt);
  const SetupTimes setup = loop->times();
  const OpenLoop::Pass warmup = loop->run_pass();
  loop->check_pass(report, warmup);
  auto recorder = make_recorder(opt.seed);
  loop->world().net.transport().attach_trace(recorder);
  const OpenLoop::Pass traced = loop->run_pass();
  loop->world().net.transport().detach_trace();
  report.check(recorder->validate().empty(), "trace recorder span tree");
  const OpenLoop::Pass untraced = loop->run_pass();
  report.check(traced.sim == warmup.sim && untraced.sim == warmup.sim,
               "traced run changed a simulated metric");
  // One span per query, from its injection event to its completion.
  for (std::size_t i = 0; i < traced.done.size(); ++i) {
    spans.add("op.query", i, 0, traced.injected[i], traced.done[i]);
  }

  const Probe probe =
      probe_layers(loop->world(), loop->ops(), opt.seconds / 4.0, spec.pool,
                   recorder, spans, report);
  const std::size_t n = loop->ops().size();
  report.attempted = 3 * n + probe.queries;

  LayerInputs in;
  in.setup = setup;
  in.objects = opt.objects;
  in.probe = &probe;
  in.untraced = &untraced.sim;
  in.events_per_query =
      ratio(static_cast<double>(untraced.sim.events), static_cast<double>(n));
  in.sim_us_per_event = ratio(untraced.run_s * 1e6,
                              static_cast<double>(untraced.sim.events));
  in.wall_us_per_message =
      ratio(untraced.wall_s * 1e6,
            static_cast<double>(untraced.sim.modules.congestion.messages));
  in.elapsed = untraced.sim.served_time;
  in.peers = opt.peers;
  add_layer_metrics(report, in);
}

const Spec* find_spec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) {
      return &s;
    }
  }
  return nullptr;
}

}  // namespace

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Spec& s : kSpecs) {
    names.emplace_back(s.name);
  }
  return names;
}

bool run_workload(const Options& opt, Report& report) {
  const Spec* spec = find_spec(opt.workload);
  if (spec == nullptr) {
    return false;
  }
  const bool open = spec->kind == Kind::kCongested;
  if (!opt.trace) {
    HostReference reference;
    if (open) {
      open_loop_end_to_end(*spec, opt, reference, report);
    } else {
      closed_loop_end_to_end(*spec, opt, reference, report);
    }
    return true;
  }
  SpanLog spans(Clock::now());
  if (open) {
    open_loop_traced(*spec, opt, report, spans);
  } else {
    closed_loop_traced(*spec, opt, report, spans);
  }
  if (!opt.spans_path.empty()) {
    report.check(spans.write_jsonl(opt.spans_path), "writing the span log");
  }
  std::fprintf(stderr, "perfbench: %zu spans\n", spans.size());
  return true;
}

}  // namespace perfbench
