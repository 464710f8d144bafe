#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/routed_overlay.h"
#include "sim/event_queue.h"
#include "sim/metrics.h"
#include "sim/workload.h"
#include "util/check.h"
#include "util/rng.h"

namespace armada::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulator, EqualTimesRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(Simulator, ActionsMayScheduleMore) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) {
      sim.schedule_after(1.0, chain);
    }
  };
  sim.schedule_after(1.0, chain);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(5.0, [&] { ++fired; });
  sim.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.idle());
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, FifoTieBreakInterleavesWithEarlierTimes) {
  // Events at the same timestamp run in scheduling order even when they are
  // scheduled interleaved with events at other times, via schedule_at and
  // schedule_after alike. The transport relies on this: ConstantHop arrival
  // order must reproduce the classic BFS/queue order exactly.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(2.0, [&] { order.push_back(20); });
  sim.schedule_at(1.0, [&] { order.push_back(10); });
  sim.schedule_after(2.0, [&] { order.push_back(21); });  // also t=2
  sim.schedule_at(2.0, [&] { order.push_back(22); });
  sim.schedule_at(1.0, [&] { order.push_back(11); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{10, 11, 20, 21, 22}));
}

TEST(Simulator, FifoTieBreakCoversEventsScheduledWhileRunning) {
  // An action scheduling at the *current* time runs after everything already
  // queued for that time (its sequence number is larger).
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] {
    order.push_back(0);
    sim.schedule_after(0.0, [&] { order.push_back(2); });
  });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Simulator, RunUntilIncludesEventsExactlyAtTheHorizon) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.schedule_at(2.0 + 1e-9, [&] { ++fired; });
  sim.run_until(2.0);
  EXPECT_EQ(fired, 1);  // horizon is inclusive; later events stay queued
  EXPECT_FALSE(sim.idle());
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Simulator, RunUntilAdvancesTimeOnAnEmptyQueue) {
  Simulator sim;
  sim.run_until(7.0);
  EXPECT_DOUBLE_EQ(sim.now(), 7.0);
  // A horizon in the past never moves time backwards.
  sim.run_until(3.0);
  EXPECT_DOUBLE_EQ(sim.now(), 7.0);
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(Simulator, EventsProcessedCountsAcrossRunAndRunUntil) {
  Simulator sim;
  for (int i = 1; i <= 6; ++i) {
    sim.schedule_at(static_cast<Time>(i), [] {});
  }
  sim.run_until(3.0);
  EXPECT_EQ(sim.events_processed(), 3u);
  sim.run();
  EXPECT_EQ(sim.events_processed(), 6u);
  // Re-running with an empty queue processes nothing further.
  sim.run();
  EXPECT_EQ(sim.events_processed(), 6u);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, RejectsSchedulingIntoThePast) {
  Simulator sim;
  sim.schedule_at(2.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), CheckError);
}

// The dispatch contract: events run in the strict total order (when, seq),
// i.e. time order with FIFO ties. The simulator is checked against a plain
// reference model on two inputs dominated by equal-time batches (the FRT
// fan-out shape): randomized schedules, with batches of 30+ events at one
// instant and callbacks that schedule into their own instant mid-dispatch;
// and lockstep waves at integer instants, whose callbacks schedule every
// next wave, up to 2,048 events wide, from inside the dispatch loop.
//
// Reference: stable order by time — scheduling (insertion) order breaks
// ties. `scheduled` is appended in insertion order, so a stable sort by
// `when` is the expected dispatch sequence.
void expect_reference_order(std::vector<std::pair<double, int>> scheduled,
                            const std::vector<int>& dispatched,
                            const std::string& input) {
  std::stable_sort(scheduled.begin(), scheduled.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<int> expected;
  expected.reserve(scheduled.size());
  for (const auto& [when, id] : scheduled) {
    expected.push_back(id);
  }
  ASSERT_EQ(dispatched, expected) << input;
}

TEST(Simulator, DispatchOrderMatchesReferenceOnEqualTimeBatches) {
  for (std::uint64_t seed : {101u, 202u, 303u}) {
    Rng rng(seed);
    Simulator sim;
    std::vector<std::pair<double, int>> scheduled;  // (when, insertion id)
    std::vector<int> dispatched;
    int next_id = 0;

    // A handful of shared timestamps so batches of 30+ equal-time events
    // form; a few unique times interleave between them.
    std::vector<double> slots;
    for (int i = 0; i < 6; ++i) {
      slots.push_back(rng.next_double(0.0, 10.0));
    }
    for (int i = 0; i < 240; ++i) {
      const double when = (i % 4 != 0)
                              ? slots[rng.next_index(slots.size())]
                              : rng.next_double(0.0, 10.0);
      const int id = next_id++;
      scheduled.emplace_back(when, id);
      sim.schedule_at(when, [&dispatched, id] { dispatched.push_back(id); });
    }
    // Mid-run injections: some events add work at their own timestamp,
    // which must run after everything already queued there, and slightly
    // later.
    for (int i = 0; i < 30; ++i) {
      const double when = slots[rng.next_index(slots.size())];
      const int id = next_id++;
      scheduled.emplace_back(when, id);
      const int child = next_id++;
      const int late_child = next_id++;
      sim.schedule_at(when, [&, id, child, late_child] {
        dispatched.push_back(id);
        scheduled.emplace_back(sim.now(), child);
        sim.schedule_at(sim.now(), [&dispatched, child] {
          dispatched.push_back(child);
        });
        scheduled.emplace_back(sim.now() + 0.5, late_child);
        sim.schedule_at(sim.now() + 0.5, [&dispatched, late_child] {
          dispatched.push_back(late_child);
        });
      });
    }
    sim.run();
    expect_reference_order(scheduled, dispatched,
                           "random slots, seed " + std::to_string(seed));
  }

  // Lockstep waves, the FRT's shape under ConstantHop: every event
  // schedules its children at +1.0, so each wave is one equal-time batch at
  // an integer instant. Two lineages of 64 start at t = 0 and t = 2; waves
  // double to 2048, hold, then halve, so the pending set grows and shrinks
  // while callbacks run. A batch's events are created back to back while
  // the previous batch dispatches, so id parity halves it exactly.
  {
    constexpr int kGenerations = 15;
    Simulator sim;
    std::vector<std::pair<double, int>> scheduled;
    std::vector<int> dispatched;
    int next_id = 0;
    std::function<void(double, int)> schedule_wave_event =
        [&](double when, int gen) {
          const int id = next_id++;
          scheduled.emplace_back(when, id);
          sim.schedule_at(when, [&, id, gen] {
            dispatched.push_back(id);
            if (gen + 1 == kGenerations) {
              return;
            }
            const int children = gen < 5 ? 2 : gen < 9 ? 1 : (id + 1) % 2;
            for (int c = 0; c < children; ++c) {
              schedule_wave_event(sim.now() + 1.0, gen + 1);
            }
          });
        };
    for (const double start : {0.0, 2.0}) {
      for (int i = 0; i < 64; ++i) {
        schedule_wave_event(start, 0);
      }
    }
    sim.run();
    std::map<double, int> batch;  // instant -> events dispatched there
    for (const auto& [when, id] : scheduled) {
      ++batch[when];
    }
    for (const auto& [when, n] : batch) {
      EXPECT_EQ(when, std::floor(when));
      EXPECT_GE(n, 64) << "batch at " << when;
    }
    EXPECT_GT(dispatched.size(), 20000u);
    expect_reference_order(scheduled, dispatched, "lockstep waves");
  }
}

TEST(Simulator, EarlierEventsScheduledMidRunOvertakeFarFutureOnes) {
  Simulator sim;
  std::vector<double> times;
  // A far-future event is queued first; an earlier one scheduled mid-run
  // must still dispatch before it.
  sim.schedule_at(1000.0, [&] { times.push_back(sim.now()); });
  sim.schedule_at(1.0, [&] {
    times.push_back(sim.now());
    sim.schedule_at(2.0, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(times, (std::vector<double>{1.0, 2.0, 1000.0}));
}

TEST(QueryStats, Ratios) {
  QueryStats q;
  q.messages = 30;
  q.dest_peers = 10;
  EXPECT_DOUBLE_EQ(q.mesg_ratio(), 3.0);
  EXPECT_DOUBLE_EQ(q.incre_ratio(11.0), 19.0 / 9.0);
}

TEST(MetricSet, AggregatesAndSkipsDegenerateRatios) {
  MetricSet m(10.0);
  m.add(QueryStats{.messages = 20, .delay = 5, .dest_peers = 10, .results = 3});
  m.add(QueryStats{.messages = 12, .delay = 7, .dest_peers = 1, .results = 0});
  m.add(QueryStats{.messages = 0, .delay = 0, .dest_peers = 0, .results = 0});
  EXPECT_EQ(m.delay().count(), 3u);
  EXPECT_DOUBLE_EQ(m.delay().mean(), 4.0);
  EXPECT_EQ(m.mesg_ratio().count(), 2u);   // dest_peers >= 1 only
  EXPECT_EQ(m.incre_ratio().count(), 1u);  // dest_peers > 1 only
  EXPECT_DOUBLE_EQ(m.incre_ratio().mean(), 10.0 / 9.0);
}

// --- walk-cost algebra (overlay::step / chain / fan_in) ---------------------

TEST(WalkAlgebra, StepChargesOneMessageOneHopAndTheLink) {
  net::Transport transport;  // default ConstantHop (unit cost)
  QueryStats walk;
  overlay::step(walk, transport, 3, 4);
  overlay::step(walk, transport, 4, 9);
  EXPECT_EQ(walk.messages, 2u);
  EXPECT_DOUBLE_EQ(walk.delay, 2.0);
  EXPECT_DOUBLE_EQ(walk.latency, 2.0);
  EXPECT_DOUBLE_EQ(walk.coverage, 1.0);  // cost fragments never touch it
  EXPECT_EQ(walk.dest_peers, 0u);
}

TEST(WalkAlgebra, ChainSumsCostsAndMultipliesCoverage) {
  QueryStats head{.messages = 3, .delay = 2.0, .latency = 2.5,
                  .queue_delay = 0.5, .coverage = 0.5, .shed = 1};
  const QueryStats tail{.messages = 2, .delay = 1.0, .latency = 1.25,
                        .queue_delay = 0.25, .coverage = 0.5, .shed = 2};
  overlay::chain(head, tail);
  EXPECT_EQ(head.messages, 5u);
  EXPECT_DOUBLE_EQ(head.delay, 3.0);
  EXPECT_DOUBLE_EQ(head.latency, 3.75);
  EXPECT_DOUBLE_EQ(head.queue_delay, 0.75);
  EXPECT_DOUBLE_EQ(head.coverage, 0.25);  // sequential stages multiply
  EXPECT_EQ(head.shed, 3u);
  EXPECT_EQ(head.dest_peers, 0u);  // data-plane counters stay untouched
}

TEST(WalkAlgebra, FanInSumsMessagesMaxesArrivalAndMinsCoverage) {
  QueryStats fan{.messages = 1, .delay = 4.0, .latency = 4.0,
                 .coverage = 1.0};
  overlay::fan_in(fan, QueryStats{.messages = 2, .delay = 6.0,
                                  .latency = 7.0, .coverage = 0.5});
  overlay::fan_in(fan, QueryStats{.messages = 3, .delay = 5.0,
                                  .latency = 5.0, .coverage = 0.75});
  EXPECT_EQ(fan.messages, 6u);
  EXPECT_DOUBLE_EQ(fan.delay, 6.0);    // latest branch arrival
  EXPECT_DOUBLE_EQ(fan.latency, 7.0);
  EXPECT_DOUBLE_EQ(fan.coverage, 0.5);  // conservative minimum
}

TEST(WalkAlgebra, ChainOfFanInsWithZeroDestinationSubtrees) {
  // A two-stage FRT-shaped tree: stage one fans three subtrees, one of
  // which covers zero destinations (an empty region slice — its fragment
  // stays at the coverage-neutral default 1.0 and must not drag the fan's
  // minimum); stage two chains a partially shed continuation.
  QueryStats fan;  // dispatch point: zero cost until branches fold in
  const QueryStats empty_subtree{.messages = 1, .delay = 1.0,
                                 .latency = 1.0};  // zero destinations
  const QueryStats full_subtree{.messages = 4, .delay = 3.0, .latency = 3.0,
                                .coverage = 1.0};
  const QueryStats degraded_subtree{.messages = 2, .delay = 2.0,
                                    .latency = 2.0, .coverage = 0.5,
                                    .shed = 1};
  overlay::fan_in(fan, empty_subtree);
  overlay::fan_in(fan, full_subtree);
  overlay::fan_in(fan, degraded_subtree);
  EXPECT_EQ(fan.messages, 7u);
  EXPECT_DOUBLE_EQ(fan.delay, 3.0);
  EXPECT_DOUBLE_EQ(fan.coverage, 0.5);  // the empty subtree stayed neutral

  QueryStats query{.messages = 2, .delay = 2.0, .latency = 2.0,
                   .coverage = 0.5};  // approach walk, already degraded
  overlay::chain(query, fan);
  EXPECT_EQ(query.messages, 9u);
  EXPECT_DOUBLE_EQ(query.delay, 5.0);      // walk, then the slowest branch
  EXPECT_DOUBLE_EQ(query.latency, 5.0);
  EXPECT_DOUBLE_EQ(query.coverage, 0.25);  // 0.5 (walk) * 0.5 (fan min)
  EXPECT_EQ(query.shed, 1u);
  EXPECT_EQ(query.dest_peers, 0u);

  // Aggregating a zero-destination query is well-defined: no ratio sample,
  // but delay/coverage aggregate exactly.
  MetricSet m(4.0);
  m.add(query);
  EXPECT_EQ(m.delay().count(), 1u);
  EXPECT_DOUBLE_EQ(m.coverage().mean(), 0.25);
  EXPECT_EQ(m.mesg_ratio().count(), 0u);   // dest_peers == 0: skipped
  EXPECT_EQ(m.incre_ratio().count(), 0u);
  EXPECT_EQ(m.dest_peers().count(), 1u);
  EXPECT_DOUBLE_EQ(m.dest_peers().mean(), 0.0);
}

TEST(MetricSet, TracksLatencyAndPercentiles) {
  MetricSet m(10.0);
  for (int i = 1; i <= 100; ++i) {
    QueryStats q;
    q.delay = static_cast<double>(i);
    q.latency = 2.0 * static_cast<double>(i);
    q.dest_peers = 1;
    q.messages = 1;
    m.add(q);
  }
  EXPECT_DOUBLE_EQ(m.latency().mean(), 101.0);
  EXPECT_DOUBLE_EQ(m.latency().max(), 200.0);
  EXPECT_DOUBLE_EQ(m.delay_percentiles().p50(), 50.0);
  EXPECT_DOUBLE_EQ(m.delay_percentiles().p95(), 95.0);
  EXPECT_DOUBLE_EQ(m.delay_percentiles().p99(), 99.0);
  EXPECT_DOUBLE_EQ(m.latency_percentiles().p99(), 198.0);
}

TEST(RangeWorkload, StaysInsideDomain) {
  RangeWorkload w({0.0, 1000.0}, 50.0, Rng(5));
  for (int i = 0; i < 1000; ++i) {
    const RangeQuery q = w.next();
    EXPECT_GE(q.lo, 0.0);
    EXPECT_LE(q.hi, 1000.0);
    EXPECT_NEAR(q.hi - q.lo, 50.0, 1e-9);
  }
}

TEST(RangeWorkload, RejectsOversizedQueries) {
  EXPECT_THROW(RangeWorkload({0.0, 10.0}, 11.0, Rng(1)), CheckError);
}

TEST(BoxWorkload, StaysInsideDomain) {
  BoxWorkload w(kautz::Box{{0.0, 100.0}, {0.0, 10.0}}, {20.0, 2.0}, Rng(6));
  for (int i = 0; i < 500; ++i) {
    const kautz::Box q = w.next();
    ASSERT_EQ(q.size(), 2u);
    EXPECT_GE(q[0].lo, 0.0);
    EXPECT_LE(q[0].hi, 100.0);
    EXPECT_NEAR(q[0].hi - q[0].lo, 20.0, 1e-12);
    EXPECT_NEAR(q[1].hi - q[1].lo, 2.0, 1e-12);
  }
}

TEST(UniformPoints, CoversDomain) {
  UniformPoints gen(kautz::Box{{0.0, 1.0}, {5.0, 6.0}}, Rng(7));
  OnlineStats s0;
  OnlineStats s1;
  for (int i = 0; i < 2000; ++i) {
    const auto p = gen.next();
    s0.add(p[0]);
    s1.add(p[1]);
  }
  EXPECT_NEAR(s0.mean(), 0.5, 0.05);
  EXPECT_NEAR(s1.mean(), 5.5, 0.05);
}

}  // namespace
}  // namespace armada::sim
