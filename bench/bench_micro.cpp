// Microbenchmarks of the primitives (google-benchmark): naming, region
// algebra, overlay routing, curve transforms, and a full PIRA query —
// plus a packed-vs-reference KautzString comparison recorded into the
// ARMADA_BENCH_JSON feed (custom main below).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common.h"

#include "armada/armada.h"
#include "fissione/network.h"
#include "kautz/kautz_space.h"
#include "kautz/partition_tree.h"
#include "obs/trace.h"
#include "sfc/hilbert.h"
#include "util/rng.h"

namespace {

using namespace armada;

void BM_SingleHash(benchmark::State& state) {
  const auto tree = kautz::PartitionTree::single(48, {0.0, 1000.0});
  Rng rng(1);
  double v = rng.next_double(0.0, 1000.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.single_hash(v));
    v = v < 999.0 ? v + 0.7 : 0.3;
  }
}
BENCHMARK(BM_SingleHash);

void BM_MultipleHash3Attr(benchmark::State& state) {
  const kautz::PartitionTree tree(
      48, kautz::Box{{0.0, 1.0}, {0.0, 1.0}, {0.0, 1.0}});
  const std::vector<double> p{0.3, 0.7, 0.1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.multiple_hash(p));
  }
}
BENCHMARK(BM_MultipleHash3Attr);

void BM_RankUnrank(benchmark::State& state) {
  std::uint64_t r = 12345;
  const std::uint64_t n = kautz::space_size(24);
  for (auto _ : state) {
    const auto s = kautz::unrank(24, r % n);
    benchmark::DoNotOptimize(kautz::rank(s));
    r = r * 2862933555777941757ull + 3037000493ull;
  }
}
BENCHMARK(BM_RankUnrank);

void BM_RegionIntersectsPrefix(benchmark::State& state) {
  const auto tree = kautz::PartitionTree::single(48, {0.0, 1000.0});
  const auto region = tree.region_for(123.0, 456.0);
  const auto prefix = kautz::KautzString::parse("0120102");
  for (auto _ : state) {
    benchmark::DoNotOptimize(region.intersects_prefix(prefix));
  }
}
BENCHMARK(BM_RegionIntersectsPrefix);

void BM_HilbertIndex(benchmark::State& state) {
  std::uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sfc::hilbert_index(20, {x & 0xfffff, (x >> 20) & 0xfffff}));
    x += 0x9e3779b9;
  }
}
BENCHMARK(BM_HilbertIndex);

void BM_FissioneRoute(benchmark::State& state) {
  auto net = fissione::FissioneNetwork::build(
      static_cast<std::size_t>(state.range(0)), 7);
  Rng rng(9);
  for (auto _ : state) {
    const auto target = kautz::random_string(rng, 48);
    benchmark::DoNotOptimize(net.route(net.random_peer(), target));
  }
}
BENCHMARK(BM_FissioneRoute)->Arg(1000)->Arg(8000);

void BM_PiraQuery(benchmark::State& state) {
  auto net = fissione::FissioneNetwork::build(2000, 11);
  auto index = core::ArmadaIndex::single(net, {0.0, 1000.0});
  Rng rng(13);
  for (int i = 0; i < 4000; ++i) {
    index.publish(rng.next_double(0.0, 1000.0));
  }
  const double size = static_cast<double>(state.range(0));
  for (auto _ : state) {
    const double lo = rng.next_double(0.0, 1000.0 - size);
    benchmark::DoNotOptimize(
        index.range_query(net.random_peer(), lo, lo + size));
  }
}
BENCHMARK(BM_PiraQuery)->Arg(20)->Arg(300);

void BM_KautzShiftTarget(benchmark::State& state) {
  // The inner op of shift routing: align, then id[1..] ++ oid[j..].
  Rng rng(3);
  const auto id = kautz::random_string(rng, 20);
  const auto oid = kautz::random_string(rng, 48);
  for (auto _ : state) {
    const std::size_t j = id.longest_suffix_prefix(oid);
    benchmark::DoNotOptimize(
        id.drop_front().concat(oid.suffix(oid.length() - j)));
  }
}
BENCHMARK(BM_KautzShiftTarget);

void BM_FissioneJoin(benchmark::State& state) {
  auto net = fissione::FissioneNetwork::build(1000, 15);
  for (auto _ : state) {
    net.join();
  }
}
// Pinned iteration count: every iteration grows the overlay.
BENCHMARK(BM_FissioneJoin)->Iterations(4000);

// --- packed-vs-reference KautzString timings --------------------------------
//
// RefString is the pre-packing representation: one heap digit vector per
// string, every slice a fresh vector. Timing the same routing-shaped
// workload against both implementations quantifies what the bit-packed
// words buy; the measurements land in the ARMADA_BENCH_JSON feed (bench
// "micro", series "kautz_string") and CI checks the speedups stay >= 1.
struct RefString {
  std::vector<std::uint8_t> d;

  RefString suffix(std::size_t len) const {
    return {{d.end() - static_cast<std::ptrdiff_t>(len), d.end()}};
  }
  RefString drop_front() const {
    return {{d.begin() + 1, d.end()}};
  }
  RefString concat(const RefString& tail) const {
    RefString out{d};
    out.d.insert(out.d.end(), tail.d.begin(), tail.d.end());
    return out;
  }
  std::size_t longest_suffix_prefix(const RefString& other) const {
    const std::size_t max_t = std::min(d.size(), other.d.size());
    for (std::size_t t = max_t; t > 0; --t) {
      if (std::equal(d.end() - static_cast<std::ptrdiff_t>(t), d.end(),
                     other.d.begin())) {
        return t;
      }
    }
    return 0;
  }
  bool operator<(const RefString& other) const { return d < other.d; }

  // The pre-packing ctor validated the Kautz invariants too; a copy-only
  // reference would undercount the old construction cost.
  static RefString make(std::vector<std::uint8_t> digits) {
    int prev = -1;
    for (std::uint8_t x : digits) {
      if (x > kautz::kBase || static_cast<int>(x) == prev) {
        std::abort();
      }
      prev = x;
    }
    return RefString{std::move(digits)};
  }
};

// Best-of-3: each loop is short at smoke scale, and CI asserts a speedup
// ratio, so a single scheduler hiccup in either loop must not decide it.
double seconds_of(const std::function<void()>& fn) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (rep == 0 || secs < best) {
      best = secs;
    }
  }
  return best;
}

void record_kautz_micro() {
  using armada::bench::JsonSink;
  using armada::bench::scaled;

  const auto ops = static_cast<std::size_t>(scaled(200'000, 20'000));
  Rng rng(77);
  // Routing-shaped workload: PeerID-length ids against ObjectID-length
  // targets, pre-drawn so the timed loops do nothing but the op.
  std::vector<kautz::KautzString> ids;
  std::vector<kautz::KautzString> oids;
  std::vector<RefString> ref_ids;
  std::vector<RefString> ref_oids;
  constexpr std::size_t kPool = 512;
  for (std::size_t i = 0; i < kPool; ++i) {
    ids.push_back(kautz::random_string(rng, 20));
    oids.push_back(kautz::random_string(rng, 48));
    ref_ids.push_back(RefString{ids.back().digits()});
    ref_oids.push_back(RefString{oids.back().digits()});
  }

  // Shift-routing target construction: align + drop_front + concat.
  const double packed_shift = seconds_of([&] {
    for (std::size_t i = 0; i < ops; ++i) {
      const auto& id = ids[i % kPool];
      const auto& oid = oids[i % kPool];
      const std::size_t j = id.longest_suffix_prefix(oid);
      benchmark::DoNotOptimize(
          id.drop_front().concat(oid.suffix(oid.length() - j)));
    }
  });
  const double ref_shift = seconds_of([&] {
    for (std::size_t i = 0; i < ops; ++i) {
      const auto& id = ref_ids[i % kPool];
      const auto& oid = ref_oids[i % kPool];
      const std::size_t j = id.longest_suffix_prefix(oid);
      benchmark::DoNotOptimize(
          id.drop_front().concat(oid.suffix(oid.d.size() - j)));
    }
  });

  // Lexicographic compare (neighbor-table sort order).
  const double packed_cmp = seconds_of([&] {
    for (std::size_t i = 0; i < ops; ++i) {
      benchmark::DoNotOptimize(ids[i % kPool] < ids[(i + 1) % kPool]);
    }
  });
  const double ref_cmp = seconds_of([&] {
    for (std::size_t i = 0; i < ops; ++i) {
      benchmark::DoNotOptimize(ref_ids[i % kPool] < ref_ids[(i + 1) % kPool]);
    }
  });

  // Construction from digit bytes (parse/publish path).
  std::vector<std::vector<std::uint8_t>> digit_sets;
  digit_sets.reserve(kPool);
  for (std::size_t i = 0; i < kPool; ++i) {
    digit_sets.push_back(oids[i].digits());
  }
  const double packed_ctor = seconds_of([&] {
    for (std::size_t i = 0; i < ops; ++i) {
      benchmark::DoNotOptimize(
          kautz::KautzString(digit_sets[i % kPool]));
    }
  });
  const double ref_ctor = seconds_of([&] {
    for (std::size_t i = 0; i < ops; ++i) {
      benchmark::DoNotOptimize(RefString::make(digit_sets[i % kPool]));
    }
  });

  const double n = static_cast<double>(ops);
  const auto ns = [n](double secs) { return secs / n * 1e9; };
  std::printf(
      "\nKautzString packed vs reference (%zu ops):\n"
      "  shift_target  %7.1f ns vs %7.1f ns  (x%.2f)\n"
      "  compare       %7.1f ns vs %7.1f ns  (x%.2f)\n"
      "  construct     %7.1f ns vs %7.1f ns  (x%.2f)\n",
      ops, ns(packed_shift), ns(ref_shift), ref_shift / packed_shift,
      ns(packed_cmp), ns(ref_cmp), ref_cmp / packed_cmp, ns(packed_ctor),
      ns(ref_ctor), ref_ctor / packed_ctor);

  JsonSink::instance().record(
      "micro", "kautz_string", {{"ops", n}},
      {{"shift_target_ns_packed", ns(packed_shift)},
       {"shift_target_ns_reference", ns(ref_shift)},
       {"shift_target_speedup", ref_shift / packed_shift},
       {"compare_ns_packed", ns(packed_cmp)},
       {"compare_ns_reference", ns(ref_cmp)},
       {"compare_speedup", ref_cmp / packed_cmp},
       {"construct_ns_packed", ns(packed_ctor)},
       {"construct_ns_reference", ns(ref_ctor)},
       {"construct_speedup", ref_ctor / packed_ctor}});
}

// --- tracing overhead on the query hot path ---------------------------------
//
// The obs house rule: with tracing disabled the transport hot path pays at
// most one branch. This measurement prices the whole ladder on full PIRA
// queries — recorder absent (the branch only), recorder attached but
// sampling nothing (branch + root-sampling check), and recorder attached
// tracing every query (span recording proper) — and lands the three
// timings plus ratios in the JSON feed (bench "micro", series
// "trace_overhead") so regressions in the disabled path show up in CI
// diffs like any other perf number.
void record_trace_overhead() {
  using armada::bench::JsonSink;
  using armada::bench::scaled;

  auto net = fissione::FissioneNetwork::build(scaled(2000, 64), 11);
  auto index = core::ArmadaIndex::single(net, {0.0, 1000.0});
  Rng rng(13);
  const auto objects = scaled(4000, 128);
  for (std::size_t i = 0; i < objects; ++i) {
    index.publish(rng.next_double(0.0, 1000.0));
  }
  // Pre-drawn workload replayed identically by all three loops, so the
  // ratios isolate the tracing mode and not the query mix.
  const auto queries = static_cast<std::size_t>(scaled(2000, 200));
  std::vector<std::pair<fissione::PeerId, double>> work;
  work.reserve(queries);
  for (std::size_t i = 0; i < queries; ++i) {
    work.emplace_back(net.random_peer(), rng.next_double(0.0, 980.0));
  }
  const auto run_all = [&] {
    for (const auto& [issuer, lo] : work) {
      benchmark::DoNotOptimize(index.range_query(issuer, lo, lo + 20.0));
    }
  };

  const double disabled = seconds_of(run_all);

  // Attached but sampling nothing: every root pays the sampling decision,
  // no span is ever recorded.
  obs::TraceConfig unsampled_cfg;
  unsampled_cfg.sample_period = std::numeric_limits<std::uint64_t>::max();
  unsampled_cfg.seed = 11;
  auto unsampled = std::make_shared<obs::TraceRecorder>(unsampled_cfg);
  net.transport().attach_trace(unsampled);
  const double attached = seconds_of(run_all);
  net.transport().detach_trace();

  // Every query traced end to end.
  obs::TraceConfig traced_cfg;
  traced_cfg.sample_period = 1;
  traced_cfg.seed = 11;
  auto recorder = std::make_shared<obs::TraceRecorder>(traced_cfg);
  net.transport().attach_trace(recorder);
  const double traced = seconds_of([&] {
    recorder->clear();  // reps must not compound span storage
    run_all();
  });
  net.transport().detach_trace();

  const double n = static_cast<double>(queries);
  const auto ns = [n](double secs) { return secs / n * 1e9; };
  std::printf(
      "\nTracing overhead per PIRA query (%zu queries):\n"
      "  disabled            %9.1f ns\n"
      "  attached, unsampled %9.1f ns  (x%.3f)\n"
      "  traced              %9.1f ns  (x%.3f)\n",
      queries, ns(disabled), ns(attached), attached / disabled, ns(traced),
      traced / disabled);

  JsonSink::instance().record(
      "micro", "trace_overhead", {{"queries", n}},
      {{"query_ns_disabled", ns(disabled)},
       {"query_ns_attached_unsampled", ns(attached)},
       {"query_ns_traced", ns(traced)},
       {"attached_vs_disabled", attached / disabled},
       {"traced_vs_disabled", traced / disabled}});
}

}  // namespace

// Custom main (instead of BENCHMARK_MAIN): the google-benchmark suite runs
// as usual, then the packed-vs-reference comparison and the tracing
// overhead ladder record their JSON feeds.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  record_kautz_micro();
  record_trace_overhead();
  return 0;
}
