// P2P data management: the paper's introductory example — the range query
// "70 <= score <= 80" over a distributed student-score table (§1).
//
// Demonstrates that the query delay is independent of how many peers hold
// answers: the same query is run against three selectivities. It closes
// with the paper's band as an in-network aggregate and a k-nearest query.
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "armada/armada.h"
#include "fissione/network.h"
#include "util/rng.h"

int main() {
  using namespace armada;

  auto net = fissione::FissioneNetwork::build(1000, /*seed=*/7);
  auto index = core::ArmadaIndex::single(net, {0.0, 100.0});

  // Scores clustered around 65 (sum of uniforms ~ bell shape).
  Rng rng(8);
  const int kStudents = 20000;
  for (int i = 0; i < kStudents; ++i) {
    double score = 0.0;
    for (int j = 0; j < 4; ++j) {
      score += rng.next_double(0.0, 25.0);
    }
    score = 0.3 * score + 0.7 * rng.next_double(40.0, 90.0);
    index.publish(std::min(100.0, score));
  }

  std::printf("score database: %d records on %zu peers (log2 N = %.1f)\n\n",
              kStudents, net.num_peers(), std::log2(1000.0));

  struct Query {
    double lo, hi;
    const char* label;
  };
  for (const Query q : {Query{70.0, 80.0, "the paper's 70<=score<=80"},
                        Query{59.5, 60.5, "a narrow band"},
                        Query{0.0, 100.0, "every record"}}) {
    const auto r = index.range_query(net.random_peer(), q.lo, q.hi);
    std::printf("[%5.1f, %5.1f] (%s):\n", q.lo, q.hi, q.label);
    std::printf("  %zu records from %llu peers, delay %.0f hops, %llu "
                "messages\n",
                r.matches.size(),
                static_cast<unsigned long long>(r.stats.dest_peers),
                r.stats.delay,
                static_cast<unsigned long long>(r.stats.messages));
  }
  std::printf("\nnote: delay stays below 2*log2 N = %.1f for every "
              "selectivity — the delay-bounded property.\n",
              2 * std::log2(1000.0));

  // The same band as an in-network aggregate: replies fold up the
  // forwarding tree, so no record leaves its peer.
  const auto agg = index.range_aggregate(net.random_peer(), 70.0, 80.0);
  std::printf("\naggregate over [70, 80]: count %llu, mean %.4f, %llu "
              "messages, delay %.0f hops\n",
              static_cast<unsigned long long>(agg.count), agg.mean(),
              static_cast<unsigned long long>(agg.stats.messages),
              agg.stats.delay);

  // The five scores nearest 75, by walking zones outward from its owner.
  const auto knn = index.nearest(net.random_peer(), 75.0, 5);
  std::printf("5 nearest to 75:");
  for (const std::uint64_t h : knn.handles) {
    std::printf(" %.4f", index.attributes(h)[0]);
  }
  std::printf(" (%llu peers visited, %llu messages, delay %.0f hops)\n",
              static_cast<unsigned long long>(knn.stats.dest_peers),
              static_cast<unsigned long long>(knn.stats.messages),
              knn.stats.delay);
  return 0;
}
