// Grid information service: the paper's multi-attribute example —
// "1GB <= Memory <= 4GB and 50GB <= disk <= 200GB" (§1), answered by MIRA.
#include <cmath>
#include <cstdio>

#include "armada/armada.h"
#include "fissione/network.h"
#include "util/rng.h"

int main() {
  using namespace armada;

  auto net = fissione::FissioneNetwork::build(800, /*seed=*/11);
  // Attribute 0: memory in MB [0, 16384]; attribute 1: disk in GB [0, 2000].
  const kautz::Box domain{{0.0, 16384.0}, {0.0, 2000.0}};
  auto index = core::ArmadaIndex::multi(net, domain);

  // A fleet of machines with assorted configurations.
  Rng rng(12);
  const int kMachines = 12000;
  for (int i = 0; i < kMachines; ++i) {
    const double mem_gb = std::exp2(static_cast<double>(rng.next_int(0, 4)));
    const double memory_mb =
        std::min(16384.0, 1024.0 * mem_gb + rng.next_double(0.0, 64.0));
    const double disk_gb = rng.next_double(10.0, 2000.0);
    index.publish({memory_mb, disk_gb});
  }

  std::printf("grid info service: %d machines on %zu peers\n\n", kMachines,
              net.num_peers());

  // The paper's query: 1GB <= memory <= 4GB and 50GB <= disk <= 200GB.
  const kautz::Box query{{1024.0, 4096.0}, {50.0, 200.0}};
  const auto r = index.box_query(net.random_peer(), query);

  std::printf("query: 1GB <= memory <= 4GB and 50GB <= disk <= 200GB\n");
  std::printf("  %zu machines matched, %llu peers scanned, delay %.0f hops "
              "(log2 N = %.1f), %llu messages\n",
              r.matches.size(),
              static_cast<unsigned long long>(r.stats.dest_peers),
              r.stats.delay, std::log2(800.0),
              static_cast<unsigned long long>(r.stats.messages));
  for (std::size_t i = 0; i < std::min<std::size_t>(5, r.matches.size());
       ++i) {
    const auto m = index.attributes(r.matches[i]);
    std::printf("  candidate: %.0f MB memory, %.0f GB disk\n", m[0], m[1]);
  }

  // A much broader query keeps the same delay bound: delay-bounded even
  // when the answer set is two orders of magnitude larger.
  const kautz::Box broad{{0.0, 16384.0}, {0.0, 2000.0}};
  const auto r2 = index.box_query(net.random_peer(), broad);
  std::printf("\nbroad query (everything): %zu machines, delay %.0f hops — "
              "same bound, %llux the answers\n",
              r2.matches.size(), r2.stats.delay,
              static_cast<unsigned long long>(
                  r2.matches.size() / std::max<std::size_t>(1, r.matches.size())));
  return 0;
}
