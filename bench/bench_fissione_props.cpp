// FISSIONE structural properties (paper §3).
//
// Claims: average degree 4; maximum PeerID length < 2 log2 N and average
// length < log2 N; average routing delay < log2 N and maximum < 2 log2 N;
// the neighborhood invariant holds (neighbor length gap <= 1).
#include "common.h"

#include "kautz/kautz_space.h"

int main() {
  using namespace armada;
  using namespace armada::bench;

  constexpr std::uint64_t kSeed = 46;

  Table table({"N", "AvgDegree", "AvgIDLen", "MaxIDLen", "AvgRoute",
               "MaxRoute", "logN", "2logN", "NbrGap"});
  for (std::size_t full_n : {1000u, 2000u, 4000u, 8000u}) {
    const std::size_t n = scaled(full_n);
    auto net = fissione::FissioneNetwork::build(n, kSeed);
    const auto lens = net.peer_id_length_histogram();

    Rng rng(kSeed + 1);
    OnlineStats hops;
    for (int i = 0; i < scaled_queries(); ++i) {
      const auto target = kautz::random_string(rng, 48);
      const auto route = net.route(net.random_peer(), target);
      hops.add(route.hops);
    }

    const double log_n = std::log2(static_cast<double>(n));
    table.add_row({Table::cell(static_cast<std::uint64_t>(n)),
                   Table::cell(net.average_degree()),
                   Table::cell(lens.mean()),
                   Table::cell(static_cast<std::int64_t>(lens.max())),
                   Table::cell(hops.mean()), Table::cell(hops.max(), 0),
                   Table::cell(log_n), Table::cell(2 * log_n),
                   Table::cell(static_cast<std::uint64_t>(
                       net.max_neighbor_length_gap()))});
  }
  print_tables("FISSIONE properties (paper §3 claims)", table);
  return 0;
}
