#include "support/test_networks.h"

#include <cmath>

#include "support/test_workloads.h"
#include "util/hash.h"

namespace armada::testsupport {

namespace {

// Seed offset shared by the baseline-fixture publish streams (matches the
// bench_table1 object streams, so fixture goldens track the bench setups).
constexpr std::uint64_t kObjectStream = 0x5bd1e995u;

}  // namespace

SingleIndexFixture::SingleIndexFixture(std::size_t n, std::uint64_t seed,
                                       kautz::Interval domain)
    : net(fissione::FissioneNetwork::build(n, seed)),
      index(core::ArmadaIndex::single(net, domain)) {}

fissione::PeerId SingleIndexFixture::random_issuer(Rng& rng) const {
  return net.alive_peers()[rng.next_index(net.alive_peers().size())];
}

MultiIndexFixture::MultiIndexFixture(std::size_t n, std::uint64_t seed,
                                     kautz::Box domain)
    : net(fissione::FissioneNetwork::build(n, seed)),
      index(core::ArmadaIndex::multi(net, std::move(domain))) {}

fissione::PeerId MultiIndexFixture::random_issuer(Rng& rng) const {
  return net.alive_peers()[rng.next_index(net.alive_peers().size())];
}

std::vector<fissione::PeerId> expected_destinations(
    const fissione::FissioneNetwork& net, const kautz::KautzRegion& region) {
  std::vector<fissione::PeerId> out;
  for (fissione::PeerId p : net.alive_peers()) {
    if (region.intersects_prefix(net.peer(p).peer_id)) {
      out.push_back(p);
    }
  }
  return out;
}

std::vector<fissione::PeerId> expected_destinations(
    const fissione::FissioneNetwork& net, const kautz::PartitionTree& tree,
    const kautz::Box& box) {
  std::vector<fissione::PeerId> out;
  for (fissione::PeerId p : net.alive_peers()) {
    if (tree.box_intersects(net.peer(p).peer_id, box)) {
      out.push_back(p);
    }
  }
  return out;
}

std::unique_ptr<SingleIndexFixture> make_single_index(std::size_t n,
                                                      std::uint64_t seed,
                                                      kautz::Interval domain) {
  return std::make_unique<SingleIndexFixture>(n, seed, domain);
}

std::unique_ptr<MultiIndexFixture> make_multi_index(std::size_t n,
                                                    std::uint64_t seed,
                                                    kautz::Box domain) {
  return std::make_unique<MultiIndexFixture>(n, seed, std::move(domain));
}

std::vector<std::shared_ptr<const net::LatencyModel>> all_latency_models(
    std::uint64_t seed) {
  return {
      std::make_shared<net::ConstantHop>(),
      std::make_shared<net::UniformJitter>(seed),
      std::make_shared<net::TransitStub>(seed),
      std::make_shared<net::RttMatrix>(seed),
  };
}

SquidFixture::SquidFixture(std::size_t n, std::size_t objects,
                           std::uint64_t seed)
    : net(n, seed),
      squid(net, rq::Squid::Config{.order = 10, .min_side_bits = 4}) {
  Rng obj(seed ^ kObjectStream);
  for (std::size_t i = 0; i < objects; ++i) {
    squid.publish({obj.next_double(kPaperDomain.lo, kPaperDomain.hi),
                   obj.next_double(kPaperDomain.lo, kPaperDomain.hi)});
  }
}

ScrapFixture::ScrapFixture(std::size_t n, std::size_t objects,
                           std::uint64_t seed)
    : graph(random_keys(n, seed, 0.0, std::exp2(20.0) - 1.0), seed + 1),
      scrap(graph, rq::Scrap::Config{.order = 10, .min_side_bits = 4}) {
  Rng obj(seed ^ kObjectStream);
  for (std::size_t i = 0; i < objects; ++i) {
    scrap.publish({obj.next_double(kPaperDomain.lo, kPaperDomain.hi),
                   obj.next_double(kPaperDomain.lo, kPaperDomain.hi)});
  }
}

SkipRangeFixture::SkipRangeFixture(std::size_t n, std::size_t objects,
                                   std::uint64_t seed)
    : graph(random_keys(n, seed, kPaperDomain.lo, kPaperDomain.hi), seed + 1),
      index(graph, {kPaperDomain.lo, kPaperDomain.hi}) {
  Rng obj(seed ^ kObjectStream);
  for (std::size_t i = 0; i < objects; ++i) {
    index.publish(obj.next_double(kPaperDomain.lo, kPaperDomain.hi));
  }
}

PhtChordFixture::PhtChordFixture(std::size_t n, std::size_t objects,
                                 std::uint64_t seed)
    : net(n, seed),
      pht(rq::Pht::Config{.key_bits = 16, .leaf_capacity = 8,
                          .domain = {kPaperDomain.lo, kPaperDomain.hi}},
          [this](const std::string& label) {
            // FNV-1a of the trie label picks the ring position of the node.
            return net.route(client, fnv1a64(label)).stats;
          }) {
  Rng obj(seed ^ kObjectStream);
  for (std::size_t i = 0; i < objects; ++i) {
    pht.publish(obj.next_double(kPaperDomain.lo, kPaperDomain.hi));
  }
}

std::unique_ptr<SquidFixture> make_squid(std::size_t n, std::size_t objects,
                                         std::uint64_t seed) {
  return std::make_unique<SquidFixture>(n, objects, seed);
}

std::unique_ptr<ScrapFixture> make_scrap(std::size_t n, std::size_t objects,
                                         std::uint64_t seed) {
  return std::make_unique<ScrapFixture>(n, objects, seed);
}

std::unique_ptr<SkipRangeFixture> make_skip_range(std::size_t n,
                                                  std::size_t objects,
                                                  std::uint64_t seed) {
  return std::make_unique<SkipRangeFixture>(n, objects, seed);
}

std::unique_ptr<PhtChordFixture> make_pht_chord(std::size_t n,
                                                std::size_t objects,
                                                std::uint64_t seed) {
  return std::make_unique<PhtChordFixture>(n, objects, seed);
}

}  // namespace armada::testsupport
