// Deterministic, seeded network builders shared by the test suites.
//
// Most suites need the same scaffolding: a FISSIONE overlay of a given size,
// an ArmadaIndex layered on it, and a few hundred published objects. These
// helpers build that scaffolding from an explicit seed so every suite stays
// reproducible, and so the suites stop re-instantiating networks ad hoc.
//
// ArmadaIndex holds references into its network, so the bundles below are
// pinned to the heap (unique_ptr) and neither copyable nor movable.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "armada/armada.h"
#include "chord/chord.h"
#include "fissione/network.h"
#include "kautz/partition_tree.h"
#include "net/latency_model.h"
#include "rq/pht.h"
#include "rq/scrap.h"
#include "rq/skipgraph_rq.h"
#include "rq/squid.h"
#include "skipgraph/skipgraph.h"
#include "util/rng.h"

namespace armada::testsupport {

/// The paper's attribute interval (§4.3.3): every experiment uses [0, 1000].
inline constexpr kautz::Interval kPaperDomain{0.0, 1000.0};

/// A FISSIONE overlay plus a single-attribute Armada index over it.
struct SingleIndexFixture {
  SingleIndexFixture(std::size_t n, std::uint64_t seed,
                     kautz::Interval domain);
  SingleIndexFixture(const SingleIndexFixture&) = delete;
  SingleIndexFixture& operator=(const SingleIndexFixture&) = delete;

  fissione::FissioneNetwork net;
  core::ArmadaIndex index;

  /// Uniformly chosen alive peer (deterministic given `rng`).
  fissione::PeerId random_issuer(Rng& rng) const;
};

/// A FISSIONE overlay plus a multi-attribute Armada index over it.
struct MultiIndexFixture {
  MultiIndexFixture(std::size_t n, std::uint64_t seed, kautz::Box domain);
  MultiIndexFixture(const MultiIndexFixture&) = delete;
  MultiIndexFixture& operator=(const MultiIndexFixture&) = delete;

  fissione::FissioneNetwork net;
  core::ArmadaIndex index;

  fissione::PeerId random_issuer(Rng& rng) const;
};

/// n-peer overlay + single-attribute index over the paper's [0, 1000].
std::unique_ptr<SingleIndexFixture> make_single_index(
    std::size_t n, std::uint64_t seed, kautz::Interval domain = kPaperDomain);

/// n-peer overlay + multi-attribute index over `domain`.
std::unique_ptr<MultiIndexFixture> make_multi_index(std::size_t n,
                                                    std::uint64_t seed,
                                                    kautz::Box domain);

/// PIRA's ground truth: the alive peers in charge of `region`, i.e. those
/// whose PeerID prefixes some string of it.
std::vector<fissione::PeerId> expected_destinations(
    const fissione::FissioneNetwork& net, const kautz::KautzRegion& region);

/// MIRA's ground truth: the alive peers whose zone subspace under `tree`
/// intersects `box`.
std::vector<fissione::PeerId> expected_destinations(
    const fissione::FissioneNetwork& net, const kautz::PartitionTree& tree,
    const kautz::Box& box);

/// One instance of every transport latency model, seeded deterministically —
/// the sweep the latency regression/determinism suites iterate over. Note:
/// each seeded model takes `seed` verbatim here, whereas the bench-side
/// bench::all_latency_models derives per-model seeds with xor offsets — the
/// two sweeps do not produce identical link latencies for equal seeds.
std::vector<std::shared_ptr<const net::LatencyModel>> all_latency_models(
    std::uint64_t seed);

// --- baseline-scheme fixtures ----------------------------------------------
// Each bundles a baseline DHT with the range-query engine layered on it and
// a seeded published workload, exactly as the cross-scheme comparisons use
// them. Like the Armada fixtures above, engines hold references into their
// networks, so the bundles are heap-pinned and neither copyable nor movable.

/// Chord ring + Squid index with `objects` published 2-d points (paper
/// domain on both attributes).
struct SquidFixture {
  SquidFixture(std::size_t n, std::size_t objects, std::uint64_t seed);
  SquidFixture(const SquidFixture&) = delete;
  SquidFixture& operator=(const SquidFixture&) = delete;

  chord::ChordNetwork net;
  rq::Squid squid;
};

/// Skip graph over curve-position keys + SCRAP index with `objects`
/// published 2-d points.
struct ScrapFixture {
  ScrapFixture(std::size_t n, std::size_t objects, std::uint64_t seed);
  ScrapFixture(const ScrapFixture&) = delete;
  ScrapFixture& operator=(const ScrapFixture&) = delete;

  skipgraph::SkipGraph graph;
  rq::Scrap scrap;
};

/// Skip graph keyed in the paper domain + native range index with `objects`
/// published values.
struct SkipRangeFixture {
  SkipRangeFixture(std::size_t n, std::size_t objects, std::uint64_t seed);
  SkipRangeFixture(const SkipRangeFixture&) = delete;
  SkipRangeFixture& operator=(const SkipRangeFixture&) = delete;

  skipgraph::SkipGraph graph;
  rq::SkipGraphRangeIndex index;
};

/// PHT whose trie-node lookups route on a Chord ring from `client` (set it
/// before each query to model the issuing peer), with `objects` published
/// values.
struct PhtChordFixture {
  PhtChordFixture(std::size_t n, std::size_t objects, std::uint64_t seed);
  PhtChordFixture(const PhtChordFixture&) = delete;
  PhtChordFixture& operator=(const PhtChordFixture&) = delete;

  chord::ChordNetwork net;
  chord::NodeId client = 0;
  rq::Pht pht;
};

std::unique_ptr<SquidFixture> make_squid(std::size_t n, std::size_t objects,
                                         std::uint64_t seed);
std::unique_ptr<ScrapFixture> make_scrap(std::size_t n, std::size_t objects,
                                         std::uint64_t seed);
std::unique_ptr<SkipRangeFixture> make_skip_range(std::size_t n,
                                                  std::size_t objects,
                                                  std::uint64_t seed);
std::unique_ptr<PhtChordFixture> make_pht_chord(std::size_t n,
                                                std::size_t objects,
                                                std::uint64_t seed);

}  // namespace armada::testsupport
