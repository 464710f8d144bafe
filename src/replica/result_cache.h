// ResultCache: TTL-bounded caching of subtree range results at peers along
// query paths.
//
// Entries are keyed by (peer, tag): the tag is built by the query layer
// from the query's value bounds (a box for MIRA) plus the class
// subregion, on the premise that a query's filter is a pure function of
// its bounds. A hit serves the class without touching the region's peers;
// walks toward a replica holder truncate at the first peer holding a
// fresh entry.
//
// Currency rules (the ouinet cache_control idiom, adapted):
//   * TTL in query ticks — the subsystem's clock (see PopularityTracker).
//   * A publish invalidates every entry whose subregion contains the new
//     ObjectID, everywhere (placement in this repo is instant).
//   * A membership event invalidates the whole cache: ownership may have
//     moved arbitrarily and a stale full answer is worse than a re-query.
//   * Shed partial answers (coverage < 1) are never inserted — a cache
//     must not launder a degraded answer into a full one.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "fissione/types.h"
#include "kautz/kautz_region.h"

namespace armada::replica {

class ResultCache {
 public:
  struct Entry {
    kautz::KautzRegion subregion;  ///< for publish containment checks
    std::vector<std::uint64_t> matches;
    std::uint64_t inserted = 0;  ///< query tick of insertion
  };

  ResultCache(std::uint64_t ttl, std::size_t capacity);

  /// Fresh entry at (peer, tag) as of tick `now`, or null. Stale entries
  /// are erased lazily here.
  const Entry* lookup(fissione::PeerId peer, const std::string& tag,
                      std::uint64_t now);

  /// Insert (or refresh) an entry; evicts the oldest live insertion once
  /// capacity is exceeded. Returns false when the cache is disabled.
  bool insert(fissione::PeerId peer, const std::string& tag,
              const kautz::KautzRegion& subregion,
              std::vector<std::uint64_t> matches, std::uint64_t now);

  /// Publish invalidation: drop entries whose subregion contains the new
  /// object. Returns the number of entries dropped.
  std::size_t invalidate_object(const kautz::KautzString& object_id);

  /// Churn invalidation: drop everything. Returns the number dropped.
  std::size_t clear();

  std::size_t size() const { return entries_.size(); }

 private:
  using Key = std::pair<fissione::PeerId, std::string>;
  struct Slot {
    Entry entry;
    std::list<Key>::iterator age;  ///< the key's place in fifo_
  };
  using Slots = std::map<Key, Slot>;

  /// Drop one entry and its key in the eviction order; returns the next.
  Slots::iterator erase(Slots::iterator it);

  std::uint64_t ttl_;
  std::size_t capacity_;
  Slots entries_;          ///< ordered: deterministic iteration
  std::list<Key> fifo_;    ///< live keys, oldest insertion first
};

}  // namespace armada::replica
