#include "replica/result_cache.h"

#include <utility>

#include "util/check.h"

namespace armada::replica {

ResultCache::ResultCache(std::uint64_t ttl, std::size_t capacity)
    : ttl_(ttl), capacity_(capacity) {
  ARMADA_CHECK(capacity_ > 0);
}

ResultCache::Slots::iterator ResultCache::erase(Slots::iterator it) {
  fifo_.erase(it->second.age);
  return entries_.erase(it);
}

const ResultCache::Entry* ResultCache::lookup(fissione::PeerId peer,
                                              const std::string& tag,
                                              std::uint64_t now) {
  if (ttl_ == 0) {
    return nullptr;
  }
  const auto it = entries_.find(Key{peer, tag});
  if (it == entries_.end()) {
    return nullptr;
  }
  if (now - it->second.entry.inserted >= ttl_) {
    erase(it);
    return nullptr;
  }
  return &it->second.entry;
}

bool ResultCache::insert(fissione::PeerId peer, const std::string& tag,
                         const kautz::KautzRegion& subregion,
                         std::vector<std::uint64_t> matches,
                         std::uint64_t now) {
  if (ttl_ == 0) {
    return false;
  }
  Key key{peer, tag};
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Refresh in place; the key keeps its original FIFO position.
    it->second.entry.matches = std::move(matches);
    it->second.entry.inserted = now;
    return true;
  }
  while (entries_.size() >= capacity_) {
    erase(entries_.find(fifo_.front()));
  }
  const auto age = fifo_.insert(fifo_.end(), key);
  entries_.emplace(std::move(key),
                   Slot{Entry{subregion, std::move(matches), now}, age});
  return true;
}

std::size_t ResultCache::invalidate_object(
    const kautz::KautzString& object_id) {
  std::size_t dropped = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.entry.subregion.contains(object_id)) {
      it = erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

std::size_t ResultCache::clear() {
  const std::size_t dropped = entries_.size();
  entries_.clear();
  fifo_.clear();
  return dropped;
}

}  // namespace armada::replica
