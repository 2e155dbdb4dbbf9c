#include "serve/cache.hpp"

#include "obs/obs.hpp"
#include "serve/fingerprint.hpp"

namespace bm::serve {

ScheduleCache::ScheduleCache(std::size_t max_entries, std::size_t max_bytes)
    : lru_(max_entries, max_bytes) {}

ScheduleCache::Hit ScheduleCache::lookup(
    std::uint64_t fingerprint, std::uint64_t config_digest,
    const std::string& canonical_bytes,
    std::span<const std::uint32_t> canon_to_request) {
  std::string text_canonical;
  ScheduleStats stats;
  {
    OrderedLock lock(mu_);
    const Entry* e = lru_.find(Key{fingerprint, config_digest});
    if (e == nullptr) {
      ++stats_.misses;
      BM_OBS_COUNT("cache.miss");
      return {};
    }
    if (e->canonical_bytes != canonical_bytes) {
      // Same 64-bit fingerprint, different canonical program: either a hash
      // collision or a WL-unresolved automorphism tie. Correctness demands
      // a miss; the caller recomputes and insert() replaces this entry.
      ++stats_.misses;
      ++stats_.collisions;
      BM_OBS_COUNT("cache.miss");
      BM_OBS_COUNT("cache.collision");
      return {};
    }
    ++stats_.hits;
    BM_OBS_COUNT("cache.hit");
    text_canonical = e->schedule_text;
    stats = e->stats;
  }
  // Rewrite outside the lock: O(text) work that needs no cache state.
  Hit hit;
  hit.found = true;
  hit.schedule_text = rewrite_schedule_ids(text_canonical, canon_to_request);
  hit.stats = stats;
  return hit;
}

void ScheduleCache::insert(std::uint64_t fingerprint,
                           std::uint64_t config_digest,
                           std::string canonical_bytes,
                           std::string schedule_text_canonical,
                           const ScheduleStats& stats) {
  if (!lru_.enabled()) return;
  const std::size_t heap_bytes =
      canonical_bytes.size() + schedule_text_canonical.size();
  Entry e{std::move(canonical_bytes), std::move(schedule_text_canonical),
          stats};

  // A colliding or racing insert replaces the entry: keep the newest
  // computation.
  OrderedLock lock(mu_);
  const std::size_t evicted =
      lru_.put(Key{fingerprint, config_digest}, std::move(e), heap_bytes);
  ++stats_.insertions;
  stats_.evictions += evicted;
  BM_OBS_COUNT("cache.insert");
  if (evicted > 0) BM_OBS_COUNT_N("cache.evict", evicted);
}

CacheStats ScheduleCache::stats() const {
  OrderedLock lock(mu_);
  CacheStats out = stats_;
  out.entries = lru_.size();
  out.bytes = lru_.bytes();
  return out;
}

void ScheduleCache::clear() {
  OrderedLock lock(mu_);
  lru_.clear();
}

}  // namespace bm::serve
