// Bounded, thread-safe LRU cache of computed schedules, keyed by canonical
// program fingerprint + configuration digest (serve/fingerprint.hpp).
//
// Entries store the schedule *in canonical instruction numbering* plus the
// canonical byte serialization that produced them. A lookup therefore
// serves requests whose programs are arbitrary renumberings of a cached
// one: the caller canonicalizes its program, probes with the fingerprint,
// and the cache (a) verifies the request's canonical bytes equal the
// entry's — a WL hash collision or unresolved automorphism tie degrades to
// a miss, never a wrong schedule — and (b) returns the schedule text
// rewritten into the request's own numbering via its inverse permutation.
//
// Capacity is bounded both by entry count and by total byte footprint
// (canonical bytes + schedule text); eviction is strict LRU
// (serve/lru.hpp). All methods are safe to call from any worker thread.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "sched/scheduler.hpp"
#include "serve/lru.hpp"
#include "support/ordered_mutex.hpp"

namespace bm::serve {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t collisions = 0;  ///< fingerprint matched, bytes differed
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;  ///< current
  std::uint64_t bytes = 0;    ///< current footprint
};

class ScheduleCache {
 public:
  /// `max_entries` == 0 disables the cache (every probe misses, inserts
  /// are dropped); `max_bytes` bounds the summed entry footprints.
  ScheduleCache(std::size_t max_entries, std::size_t max_bytes);

  struct Hit {
    bool found = false;
    std::string schedule_text;  ///< in the *request's* numbering
    ScheduleStats stats;
  };

  /// Probes for (fingerprint, config_digest). `canonical_bytes` is the
  /// request program's canonical serialization; `canon_to_request` maps
  /// canonical index -> request instruction id (CanonicalProgram::inv_perm).
  Hit lookup(std::uint64_t fingerprint, std::uint64_t config_digest,
             const std::string& canonical_bytes,
             std::span<const std::uint32_t> canon_to_request);

  /// Inserts a freshly computed schedule. `schedule_text_canonical` must
  /// already be in canonical numbering (rewrite_schedule_ids with
  /// CanonicalProgram::perm). Replaces any colliding entry.
  void insert(std::uint64_t fingerprint, std::uint64_t config_digest,
              std::string canonical_bytes, std::string schedule_text_canonical,
              const ScheduleStats& stats);

  CacheStats stats() const;
  void clear();

 private:
  struct Key {
    std::uint64_t fp = 0;
    std::uint64_t cfg = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(k.fp ^ (k.cfg * 0x9E3779B97F4A7C15ull));
    }
  };
  struct Entry {
    std::string canonical_bytes;
    std::string schedule_text;  ///< canonical numbering
    ScheduleStats stats;
  };

  mutable OrderedMutex mu_{LockLevel::kScheduleCache, "ScheduleCache.mu"};
  BoundedLru<Key, Entry, KeyHash> lru_;
  CacheStats stats_;  ///< entries/bytes are read from lru_ on demand
};

}  // namespace bm::serve
