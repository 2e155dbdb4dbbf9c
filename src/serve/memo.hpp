// FrontEndMemo: bounded, thread-safe memo of bmserve's request front end.
//
// Before a scheduling request can probe the schedule cache it needs the
// cache key, and that key comes out of the front end: synthesis (or `.bm`
// compilation), optimization and WL canonicalization (serve/fingerprint.hpp).
// That front end costs several times the cache probe itself. The memo maps
// the *exact request identity* to its front-end result, so a repeated
// request goes straight to the schedule cache:
//   - synth requests: the five GeneratorConfig fields, base_seed, index;
//   - schedule requests: the source bytes and the tie-break seed.
// Keys compare in full, never by hash alone, and leave out the scheduler
// configuration: the front end does not depend on it, so one entry serves
// every policy/machine a program is scheduled under.
//
// Each entry holds the optimized program, the scheduler's Rng state right
// after synthesis (a cold schedule after a memo hit continues the harness
// stream bit for bit), the RNG identity folded into the cache key, and the
// canonical form. The schedule cache still byte-checks the canonical bytes
// on every probe.
//
// Admission is on the *second* touch: ServeCore admits a request's front
// end only when the request is answered from the schedule cache. One-off
// cold requests never enter, so a stream of fresh requests cannot flush
// the hot entries out (docs/SERVING.md). Entry and byte bounds are the
// schedule cache's; eviction is LRU (serve/lru.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "ir/program.hpp"
#include "serve/fingerprint.hpp"
#include "serve/lru.hpp"
#include "serve/protocol.hpp"
#include "support/ordered_mutex.hpp"
#include "support/rng.hpp"

namespace bm::serve {

/// The RNG identity folded into a request's schedule-cache key: everything
/// that shapes the scheduler's tie-break stream (generator config, base
/// seed and index for synth; the seed for schedule).
std::uint64_t request_rng_key(const Request& req);

/// What the front end computes for one scheduling request.
struct FrontEnd {
  Program program;  ///< optimized
  Rng rng;          ///< the scheduler's stream, positioned after synthesis
  std::uint64_t rng_key = 0;
  CanonicalProgram canon;
  std::string fingerprint_hex;
};

/// The exact identity of a scheduling request's front end.
struct FrontEndKey {
  Verb verb = Verb::kSynth;
  GeneratorConfig gen;          ///< synth
  std::uint64_t base_seed = 0;  ///< synth
  std::size_t index = 0;        ///< synth
  std::string source;           ///< schedule
  std::uint64_t seed = 0;       ///< schedule
  std::uint64_t hash = 0;       ///< of the fields above, computed once

  static FrontEndKey of(const Request& req);
  bool operator==(const FrontEndKey& o) const;
};

struct MemoStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t admissions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;  ///< current
  std::uint64_t bytes = 0;    ///< current footprint
};

class FrontEndMemo {
 public:
  /// Same bounds as ScheduleCache; `max_entries` == 0 disables the memo.
  FrontEndMemo(std::size_t max_entries, std::size_t max_bytes);

  bool enabled() const { return lru_.enabled(); }

  /// The memoized front end for `key`, or nullptr.
  std::shared_ptr<const FrontEnd> lookup(const FrontEndKey& key);

  /// Admits `fe` as `key`'s front end; replaces an entry a racing request
  /// admitted first. Call only when enabled().
  void admit(FrontEndKey key, std::shared_ptr<const FrontEnd> fe);

  MemoStats stats() const;

 private:
  struct KeyHash {
    std::size_t operator()(const FrontEndKey& k) const {
      return static_cast<std::size_t>(k.hash);
    }
  };

  /// A leaf: held only around the LRU update, never while another serve
  /// lock is taken.
  mutable OrderedMutex mu_{LockLevel::kFrontEndMemo, "FrontEndMemo.mu"};
  BoundedLru<FrontEndKey, std::shared_ptr<const FrontEnd>, KeyHash> lru_;
  MemoStats stats_;  ///< entries/bytes are read from lru_ on demand
};

}  // namespace bm::serve
