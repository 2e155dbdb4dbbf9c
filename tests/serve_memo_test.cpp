// The serving front-end memo (serve/memo.hpp) and the LRU it shares with the
// schedule cache (serve/lru.hpp):
//  - keys differing in one GeneratorConfig field, base_seed, index, one
//    source byte or the seed never share an entry;
//  - over the 100-program golden grid, the cold answer, the first cache hit
//    and the memo hit are byte-identical, and equal the committed corpus;
//  - a memo hit whose schedule was evicted recomputes the cold bytes (the
//    memo's stored Rng continues the synthesis stream);
//  - verify-on-hit still proves every served schedule;
//  - one-off requests never enter the memo (admission on the second touch),
//    and no-cache / cache_entries=0 bypass it;
//  - concurrent submitters of the same hot keys agree (run under TSan by
//    the sanitizer CI jobs).
#include <gtest/gtest.h>

#include <condition_variable>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/core.hpp"
#include "serve/lru.hpp"
#include "serve/memo.hpp"

namespace bm {
namespace {

using namespace bm::serve;

Request synth_request(std::uint64_t id, std::size_t index,
                      InsertionPolicy insertion = InsertionPolicy::kConservative,
                      MachineKind machine = MachineKind::kSBM) {
  Request req;
  req.id = id;
  req.verb = Verb::kSynth;
  req.base_seed = 1990;
  req.index = index;
  req.sched.insertion = insertion;
  req.sched.machine = machine;
  return req;
}

Request source_request(std::uint64_t id, std::string source,
                       std::uint64_t seed) {
  Request req;
  req.id = id;
  req.verb = Verb::kSchedule;
  req.source = std::move(source);
  req.seed = seed;
  return req;
}

/// Everything but the cache outcome, which differs by design.
std::string response_key(const Response& r) {
  Response c = r;
  c.cache = CacheOutcome::kBypass;
  return encode_response(c);
}

/// The schedule text of every seed in a tests/golden corpus file.
std::vector<std::string> golden_schedules(const std::string& combo) {
  std::ifstream in(std::string(BM_GOLDEN_DIR) + "/" + combo + ".txt",
                   std::ios::binary);
  std::vector<std::string> out;
  std::string line;
  std::getline(in, line);  // corpus header
  while (std::getline(in, line)) {
    if (line.rfind("=== seed ", 0) == 0) {
      out.emplace_back();
      continue;
    }
    if (!out.empty()) out.back() += line + "\n";
  }
  return out;
}

TEST(BoundedLru, EvictsLeastRecentlyUsedUnderBothBounds) {
  struct Hash {
    std::size_t operator()(int k) const { return static_cast<std::size_t>(k); }
  };
  BoundedLru<int, std::string, Hash> lru(3, 0);
  EXPECT_EQ(lru.put(1, "a", 0), 0u);
  EXPECT_EQ(lru.put(2, "b", 0), 0u);
  EXPECT_EQ(lru.put(3, "c", 0), 0u);
  ASSERT_NE(lru.find(1), nullptr);  // 1 is now most recent; 2 is oldest
  EXPECT_EQ(lru.put(4, "d", 0), 1u);
  EXPECT_EQ(lru.find(2), nullptr);
  EXPECT_EQ(*lru.find(1), "a");
  EXPECT_EQ(lru.put(1, "A", 0), 0u) << "a replaced entry is not an eviction";
  EXPECT_EQ(*lru.find(1), "A");
  EXPECT_EQ(lru.size(), 3u);

  // Byte bound: each entry charges its node plus its heap bytes; the newest
  // entry always survives.
  BoundedLru<int, std::string, Hash> small(100, 1);
  EXPECT_EQ(small.put(1, "a", 10), 0u);
  EXPECT_EQ(small.put(2, "b", 10), 1u);
  EXPECT_EQ(small.size(), 1u);
  EXPECT_NE(small.find(2), nullptr);
  small.clear();
  EXPECT_EQ(small.size(), 0u);
  EXPECT_EQ(small.bytes(), 0u);

  BoundedLru<int, std::string, Hash> off(0, 0);
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.put(1, "a", 0), 0u);
  EXPECT_EQ(off.find(1), nullptr);
}

TEST(FrontEndMemo, KeysDistinguishEveryRequestField) {
  const Request base = synth_request(1, 3);
  std::vector<Request> variants;
  for (int field = 0; field < 7; ++field) {
    Request r = base;
    switch (field) {
      case 0: ++r.gen.num_statements; break;
      case 1: ++r.gen.num_variables; break;
      case 2: ++r.gen.num_constants; break;
      case 3: r.gen.const_operand_prob = 0.25; break;
      case 4: ++r.gen.const_max; break;
      case 5: ++r.base_seed; break;
      case 6: ++r.index; break;
    }
    variants.push_back(r);
  }
  const std::string src = "c = a + b;\nf = d * e;\ng = c + f;\n";
  const Request sbase = source_request(2, src, 7);
  Request byte = sbase;
  byte.source[6] = '-';  // c = a - b
  Request space = sbase;
  space.source += ' ';   // same program, different bytes
  Request seed = sbase;
  ++seed.seed;

  const FrontEndKey k = FrontEndKey::of(base);
  const FrontEndKey sk = FrontEndKey::of(sbase);
  EXPECT_EQ(k, FrontEndKey::of(base));
  EXPECT_FALSE(k == sk);
  for (const Request& v : variants) EXPECT_FALSE(FrontEndKey::of(v) == k);
  for (const Request* v : {&byte, &space, &seed})
    EXPECT_FALSE(FrontEndKey::of(*v) == sk);
  // The scheduler configuration is not part of the front end.
  Request other_policy = base;
  other_policy.sched.insertion = InsertionPolicy::kOptimal;
  other_policy.sched.num_procs = 4;
  EXPECT_EQ(FrontEndKey::of(other_policy), k);

  // End to end: with both bases admitted, no variant is served from them,
  // and each variant's answers match a memo-free core's.
  CoreConfig cfg;
  cfg.workers = 1;
  ServeCore core(cfg);
  ServeCore reference(cfg);
  for (const Request* r : {&base, &sbase}) {
    core.handle(*r);
    ASSERT_EQ(core.handle(*r).cache, CacheOutcome::kHit);
  }
  ASSERT_EQ(core.stats().memo.entries, 2u);
  variants.push_back(byte);
  variants.push_back(space);
  variants.push_back(seed);
  std::size_t same_program = 0;
  for (const Request& v : variants) {
    const std::uint64_t hits = core.stats().memo.hits;
    const Response first = core.handle(v);
    ASSERT_EQ(first.status, Status::kOk) << first.error;
    EXPECT_EQ(core.stats().memo.hits, hits) << "variant shared an entry";
    Request fresh = v;
    fresh.no_cache = true;
    EXPECT_EQ(response_key(first), response_key(reference.handle(fresh)));
    // A variant compiling to an already-cached program is admitted on its
    // first touch; any other on its second.
    const bool cached = first.cache == CacheOutcome::kHit;
    same_program += cached ? 1 : 0;
    core.handle(v);
    const Response memo = core.handle(v);
    EXPECT_EQ(core.stats().memo.hits, hits + (cached ? 2 : 1));
    EXPECT_EQ(response_key(memo), response_key(first));
  }
  // Only `space` compiles to a cached program (sbase's), yet it still got
  // an entry of its own.
  EXPECT_EQ(same_program, 1u);
  EXPECT_EQ(core.stats().memo.entries, 2u + variants.size());
}

TEST(FrontEndMemo, ColdFirstHitAndMemoHitMatchGoldenGrid) {
  CoreConfig cfg;
  cfg.workers = 2;
  ServeCore core(cfg);
  const struct {
    const char* name;
    InsertionPolicy insertion;
    MachineKind machine;
  } combos[] = {
      {"conservative_sbm", InsertionPolicy::kConservative, MachineKind::kSBM},
      {"conservative_dbm", InsertionPolicy::kConservative, MachineKind::kDBM},
      {"optimal_sbm", InsertionPolicy::kOptimal, MachineKind::kSBM},
      {"optimal_dbm", InsertionPolicy::kOptimal, MachineKind::kDBM},
  };
  std::uint64_t id = 0;
  std::size_t checked = 0;
  for (const auto& c : combos) {
    const std::vector<std::string> golden = golden_schedules(c.name);
    ASSERT_EQ(golden.size(), 25u) << c.name;
    for (std::size_t i = 0; i < golden.size(); ++i) {
      const Request req = synth_request(++id, i, c.insertion, c.machine);
      // From the second combo on, the first request is already a memo hit
      // (the front end does not depend on the policy) over a schedule-cache
      // miss: the memo's Rng must continue the stream exactly.
      const Response cold = core.handle(req);
      const Response hit = core.handle(req);
      const Response memo = core.handle(req);
      ASSERT_EQ(cold.status, Status::kOk) << cold.error;
      EXPECT_EQ(cold.cache, CacheOutcome::kMiss);
      EXPECT_EQ(hit.cache, CacheOutcome::kHit);
      EXPECT_EQ(memo.cache, CacheOutcome::kHit);
      EXPECT_EQ(cold.body, golden[i]) << c.name << " seed " << i;
      EXPECT_EQ(response_key(hit), response_key(cold)) << c.name << " " << i;
      EXPECT_EQ(response_key(memo), response_key(cold)) << c.name << " " << i;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 100u);
  const CoreStats s = core.stats();
  EXPECT_EQ(s.cache.misses, 100u);
  EXPECT_EQ(s.cache.hits, 200u);
  EXPECT_EQ(s.memo.admissions, 25u);
  EXPECT_EQ(s.memo.misses, 50u);
  EXPECT_EQ(s.memo.hits, 250u);
}

TEST(FrontEndMemo, MemoHitAfterScheduleEvictionReproducesColdBytes) {
  CoreConfig cfg;
  cfg.workers = 1;
  cfg.cache_entries = 2;
  ServeCore core(cfg);
  const std::string src = "c = a + b;\nf = d * e;\ng = c + f;\nh = g * a;\n";
  std::size_t round = 0;
  for (const Request& a : {synth_request(1, 4), source_request(1, src, 9)}) {
    const Response cold = core.handle(a);
    ASSERT_EQ(core.handle(a).cache, CacheOutcome::kHit);  // admits a
    // Two one-off cold requests push a's schedule out of the cache.
    ++round;
    core.handle(synth_request(2, 100 * round));
    core.handle(synth_request(3, 100 * round + 1));
    const CoreStats before = core.stats();
    const Response again = core.handle(a);
    const CoreStats after = core.stats();
    EXPECT_EQ(after.memo.hits, before.memo.hits + 1);
    EXPECT_EQ(again.cache, CacheOutcome::kMiss) << "schedule was evicted";
    EXPECT_EQ(response_key(again), response_key(cold));
  }
}

TEST(FrontEndMemo, VerifyOnHitReportsNoErrors) {
  CoreConfig cfg;
  cfg.workers = 1;
  ServeCore core(cfg);
  for (std::size_t i = 0; i < 10; ++i) {
    Request req = synth_request(i, i, InsertionPolicy::kOptimal,
                                MachineKind::kDBM);
    req.verify = true;
    for (int touch = 0; touch < 3; ++touch) {
      const Response r = core.handle(req);
      ASSERT_EQ(r.status, Status::kOk) << r.error;
      EXPECT_EQ(r.verify_errors, 0u) << "seed " << i << " touch " << touch;
    }
  }
  Request sreq = source_request(99, "b = a + a;\nc = b * 3;\nd = c - a;\n", 5);
  sreq.verify = true;
  for (int touch = 0; touch < 3; ++touch)
    EXPECT_EQ(core.handle(sreq).verify_errors, 0u);
  EXPECT_EQ(core.stats().memo.hits, 11u);
}

TEST(FrontEndMemo, OneOffRequestsNeverEnterAndBypassesSkipIt) {
  CoreConfig cfg;
  cfg.workers = 1;
  ServeCore core(cfg);
  for (std::size_t i = 0; i < 1000; ++i) {
    Request req = synth_request(i, 5000 + i);
    req.gen.num_statements = 10;
    ASSERT_EQ(core.handle(req).cache, CacheOutcome::kMiss);
  }
  CoreStats s = core.stats();
  EXPECT_EQ(s.memo.entries, 0u);
  EXPECT_EQ(s.memo.bytes, 0u);
  EXPECT_EQ(s.memo.admissions, 0u);
  EXPECT_EQ(s.memo.misses, 1000u);

  // no-cache requests touch neither the memo nor the cache.
  Request bypass = synth_request(1, 7);
  bypass.no_cache = true;
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(core.handle(bypass).cache, CacheOutcome::kBypass);
  s = core.stats();
  EXPECT_EQ(s.memo.misses, 1000u);
  EXPECT_EQ(s.memo.hits, 0u);

  // cache_entries = 0 turns the memo off with the cache.
  CoreConfig off_cfg;
  off_cfg.workers = 1;
  off_cfg.cache_entries = 0;
  ServeCore off(off_cfg);
  for (int i = 0; i < 3; ++i) off.handle(synth_request(1, 7));
  const MemoStats m = off.stats().memo;
  EXPECT_EQ(m.hits + m.misses + m.admissions + m.entries, 0u);
}

TEST(FrontEndMemo, ConcurrentSubmittersOfHotKeysAgree) {
  constexpr std::size_t kHot = 6;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 12;
  std::vector<Request> hot;
  for (std::size_t k = 0; k < kHot; ++k) {
    hot.push_back(k % 2 == 0
                      ? synth_request(k, k)
                      : source_request(k, "c = a + b;\nd = c * " +
                                              std::to_string(k + 2) + ";\n",
                                       k));
  }
  std::vector<std::string> expect;
  {
    CoreConfig cfg;
    cfg.workers = 1;
    ServeCore reference(cfg);
    for (Request r : hot) {
      r.no_cache = true;
      expect.push_back(response_key(reference.handle(r)));
    }
  }

  CoreConfig cfg;
  cfg.workers = 3;
  cfg.cache_entries = 4;  // below the hot set: eviction races lookups
  ServeCore core(cfg);
  std::vector<std::vector<std::string>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kRounds * kHot; ++i) {
        const std::size_t k = (i + t) % kHot;
        // Half the threads go through the worker pool, half run inline.
        if (t % 2 == 0) {
          got[t].push_back(std::to_string(k) + ":" +
                           response_key(core.handle(hot[k])));
          continue;
        }
        std::mutex mu;
        std::condition_variable cv;
        bool done = false;
        Response resp;
        core.submit(hot[k], [&](const Response& r) {
          std::lock_guard<std::mutex> lock(mu);
          resp = r;
          done = true;
          cv.notify_one();
        });
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done; });
        got[t].push_back(std::to_string(k) + ":" + response_key(resp));
      }
    });
  for (std::thread& th : threads) th.join();
  core.drain();

  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), kRounds * kHot);
    for (const std::string& g : got[t]) {
      const std::size_t k = std::stoul(g.substr(0, g.find(':')));
      EXPECT_EQ(g.substr(g.find(':') + 1), expect[k]) << "thread " << t;
    }
  }
  const CoreStats s = core.stats();
  EXPECT_EQ(s.errors, 0u);
  EXPECT_EQ(s.memo.hits + s.memo.misses, kThreads * kRounds * kHot);
  EXPECT_GT(s.memo.hits, 0u);
  EXPECT_LE(s.memo.entries, 4u);
}

}  // namespace
}  // namespace bm
