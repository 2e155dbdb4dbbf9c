#include "serve/memo.hpp"

#include <cstring>
#include <functional>
#include <string_view>

#include "obs/obs.hpp"

namespace bm::serve {

namespace {

constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

constexpr std::uint64_t mix2(std::uint64_t a, std::uint64_t b) {
  return mix64(a ^ (b * 0xD6E8FEB86659FD93ull));
}

std::uint64_t double_bits(double d) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Everything that shapes synthesis output, folded into the RNG identity:
/// the synthesis draws advance the stream the scheduler then continues, so
/// the cache key must distinguish generator configurations even for the
/// (fingerprint-identical) programs they might coincide on.
std::uint64_t gen_digest(const GeneratorConfig& g) {
  std::uint64_t h = mix64(0x6E6Eull);
  h = mix2(h, g.num_statements);
  h = mix2(h, g.num_variables);
  h = mix2(h, g.num_constants);
  h = mix2(h, double_bits(g.const_operand_prob));
  return mix2(h, static_cast<std::uint64_t>(g.const_max));
}

/// Bytes a key's and an entry's containers own beyond their own objects:
/// what the memo charges against the byte bound besides the LRU node.
std::size_t heap_bytes(const FrontEndKey& key, const FrontEnd& fe) {
  return key.source.capacity() + sizeof(FrontEnd) +
         fe.program.size() * sizeof(Tuple) + fe.canon.bytes.capacity() +
         (fe.canon.perm.size() + fe.canon.inv_perm.size()) *
             sizeof(std::uint32_t) +
         fe.fingerprint_hex.capacity();
}

}  // namespace

std::uint64_t request_rng_key(const Request& req) {
  if (req.verb == Verb::kSynth)
    return mix2(mix2(req.base_seed, req.index), gen_digest(req.gen));
  return mix2(0x5C4Ed01Eull, req.seed);
}

FrontEndKey FrontEndKey::of(const Request& req) {
  FrontEndKey k;
  k.verb = req.verb;
  if (req.verb == Verb::kSynth) {
    k.gen = req.gen;
    k.base_seed = req.base_seed;
    k.index = req.index;
  } else {
    k.source = req.source;
    k.seed = req.seed;
  }
  k.hash = mix2(request_rng_key(req),
                std::hash<std::string_view>{}(k.source));
  return k;
}

bool FrontEndKey::operator==(const FrontEndKey& o) const {
  // Doubles compare by bits, as gen_digest hashes them: -0.0 and 0.0 are
  // distinct keys, and a NaN key still equals itself.
  return verb == o.verb && gen.num_statements == o.gen.num_statements &&
         gen.num_variables == o.gen.num_variables &&
         gen.num_constants == o.gen.num_constants &&
         double_bits(gen.const_operand_prob) ==
             double_bits(o.gen.const_operand_prob) &&
         gen.const_max == o.gen.const_max && base_seed == o.base_seed &&
         index == o.index && seed == o.seed && source == o.source;
}

FrontEndMemo::FrontEndMemo(std::size_t max_entries, std::size_t max_bytes)
    : lru_(max_entries, max_bytes) {}

std::shared_ptr<const FrontEnd> FrontEndMemo::lookup(const FrontEndKey& key) {
  OrderedLock lock(mu_);
  const std::shared_ptr<const FrontEnd>* fe = lru_.find(key);
  if (fe == nullptr) {
    ++stats_.misses;
    BM_OBS_COUNT("memo.miss");
    return nullptr;
  }
  ++stats_.hits;
  BM_OBS_COUNT("memo.hit");
  return *fe;
}

void FrontEndMemo::admit(FrontEndKey key, std::shared_ptr<const FrontEnd> fe) {
  const std::size_t bytes = heap_bytes(key, *fe);
  OrderedLock lock(mu_);
  const std::size_t evicted = lru_.put(std::move(key), std::move(fe), bytes);
  ++stats_.admissions;
  stats_.evictions += evicted;
  BM_OBS_COUNT("memo.admit");
  if (evicted > 0) BM_OBS_COUNT_N("memo.evict", evicted);
}

MemoStats FrontEndMemo::stats() const {
  OrderedLock lock(mu_);
  MemoStats out = stats_;
  out.entries = lru_.size();
  out.bytes = lru_.bytes();
  return out;
}

}  // namespace bm::serve
