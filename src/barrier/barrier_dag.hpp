// The barrier dag (B, <_b) of §3.1/§4.4, built from per-processor barrier
// chains. Provides every static-timing query the insertion algorithms need:
//
//  - edge ranges with the Fig. 13 aggregation rule (a barrier edge traversed
//    by several processors takes the max of the segment minima AND the max of
//    the segment maxima — no processor proceeds until all arrive),
//  - barrier fire-time ranges [B_min, B_max] from the initial barrier,
//  - reachability (PathFind, §4.4.1 step 1),
//  - the dominator tree / nearest common dominating barrier (step 2),
//  - longest-path queries ψ_max, ψ_min, the overlap-adjusted ψ*_min, and
//    ordered enumeration of k-longest max-paths (§4.4.2),
//  - the §4.4.3 merge candidates: unordered pairs with overlapping fire
//    ranges.
//
// Besides the full build from chains, the dag is kept current under the two
// mutations the list scheduler performs — splicing a new barrier into some
// chains (add_barrier) and unifying two unordered barriers (merge). Both
// recompute fire ranges, dominators and the topological order only over the
// changed barrier's descendants, extend reachability only over its
// ancestors, and drop only the ψ rows whose source reaches the change.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/paths.hpp"
#include "ir/timing.hpp"

namespace bm {

using BarrierId = std::uint32_t;
inline constexpr BarrierId kInvalidBarrier = ~BarrierId{0};

/// One processor's view: the barriers it participates in, in stream order
/// (starting with the initial barrier), and the execution-time range of the
/// code between each consecutive pair.
struct BarrierChainInput {
  std::vector<BarrierId> barriers;  ///< size >= 1; barriers[0] == initial
  std::vector<TimeRange> segments;  ///< size == barriers.size() - 1
};

class BarrierDag {
 public:
  /// `num_barrier_ids` bounds the id space; ids not appearing in any chain
  /// are unknown. Every chain must begin with `initial`. `barrier_latency`
  /// is the hardware cost from the last arrival to the synchronized release
  /// (the paper's experiments assume 0, §5; the companion hardware paper
  /// motivates small nonzero values) — it is charged once per barrier hop
  /// in every fire-range and ψ-path computation.
  BarrierDag(std::size_t num_barrier_ids, BarrierId initial,
             std::span<const BarrierChainInput> chains,
             Time barrier_latency = 0);

  /// The destructor folds the ψ-cache hit/miss tallies into the global
  /// metric registry (`barrier.psi_cache_{hits,misses}`). Moves stay
  /// defaulted: PsiTally transfers its counts and zeroes the source, so the
  /// tallies are counted exactly once.
  ~BarrierDag();
  BarrierDag(BarrierDag&&) = default;
  BarrierDag& operator=(BarrierDag&&) = default;

  // --- incremental updates ---------------------------------------------------
  /// Where add_barrier() splices the new barrier into one chain: between
  /// `pred` and `succ` (kInvalidBarrier: the new barrier ends the chain),
  /// after `before` of code since pred and `after` of code up to succ.
  struct Splice {
    std::uint32_t chain = 0;
    BarrierId pred = kInvalidBarrier;
    BarrierId succ = kInvalidBarrier;
    TimeRange before{0, 0};
    TimeRange after{0, 0};
  };
  /// Adds barrier `id` (unknown so far; the id space grows to cover it) to
  /// the given chains, one splice per distinct chain, each between two
  /// barriers consecutive on that chain. Returns false and changes nothing
  /// if the splices would close a cycle (a full build would throw).
  bool add_barrier(BarrierId id, std::span<const Splice> at);
  /// Unifies two unordered barriers on disjoint chains: `victim`'s chain
  /// positions pass to `keep`, and `victim` becomes unknown.
  void merge(BarrierId keep, BarrierId victim);

  Time barrier_latency() const { return latency_; }

  BarrierId initial() const { return initial_; }
  bool known(BarrierId b) const {
    return b < ports_.size() && !ports_[b].empty();
  }
  std::size_t barrier_count() const { return live_; }
  /// Known barriers in first-appearance order over the chains (chain by
  /// chain, in chain order) — the order a fresh build from the current
  /// chains interns them in, whatever updates led here.
  const std::vector<BarrierId>& barrier_ids() const;

  /// Aggregated code range on edge u→v; edge must exist.
  TimeRange edge_range(BarrierId u, BarrierId v) const;
  bool has_edge(BarrierId u, BarrierId v) const;

  /// Fire-time interval relative to the initial barrier: B_min achieved in
  /// the all-min draw, B_max in the all-max draw.
  TimeRange fire_range(BarrierId b) const;

  /// True iff u == v or a directed path u → v exists (u <_b v).
  bool path_exists(BarrierId u, BarrierId v) const;
  /// True iff the two barriers are comparable under <_b (or equal).
  bool ordered(BarrierId u, BarrierId v) const {
    return path_exists(u, v) || path_exists(v, u);
  }

  /// Nearest common dominating barrier (nearest common ancestor in the
  /// dominator tree rooted at the initial barrier).
  BarrierId common_dominator(BarrierId a, BarrierId b) const;

  /// Longest u→v path length under max edge times; kUnreachable if no path;
  /// 0 when u == v.
  ///
  /// ψ queries are memoized per source: the first query from `u` runs one
  /// O(V+E) sweep and every later query from `u` is an O(1) array lookup.
  /// An update drops only the rows whose source reaches the changed
  /// barrier. Queries from the initial barrier read the fire ranges. The caches are not synchronized: a BarrierDag must be
  /// confined to one thread (each parallel-harness worker owns its Schedule
  /// outright).
  Time psi_max(BarrierId u, BarrierId v) const;
  /// Longest u→v path length under min edge times (same memoization).
  Time psi_min(BarrierId u, BarrierId v) const;

  /// ψ*_min (§4.4.2): longest u→w path under min edge times, except the
  /// given edges take their max time (the overlap adjustment).
  Time psi_min_star(
      BarrierId u, BarrierId w,
      std::span<const std::pair<BarrierId, BarrierId>> forced_max) const;

  /// Deterministic linear extension of <_b, starting with the initial
  /// barrier: Kahn's algorithm preferring the earliest min fire time (ties
  /// by id). This is the order the SBM hardware queue is loaded in — a
  /// linear extension can delay but never deadlock the mask FIFO.
  std::vector<BarrierId> linear_extension() const;
  /// Same, filling a caller-owned buffer (the SBM simulator's pooled queue).
  /// Memoized until the next update: completion summaries replay the same
  /// queue order for every draw (and every batch lane).
  void linear_extension_into(std::vector<BarrierId>& out) const;

  /// §4.4.3 merge candidates: calls accept(a, b) for each unordered pair
  /// a < b with overlapping fire ranges, in lexicographic order, until it
  /// returns true, and returns that pair ({kInvalidBarrier,
  /// kInvalidBarrier} if none is accepted). The candidate set is kept
  /// across updates; only pairs touching a barrier whose fire range or
  /// order changed are re-examined.
  template <typename Accept>
  std::pair<BarrierId, BarrierId> first_overlap_pair(Accept&& accept) const {
    refresh_overlaps();
    for (BarrierId a = 0; a < ports_.size(); ++a) {
      const std::uint64_t* row = overlap_.data() + a * words_;
      for (std::size_t w = (a + 1) >> 6; w < words_; ++w) {
        std::uint64_t word = row[w];
        if (w == (a + 1) >> 6) word &= ~std::uint64_t{0} << ((a + 1) & 63);
        for (; word != 0; word &= word - 1) {
          const auto b = static_cast<BarrierId>(w * 64 + __builtin_ctzll(word));
          if (accept(a, b)) return {a, b};
        }
      }
    }
    return {kInvalidBarrier, kInvalidBarrier};
  }

  /// Enumerates u→v paths in non-increasing max-time length. Wraps
  /// PathEnumerator over a lazily built Digraph of the unique edges.
  class MaxPathRange {
   public:
    bool next(std::vector<BarrierId>& path, Time& length);

   private:
    friend class BarrierDag;
    MaxPathRange(const BarrierDag& dag, NodeId from, NodeId to);
    PathEnumerator inner_;
  };
  MaxPathRange max_paths(BarrierId u, BarrierId v) const;

  /// ψ memo effectiveness for this dag instance (a "miss" is one O(V+E)
  /// sweep; a "hit" is an O(1) lookup). Single-thread confined like the
  /// caches themselves, so plain counters suffice.
  std::uint64_t psi_cache_hits() const { return tally_.hits; }
  std::uint64_t psi_cache_misses() const { return tally_.misses; }

 private:
  /// Barrier b's position on one chain: its neighbours there and the code
  /// between them.
  struct Port {
    std::uint32_t chain;
    BarrierId pred;  ///< kInvalidBarrier on the initial barrier
    BarrierId succ;  ///< kInvalidBarrier: b ends the chain
    TimeRange in;    ///< code pred → b
    TimeRange out;   ///< code b → succ
  };
  static constexpr std::uint32_t kNoRow = ~std::uint32_t{0};

  void require_known(BarrierId b) const;
  /// b's port on `chain`, or nullptr; port_on() asserts it exists.
  const Port* find_port(BarrierId b, std::uint32_t chain) const;
  Port* port_on(BarrierId b, std::uint32_t chain);
  /// Grows the id space to `bound`; past the row capacity, reachability and
  /// overlap rows are re-laid out and the ψ memo is dropped.
  void grow(std::size_t bound);
  /// Moves `b`'s descendants after `b` in topo_, then recomputes fire
  /// ranges and dominators over b and its descendants, in that order.
  void settle_descendants(BarrierId b);
  /// Fire range and immediate dominator of b from its predecessors.
  void settle(BarrierId b);
  BarrierId nearest_common_dominator(BarrierId a, BarrierId b) const;
  void drop_psi_row(BarrierId src);
  /// Drops the ψ rows of every barrier that reaches `b`.
  void drop_psi_rows_reaching(BarrierId b);
  /// Marks b and its descendants for overlap re-examination; clears the
  /// per-update memos.
  void mark_dirty(BarrierId b);

  bool reach_test(BarrierId u, BarrierId v) const {
    return (reach_[u * words_ + (v >> 6)] >> (v & 63)) & 1u;
  }
  std::uint64_t* reach_row(BarrierId u) { return reach_.data() + u * words_; }

  /// Memoized longest-path row from `src` (min or max edge weights): one
  /// topological sweep on first use, then O(1) lookups.
  const Time* psi_row(BarrierId src, bool use_max) const;
  void refresh_overlaps() const;

  BarrierId initial_ = 0;
  Time latency_ = 0;
  /// Id-indexed state. `ports_[b]` is sorted by chain and empty for unknown
  /// ids; the rest is meaningful for known ids only.
  std::vector<std::vector<Port>> ports_;
  std::size_t live_ = 0;
  std::vector<TimeRange> fire_;
  std::vector<BarrierId> idom_;
  std::vector<std::uint32_t> dom_depth_;
  std::vector<BarrierId> topo_;  ///< known ids in a topological order
  std::vector<std::uint32_t> topo_pos_;  ///< index in topo_, by id

  /// Row capacity (a power of two >= the id bound) and the words per bit
  /// row. reach_ holds the reflexive-transitive closure, bit v of row u set
  /// iff a path u→v exists; overlap_ the symmetric merge-candidate matrix.
  std::size_t cap_ = 0, words_ = 0;
  std::vector<std::uint64_t> reach_;
  mutable std::vector<std::uint64_t> overlap_;
  /// Barriers whose overlap rows are stale (set by updates, cleared by
  /// refresh_overlaps on the next candidate query).
  mutable std::vector<std::uint64_t> overlap_dirty_;

  /// ψ memo: rows of cap_ entries in a pool, one slot per (source, min/max);
  /// dropped rows go to a free list.
  mutable std::vector<Time> psi_pool_;
  mutable std::vector<std::uint32_t> psi_slot_[2];
  mutable std::vector<std::uint32_t> psi_free_;

  /// ψ-cache hit/miss tallies. Moving transfers the counts and zeroes the
  /// source, so defaulted BarrierDag moves never double-fold.
  struct PsiTally {
    std::uint64_t hits = 0, misses = 0;
    PsiTally() = default;
    PsiTally(PsiTally&& o) noexcept : hits(o.hits), misses(o.misses) {
      o.hits = o.misses = 0;
    }
    PsiTally& operator=(PsiTally&& o) noexcept {
      hits = o.hits;
      misses = o.misses;
      o.hits = o.misses = 0;
      return *this;
    }
  };
  mutable PsiTally tally_;

  /// Lazily derived views, dropped by every update.
  mutable std::vector<BarrierId> ids_;     ///< empty = not derived
  mutable std::vector<BarrierId> linext_;  ///< empty = not derived
  /// Unique-edge Digraph and its sorted (key, max weight) table for
  /// max_paths; null = not derived.
  struct PathView {
    Digraph g;
    std::vector<std::pair<std::uint64_t, Time>> max_w;
  };
  mutable std::unique_ptr<PathView> paths_;
  const PathView& path_view() const;
};

}  // namespace bm
