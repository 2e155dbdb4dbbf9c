#include "barrier/barrier_dag.hpp"

#include <algorithm>
#include <bit>

#include "obs/obs.hpp"
#include "support/assert.hpp"
#include "support/scratch.hpp"

namespace bm {

namespace {

std::uint64_t edge_key(BarrierId a, BarrierId b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

}  // namespace

BarrierDag::BarrierDag(std::size_t num_barrier_ids, BarrierId initial,
                       std::span<const BarrierChainInput> chains,
                       Time barrier_latency)
    : initial_(initial), latency_(barrier_latency) {
  BM_REQUIRE(initial < num_barrier_ids, "initial barrier id out of range");
  BM_REQUIRE(barrier_latency >= 0, "barrier latency must be >= 0");
  grow(num_barrier_ids);
  std::fill(overlap_dirty_.begin(), overlap_dirty_.end(), ~std::uint64_t{0});

  // Ports straight from the chains: chains are visited in order, so each
  // barrier's ports come out sorted by chain, and a barrier met twice on
  // one chain (necessarily non-consecutively) closes a cycle.
  for (std::uint32_t c = 0; c < chains.size(); ++c) {
    const BarrierChainInput& chain = chains[c];
    BM_REQUIRE(!chain.barriers.empty() && chain.barriers.front() == initial_,
               "every chain must start at the initial barrier");
    BM_REQUIRE(chain.segments.size() + 1 == chain.barriers.size(),
               "chain segment count mismatch");
    const std::size_t k = chain.barriers.size();
    for (std::size_t i = 0; i < k; ++i) {
      const BarrierId b = chain.barriers[i];
      BM_REQUIRE(b < ports_.size(), "barrier id out of range");
      const bool last = i + 1 == k;
      BM_REQUIRE(last || chain.barriers[i + 1] != b,
                 "consecutive chain barriers must differ");
      std::vector<Port>& ps = ports_[b];
      BM_REQUIRE(ps.empty() || ps.back().chain != c, "graph has a cycle");
      if (ps.empty()) ++live_;
      ps.push_back({c, i > 0 ? chain.barriers[i - 1] : kInvalidBarrier,
                    last ? kInvalidBarrier : chain.barriers[i + 1],
                    i > 0 ? chain.segments[i - 1] : TimeRange{0, 0},
                    last ? TimeRange{0, 0} : chain.segments[i]});
    }
  }
  if (ports_[initial_].empty()) {  // no chains: the initial barrier alone
    ports_[initial_].push_back(
        {0, kInvalidBarrier, kInvalidBarrier, {0, 0}, {0, 0}});
    ++live_;
  }

  // Kahn order from the initial barrier (every other barrier has an
  // in-port); completing it doubles as the acyclicity check.
  {
    ScratchVec<std::uint32_t> indeg_s;
    auto& indeg = *indeg_s;
    indeg.assign(ports_.size(), 0);
    for (const auto& ps : ports_)
      for (const Port& p : ps)
        if (p.succ != kInvalidBarrier) ++indeg[p.succ];
    topo_.push_back(initial_);
    for (std::size_t k = 0; k < topo_.size(); ++k)
      for (const Port& p : ports_[topo_[k]])
        if (p.succ != kInvalidBarrier && --indeg[p.succ] == 0)
          topo_.push_back(p.succ);
  }
  BM_REQUIRE(topo_.size() == live_, "graph has a cycle");

  // Reflexive-transitive closure in reverse topological order, then fire
  // ranges and dominators in topological order.
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    std::uint64_t* row = reach_row(*it);
    row[*it >> 6] |= std::uint64_t{1} << (*it & 63);
    for (const Port& p : ports_[*it]) {
      if (p.succ == kInvalidBarrier) continue;
      const std::uint64_t* src = reach_row(p.succ);
      for (std::size_t w = 0; w < words_; ++w) row[w] |= src[w];
    }
  }
  for (std::size_t k = 0; k < topo_.size(); ++k) {
    topo_pos_[topo_[k]] = static_cast<std::uint32_t>(k);
    settle(topo_[k]);
  }
  BM_OBS_COUNT("barrier.dag_builds");
}

void BarrierDag::grow(std::size_t bound) {
  if (bound > ports_.size()) {
    ports_.resize(bound);
    fire_.resize(bound);
    idom_.resize(bound, kInvalidBarrier);
    dom_depth_.resize(bound, 0);
    topo_pos_.resize(bound, 0);
    for (auto& slots : psi_slot_) slots.resize(bound, kNoRow);
  }
  if (bound <= cap_) return;
  const std::size_t cap = std::bit_ceil(std::max<std::size_t>(bound, 64));
  const std::size_t words = cap / 64;
  auto relayout = [&](std::vector<std::uint64_t>& rows) {
    std::vector<std::uint64_t> wide(cap * words, 0);
    for (std::size_t u = 0; u < cap_; ++u)
      std::copy_n(rows.begin() + u * words_, words_, wide.begin() + u * words);
    rows.swap(wide);
  };
  relayout(reach_);
  relayout(overlap_);
  overlap_dirty_.resize(words, 0);
  // ψ rows are cap_ wide: drop them all rather than re-stride.
  for (auto& slots : psi_slot_) std::fill(slots.begin(), slots.end(), kNoRow);
  psi_pool_.clear();
  psi_free_.clear();
  cap_ = cap;
  words_ = words;
}

const BarrierDag::Port* BarrierDag::find_port(BarrierId b,
                                              std::uint32_t chain) const {
  const std::vector<Port>& ps = ports_[b];
  const auto it = std::lower_bound(
      ps.begin(), ps.end(), chain,
      [](const Port& p, std::uint32_t c) { return p.chain < c; });
  return it != ps.end() && it->chain == chain ? &*it : nullptr;
}

BarrierDag::Port* BarrierDag::port_on(BarrierId b, std::uint32_t chain) {
  Port* p = const_cast<Port*>(find_port(b, chain));
  BM_ASSERT_INTERNAL(p != nullptr, "barrier missing from its chain");
  return p;
}

void BarrierDag::settle(BarrierId b) {
  if (b == initial_) {
    fire_[b] = {0, 0};
    idom_[b] = b;
    dom_depth_[b] = 0;
    return;
  }
  const std::vector<Port>& ps = ports_[b];
  BM_ASSERT_INTERNAL(!ps.empty() && ps.front().pred != kInvalidBarrier,
                     "non-initial barrier without a predecessor");
  TimeRange f{kUnreachable, kUnreachable};
  BarrierId dom = ps.front().pred;
  for (const Port& p : ps) {
    const TimeRange via = fire_[p.pred] + p.in;
    f.min = std::max(f.min, via.min + latency_);
    f.max = std::max(f.max, via.max + latency_);
    dom = nearest_common_dominator(dom, p.pred);
  }
  fire_[b] = f;
  // On a dag, processing barriers in topological order makes the nearest
  // common dominator of the predecessors exact: b's immediate dominator.
  idom_[b] = dom;
  dom_depth_[b] = dom_depth_[dom] + 1;
}

BarrierId BarrierDag::nearest_common_dominator(BarrierId a,
                                               BarrierId b) const {
  while (a != b) {
    if (dom_depth_[a] >= dom_depth_[b])
      a = idom_[a];
    else
      b = idom_[b];
  }
  return a;
}

void BarrierDag::settle_descendants(BarrierId b) {
  // b's descendants keep their relative order but move after b; everything
  // else keeps its place. Valid because no edge leaves the descendant set.
  ScratchVec<BarrierId> tail_s;
  auto& tail = *tail_s;
  tail.clear();
  tail.push_back(b);
  std::size_t out = 0, first_moved = topo_.size();
  for (std::size_t k = 0; k < topo_.size(); ++k) {
    const BarrierId n = topo_[k];
    const bool moves = n == b || !known(n) || reach_test(b, n);
    if (moves && first_moved == topo_.size()) first_moved = k;
    if (moves) {
      if (n != b && known(n)) tail.push_back(n);
    } else {
      topo_[out++] = n;
    }
  }
  topo_.resize(out);
  topo_.insert(topo_.end(), tail.begin(), tail.end());
  for (std::size_t k = std::min(first_moved, out); k < topo_.size(); ++k)
    topo_pos_[topo_[k]] = static_cast<std::uint32_t>(k);
  for (const BarrierId n : tail) settle(n);
}

void BarrierDag::drop_psi_row(BarrierId src) {
  for (auto& slots : psi_slot_) {
    if (slots[src] == kNoRow) continue;
    psi_free_.push_back(slots[src]);
    slots[src] = kNoRow;
  }
}

void BarrierDag::drop_psi_rows_reaching(BarrierId b) {
  // A row whose source does not reach b sees none of the changed edges;
  // only its (never written, or stale) entry for b must read unreachable.
  for (BarrierId s = 0; s < ports_.size(); ++s) {
    if (known(s) && reach_test(s, b)) {
      drop_psi_row(s);
      continue;
    }
    for (const auto& slots : psi_slot_)
      if (slots[s] != kNoRow)
        psi_pool_[std::size_t{slots[s]} * cap_ + b] = kUnreachable;
  }
}

void BarrierDag::mark_dirty(BarrierId b) {
  const std::uint64_t* row = reach_row(b);
  for (std::size_t w = 0; w < words_; ++w) overlap_dirty_[w] |= row[w];
  ids_.clear();
  linext_.clear();
  paths_.reset();
}

bool BarrierDag::add_barrier(BarrierId id, std::span<const Splice> at) {
  BM_REQUIRE(!at.empty(), "barrier needs at least one chain");
  BM_REQUIRE(!known(id), "barrier id already in the dag");
  for (std::size_t i = 0; i < at.size(); ++i) {
    const Splice& s = at[i];
    BM_REQUIRE(known(s.pred), "unknown barrier id");
    const Port* p = find_port(s.pred, s.chain);
    BM_REQUIRE(p != nullptr && p->succ == s.succ,
               "splice must fall between consecutive chain barriers");
    for (std::size_t j = 0; j < i; ++j)
      BM_REQUIRE(at[j].chain != s.chain, "duplicate chain in barrier splice");
  }
  // The new barrier closes a cycle iff some successor already reaches
  // some predecessor.
  for (const Splice& s : at) {
    if (s.succ == kInvalidBarrier) continue;
    for (const Splice& t : at)
      if (reach_test(s.succ, t.pred)) return false;
  }
  grow(std::size_t{id} + 1);

  std::vector<Port>& xs = ports_[id];
  for (const Splice& s : at) {
    Port* p = port_on(s.pred, s.chain);
    p->succ = id;
    p->out = s.before;
    if (s.succ != kInvalidBarrier) {
      Port* q = port_on(s.succ, s.chain);
      q->pred = id;
      q->in = s.after;
    }
    xs.push_back({s.chain, s.pred, s.succ, s.before, s.after});
  }
  std::sort(xs.begin(), xs.end(),
            [](const Port& a, const Port& b) { return a.chain < b.chain; });
  ++live_;

  // Reachability only grows: id reaches what its successors reach, and
  // every ancestor (whatever reaches a predecessor) gains id's row.
  std::uint64_t* row = reach_row(id);
  row[id >> 6] |= std::uint64_t{1} << (id & 63);
  for (const Port& p : xs) {
    if (p.succ == kInvalidBarrier) continue;
    const std::uint64_t* src = reach_row(p.succ);
    for (std::size_t w = 0; w < words_; ++w) row[w] |= src[w];
  }
  std::uint32_t last_pred = 0;  // ancestors precede it in topo_
  for (const Splice& s : at) last_pred = std::max(last_pred, topo_pos_[s.pred]);
  for (std::uint32_t k = 0; k <= last_pred; ++k) {
    const BarrierId a = topo_[k];
    bool ancestor = false;
    for (const Splice& s : at) ancestor = ancestor || reach_test(a, s.pred);
    if (!ancestor) continue;
    std::uint64_t* arow = reach_row(a);
    for (std::size_t w = 0; w < words_; ++w) arow[w] |= row[w];
  }

  settle_descendants(id);
  drop_psi_rows_reaching(id);
  mark_dirty(id);
  return true;
}

void BarrierDag::merge(BarrierId keep, BarrierId victim) {
  require_known(keep);
  require_known(victim);
  BM_REQUIRE(keep != victim && !ordered(keep, victim),
             "merged barriers must be unordered");
  std::vector<Port>& ks = ports_[keep];
  for (const Port& v : ports_[victim]) {
    port_on(v.pred, v.chain)->succ = keep;
    if (v.succ != kInvalidBarrier) port_on(v.succ, v.chain)->pred = keep;
    // Unordered barriers never share a chain, so the chains are disjoint.
    ks.insert(std::lower_bound(ks.begin(), ks.end(), v,
                               [](const Port& a, const Port& b) {
                                 return a.chain < b.chain;
                               }),
              v);
  }
  ports_[victim].clear();
  --live_;
  drop_psi_row(victim);

  // keep now reaches what either reached; whatever reached either now
  // reaches keep's whole row. victim's bit and row disappear.
  std::uint64_t* krow = reach_row(keep);
  std::uint64_t* vrow = reach_row(victim);
  const std::uint64_t vbit = std::uint64_t{1} << (victim & 63);
  for (std::size_t w = 0; w < words_; ++w) krow[w] |= vrow[w];
  krow[victim >> 6] &= ~vbit;
  std::fill(vrow, vrow + words_, 0);
  const std::uint32_t last = std::max(topo_pos_[keep], topo_pos_[victim]);
  for (std::uint32_t k = 0; k < last; ++k) {  // ancestors precede both
    const BarrierId a = topo_[k];
    if (a == keep || a == victim) continue;
    std::uint64_t* arow = reach_row(a);
    if (!(arow[victim >> 6] & vbit) && !reach_test(a, keep)) continue;
    for (std::size_t w = 0; w < words_; ++w) arow[w] |= krow[w];
    arow[victim >> 6] &= ~vbit;
  }

  settle_descendants(keep);
  drop_psi_rows_reaching(keep);
  mark_dirty(keep);
  overlap_dirty_[victim >> 6] |= vbit;
}

void BarrierDag::refresh_overlaps() const {
  ScratchVec<BarrierId> dirty_s;
  auto& dirty = *dirty_s;
  dirty.clear();
  for (std::size_t w = 0; w < words_; ++w) {
    for (std::uint64_t word = overlap_dirty_[w]; word != 0; word &= word - 1) {
      const std::size_t a = w * 64 + __builtin_ctzll(word);
      if (a < ports_.size()) dirty.push_back(static_cast<BarrierId>(a));
    }
    overlap_dirty_[w] = 0;
  }
  if (dirty.empty()) return;
  // Clear every stale pair first (the matrix is symmetric, so row a names
  // the rows holding a's column bit), then re-derive the dirty rows.
  for (const BarrierId a : dirty) {
    std::uint64_t* row = overlap_.data() + a * words_;
    for (std::size_t w = 0; w < words_; ++w) {
      for (std::uint64_t word = row[w]; word != 0; word &= word - 1) {
        const std::size_t b = w * 64 + __builtin_ctzll(word);
        overlap_[b * words_ + (a >> 6)] &= ~(std::uint64_t{1} << (a & 63));
      }
      row[w] = 0;
    }
  }
  for (const BarrierId a : dirty) {
    if (!known(a) || a == initial_) continue;
    for (const BarrierId b : topo_) {
      if (b == a || b == initial_) continue;
      if (!fire_[a].overlaps(fire_[b]) || reach_test(a, b) || reach_test(b, a))
        continue;
      overlap_[a * words_ + (b >> 6)] |= std::uint64_t{1} << (b & 63);
      overlap_[b * words_ + (a >> 6)] |= std::uint64_t{1} << (a & 63);
    }
  }
}

BarrierDag::~BarrierDag() {
  if (tally_.hits > 0) BM_OBS_COUNT_N("barrier.psi_cache_hits", tally_.hits);
  if (tally_.misses > 0)
    BM_OBS_COUNT_N("barrier.psi_cache_misses", tally_.misses);
}

const Time* BarrierDag::psi_row(BarrierId src, bool use_max) const {
  std::uint32_t& slot = psi_slot_[use_max][src];
  if (slot != kNoRow) {
    ++tally_.hits;  // memo hit: O(1) amortized queries
    return psi_pool_.data() + std::size_t{slot} * cap_;
  }
  ++tally_.misses;
  if (!psi_free_.empty()) {
    slot = psi_free_.back();
    psi_free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(psi_pool_.size() / cap_);
    psi_pool_.resize(psi_pool_.size() + cap_);
  }
  Time* dist = psi_pool_.data() + std::size_t{slot} * cap_;
  std::fill(dist, dist + ports_.size(), kUnreachable);
  dist[src] = 0;
  for (std::size_t k = topo_pos_[src]; k < topo_.size(); ++k) {
    const BarrierId n = topo_[k];
    if (!reach_test(src, n) || dist[n] == kUnreachable) continue;
    for (const Port& p : ports_[n]) {
      if (p.succ == kInvalidBarrier) continue;
      const Time d = dist[n] + (use_max ? p.out.max : p.out.min) + latency_;
      if (d > dist[p.succ]) dist[p.succ] = d;
    }
  }
  return dist;
}

void BarrierDag::require_known(BarrierId b) const {
  BM_REQUIRE(known(b), "unknown barrier id");
}

const std::vector<BarrierId>& BarrierDag::barrier_ids() const {
  if (!ids_.empty()) return ids_;
  ScratchVec<std::uint8_t> seen_s;
  auto& seen = *seen_s;
  seen.assign(ports_.size(), 0);
  ids_.push_back(initial_);
  seen[initial_] = 1;
  for (const Port& start : ports_[initial_]) {
    for (BarrierId b = start.succ; b != kInvalidBarrier;
         b = find_port(b, start.chain)->succ) {
      if (!seen[b]) ids_.push_back(b);
      seen[b] = 1;
    }
  }
  return ids_;
}

bool BarrierDag::has_edge(BarrierId u, BarrierId v) const {
  require_known(u);
  require_known(v);
  for (const Port& p : ports_[u])
    if (p.succ == v) return true;
  return false;
}

TimeRange BarrierDag::edge_range(BarrierId u, BarrierId v) const {
  BM_REQUIRE(has_edge(u, v), "no such barrier edge");
  TimeRange r{kUnreachable, kUnreachable};
  for (const Port& p : ports_[u])
    if (p.succ == v) r = r.join_max(p.out);
  return r;
}

TimeRange BarrierDag::fire_range(BarrierId b) const {
  require_known(b);
  return fire_[b];
}

bool BarrierDag::path_exists(BarrierId u, BarrierId v) const {
  require_known(u);
  require_known(v);
  return reach_test(u, v);
}

BarrierId BarrierDag::common_dominator(BarrierId a, BarrierId b) const {
  require_known(a);
  require_known(b);
  return nearest_common_dominator(a, b);
}

// From the initial barrier, longest paths are the fire ranges, which every
// update keeps current: no row to sweep or drop.
Time BarrierDag::psi_max(BarrierId u, BarrierId v) const {
  require_known(u);
  require_known(v);
  if (u == initial_) return fire_[v].max;
  return psi_row(u, /*use_max=*/true)[v];
}

Time BarrierDag::psi_min(BarrierId u, BarrierId v) const {
  require_known(u);
  require_known(v);
  if (u == initial_) return fire_[v].min;
  return psi_row(u, /*use_max=*/false)[v];
}

Time BarrierDag::psi_min_star(
    BarrierId u, BarrierId w,
    std::span<const std::pair<BarrierId, BarrierId>> forced_max) const {
  if (forced_max.empty()) return psi_min(u, w);  // plain ψ_min: memo hit
  require_known(u);
  require_known(w);
  ScratchVec<std::uint64_t> forced_s;
  auto& forced = *forced_s;
  forced.clear();
  forced.reserve(forced_max.size());
  for (const auto& [a, b] : forced_max) {
    require_known(a);
    require_known(b);
    forced.push_back(edge_key(a, b));
  }
  std::sort(forced.begin(), forced.end());
  // The forced-edge set differs per query, so this sweep is not memoizable;
  // it still reuses the topological order and reachability pruning.
  ScratchVec<Time> dist_s;
  auto& dist = *dist_s;
  dist.assign(ports_.size(), kUnreachable);
  dist[u] = 0;
  for (std::size_t k = topo_pos_[u]; k < topo_.size(); ++k) {
    const BarrierId n = topo_[k];
    if (!reach_test(u, n) || dist[n] == kUnreachable) continue;
    for (const Port& p : ports_[n]) {
      if (p.succ == kInvalidBarrier) continue;
      const bool force = std::binary_search(forced.begin(), forced.end(),
                                            edge_key(n, p.succ));
      const Time d = dist[n] + (force ? p.out.max : p.out.min) + latency_;
      if (d > dist[p.succ]) dist[p.succ] = d;
    }
  }
  return dist[w];
}

std::vector<BarrierId> BarrierDag::linear_extension() const {
  std::vector<BarrierId> out;
  linear_extension_into(out);
  return out;
}

void BarrierDag::linear_extension_into(std::vector<BarrierId>& out) const {
  if (!linext_.empty()) {
    out.assign(linext_.begin(), linext_.end());
    return;
  }
  ScratchVec<std::uint32_t> indegree_s;
  ScratchVec<BarrierId> ready_s;
  auto& indegree = *indegree_s;
  auto& ready = *ready_s;
  indegree.assign(ports_.size(), 0);
  for (const BarrierId n : topo_)
    for (const Port& p : ports_[n])
      if (p.succ != kInvalidBarrier) ++indegree[p.succ];

  auto better = [&](BarrierId a, BarrierId b) {  // a should fire before b
    return std::pair{fire_[a].min, a} < std::pair{fire_[b].min, b};
  };
  ready.clear();
  for (const BarrierId n : topo_)
    if (indegree[n] == 0) ready.push_back(n);

  out.clear();
  out.reserve(live_);
  while (!ready.empty()) {
    const auto it = std::min_element(ready.begin(), ready.end(), better);
    const BarrierId n = *it;
    ready.erase(it);
    out.push_back(n);
    for (const Port& p : ports_[n])
      if (p.succ != kInvalidBarrier && --indegree[p.succ] == 0)
        ready.push_back(p.succ);
  }
  BM_ASSERT_INTERNAL(out.size() == live_, "linear extension incomplete");
  linext_ = out;
}

const BarrierDag::PathView& BarrierDag::path_view() const {
  if (!paths_) {
    auto view = std::make_unique<PathView>();
    auto& w = view->max_w;
    for (const BarrierId u : topo_)
      for (const Port& p : ports_[u])
        if (p.succ != kInvalidBarrier)
          w.emplace_back(edge_key(u, p.succ), p.out.max + latency_);
    std::sort(w.begin(), w.end());
    // Parallel chain traversals of one edge aggregate to their max (Fig. 13);
    // after the sort the largest weight of each key comes last.
    std::size_t out = 0;
    for (std::size_t i = 0; i < w.size(); ++i) {
      if (out > 0 && w[out - 1].first == w[i].first)
        w[out - 1].second = w[i].second;
      else
        w[out++] = w[i];
    }
    w.resize(out);
    view->g = Digraph(ports_.size());
    for (const auto& [key, weight] : w)
      view->g.add_edge(static_cast<NodeId>(key >> 32),
                       static_cast<NodeId>(key));
    paths_ = std::move(view);
  }
  return *paths_;
}

BarrierDag::MaxPathRange::MaxPathRange(const BarrierDag& dag, NodeId from,
                                       NodeId to)
    : inner_(dag.path_view().g, from, to,
             [&w = dag.path_view().max_w](NodeId a, NodeId b) {
               const auto it = std::lower_bound(
                   w.begin(), w.end(), std::pair{edge_key(a, b), kUnreachable});
               BM_ASSERT_INTERNAL(it != w.end() && it->first == edge_key(a, b),
                                  "missing edge in path enumeration");
               return it->second;
             }) {}

bool BarrierDag::MaxPathRange::next(std::vector<BarrierId>& path,
                                    Time& length) {
  return inner_.next(path, length);
}

BarrierDag::MaxPathRange BarrierDag::max_paths(BarrierId u,
                                               BarrierId v) const {
  require_known(u);
  require_known(v);
  return MaxPathRange(*this, u, v);
}

}  // namespace bm
