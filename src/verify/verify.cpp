#include "verify/verify.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "graph/dominators.hpp"
#include "graph/paths.hpp"
#include "obs/obs.hpp"
#include "support/assert.hpp"

namespace bm {
namespace {

/// Per-processor re-derivation of the stream-relative queries (LastBar,
/// NextBar, δ) straight from the raw entry stream — the verifier must not
/// trust Schedule's own helpers for the quantities it is checking.
struct StreamFacts {
  std::vector<BarrierId> last_bar;   ///< last barrier strictly before pos
  std::vector<BarrierId> next_bar;   ///< first strictly after; kInvalidBarrier
  std::vector<TimeRange> before;     ///< Σ instr time in (last_bar(pos), pos)
};

StreamFacts derive_stream_facts(const InstrDag& dag,
                                const std::vector<ScheduleEntry>& stream) {
  StreamFacts f;
  const std::size_t n = stream.size();
  f.last_bar.resize(n);
  f.next_bar.resize(n, kInvalidBarrier);
  f.before.resize(n);
  BarrierId cur = Schedule::kInitialBarrier;
  TimeRange acc{0, 0};
  for (std::size_t pos = 0; pos < n; ++pos) {
    f.last_bar[pos] = cur;
    f.before[pos] = acc;
    if (stream[pos].is_barrier) {
      cur = stream[pos].id;
      acc = {0, 0};
    } else {
      acc += dag.time(stream[pos].id);
    }
  }
  BarrierId next = kInvalidBarrier;
  for (std::size_t pos = n; pos-- > 0;) {
    f.next_bar[pos] = next;
    if (stream[pos].is_barrier) next = stream[pos].id;
  }
  return f;
}

/// The verifier's own barrier graph, rebuilt from the schedule streams with
/// its own sweeps for every timing/structure query the proofs need. Mirrors
/// the BarrierDag *semantics* (Fig. 13 join_max aggregation, latency charged
/// per hop) but shares no state with it — only the generic graph utilities.
class FreshAnalysis {
 public:
  FreshAnalysis(const InstrDag& dag, const Schedule& sched) {
    latency_ = sched.barrier_latency();
    // Dense ids: the initial barrier first, then every barrier appearing in
    // some stream, ascending (deterministic).
    std::vector<BarrierId> seen;
    for (ProcId p = 0; p < sched.num_procs(); ++p)
      for (const ScheduleEntry& e : sched.stream(p))
        if (e.is_barrier) seen.push_back(e.id);
    std::sort(seen.begin(), seen.end());
    seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
    ids_.push_back(Schedule::kInitialBarrier);
    for (BarrierId b : seen)
      if (b != Schedule::kInitialBarrier) ids_.push_back(b);
    for (NodeId k = 0; k < ids_.size(); ++k) index_[ids_[k]] = k;

    g_ = Digraph(ids_.size());
    for (ProcId p = 0; p < sched.num_procs(); ++p) {
      NodeId prev = 0;  // dense index of the initial barrier
      TimeRange seg{0, 0};
      for (const ScheduleEntry& e : sched.stream(p)) {
        if (!e.is_barrier) {
          seg += dag.time(e.id);
          continue;
        }
        const NodeId b = index_.at(e.id);
        if (b != prev) {  // an adjacent duplicate is flagged by the lints
          const std::uint64_t key = edge_key(prev, b);
          auto [it, inserted] = edges_.try_emplace(key, seg);
          if (!inserted) it->second = it->second.join_max(seg);
          g_.add_edge(prev, b);
        }
        prev = b;
        seg = {0, 0};
      }
      // Tail code after the last barrier creates no edge (it delays the
      // processor's finish, not any barrier's fire time).
    }

    cyclic_ = !is_dag(g_);
    if (cyclic_) return;
    topo_ = topo_order(g_);
    const auto fire_min = longest_from(g_, 0, weight_fn(/*use_max=*/false));
    const auto fire_max = longest_from(g_, 0, weight_fn(/*use_max=*/true));
    fire_.resize(ids_.size());
    for (NodeId k = 0; k < ids_.size(); ++k)
      fire_[k] = {fire_min[k], fire_max[k]};

    reach_.assign(ids_.size(), DynBitset(ids_.size()));
    for (std::size_t t = topo_.size(); t-- > 0;) {
      const NodeId n = topo_[t];
      reach_[n].set(n);
      for (NodeId s : g_.succs(n)) reach_[n] |= reach_[s];
    }
    dom_ = std::make_unique<DominatorTree>(g_, 0);
    psi_min_cache_.resize(ids_.size());
    psi_max_cache_.resize(ids_.size());
  }

  bool cyclic() const { return cyclic_; }
  const std::vector<BarrierId>& ids() const { return ids_; }
  const Digraph& graph() const { return g_; }
  NodeId index_of(BarrierId b) const { return index_.at(b); }
  BarrierId id_of(NodeId k) const { return ids_[k]; }
  TimeRange fire(BarrierId b) const { return fire_[index_of(b)]; }
  bool path_exists(BarrierId u, BarrierId v) const {  // reflexive, like <_b
    return reach_[index_of(u)].test(index_of(v));
  }
  BarrierId common_dominator(BarrierId a, BarrierId b) const {
    return ids_[dom_->common_dominator(index_of(a), index_of(b))];
  }
  const DominatorTree& dom() const { return *dom_; }

  Time psi(BarrierId u, BarrierId v, bool use_max) const {
    auto& cache = use_max ? psi_max_cache_ : psi_min_cache_;
    const NodeId src = index_of(u);
    if (cache[src].empty())
      cache[src] = longest_from(g_, src, weight_fn(use_max));
    return cache[src][index_of(v)];
  }

  /// ψ*_min re-derivation: longest u→w path under min weights with the
  /// given (dense-index) edges forced to their max weight.
  Time psi_min_star(
      BarrierId u, BarrierId w,
      const std::vector<std::pair<NodeId, NodeId>>& forced_max) const {
    std::vector<Time> dist(ids_.size(), kUnreachable);
    dist[index_of(u)] = 0;
    for (NodeId n : topo_) {
      if (dist[n] == kUnreachable) continue;
      for (NodeId s : g_.succs(n)) {
        const TimeRange w_ns = hop_weight(n, s);
        const bool forced =
            std::find(forced_max.begin(), forced_max.end(),
                      std::make_pair(n, s)) != forced_max.end();
        const Time step = forced ? w_ns.max : w_ns.min;
        dist[s] = std::max(dist[s], dist[n] + step);
      }
    }
    return dist[index_of(w)];
  }

  /// Latency-charged edge weight between dense indices; edge must exist.
  TimeRange hop_weight(NodeId u, NodeId v) const {
    const TimeRange seg = edges_.at(edge_key(u, v));
    return {seg.min + latency_, seg.max + latency_};
  }

  EdgeWeightFn weight_fn(bool use_max) const {
    return [this, use_max](NodeId a, NodeId b) {
      const TimeRange w = hop_weight(a, b);
      return use_max ? w.max : w.min;
    };
  }

 private:
  static std::uint64_t edge_key(NodeId a, NodeId b) {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  Time latency_ = 0;
  std::vector<BarrierId> ids_;
  std::map<BarrierId, NodeId> index_;
  Digraph g_;
  std::map<std::uint64_t, TimeRange> edges_;  ///< raw segment, no latency
  bool cyclic_ = false;
  std::vector<NodeId> topo_;
  std::vector<TimeRange> fire_;
  std::vector<DynBitset> reach_;
  std::unique_ptr<DominatorTree> dom_;
  mutable std::vector<std::vector<Time>> psi_min_cache_, psi_max_cache_;
};

// ---------------------------------------------------------------------------
// Family 2: structural lints over streams, masks, and the fresh graph.
// ---------------------------------------------------------------------------

void lint_streams(const Schedule& sched, VerifyReport& report) {
  const std::size_t bound = sched.barrier_id_bound();
  // procs_with[b]: processors whose stream contains barrier b.
  std::vector<DynBitset> procs_with(bound, DynBitset(sched.num_procs()));
  for (ProcId p = 0; p < sched.num_procs(); ++p) {
    std::vector<bool> seen(bound, false);
    for (const ScheduleEntry& e : sched.stream(p)) {
      if (!e.is_barrier) continue;
      if (e.id >= bound || !sched.barrier_alive(e.id)) {
        std::ostringstream os;
        os << "stream P" << p << " references dead or unknown barrier B"
           << e.id;
        report.add(verify_code::kMaskMismatch, VerifySeverity::kError,
                   os.str(), e.id);
        continue;
      }
      if (seen[e.id]) {
        std::ostringstream os;
        os << "barrier B" << e.id << " appears more than once in stream P"
           << p;
        report.add(verify_code::kDuplicateEntry, VerifySeverity::kError,
                   os.str(), e.id);
      }
      seen[e.id] = true;
      procs_with[e.id].set(p);
    }
  }

  for (BarrierId b = 0; b < bound; ++b) {
    if (!sched.barrier_alive(b) || b == Schedule::kInitialBarrier) continue;
    if (procs_with[b].none()) {
      std::ostringstream os;
      os << "barrier B" << b
         << " is alive but appears in no stream (unreachable from entry)";
      report.add(verify_code::kOrphanBarrier, VerifySeverity::kWarning,
                 os.str(), b);
      continue;
    }
    if (!(procs_with[b] == sched.barrier_mask(b))) {
      std::ostringstream os;
      os << "barrier B" << b << " mask " << sched.barrier_mask(b).to_string()
         << " disagrees with stream participation "
         << procs_with[b].to_string();
      report.add(verify_code::kMaskMismatch, VerifySeverity::kError,
                 os.str(), b);
    }
  }

  if (const auto fb = sched.final_barrier()) {
    for (ProcId p = 0; p < sched.num_procs(); ++p) {
      const auto& stream = sched.stream(p);
      for (std::size_t pos = 0; pos < stream.size(); ++pos) {
        if (!stream[pos].is_barrier || stream[pos].id != *fb) continue;
        if (pos + 1 != stream.size()) {
          std::ostringstream os;
          os << "final rejoin barrier B" << *fb
             << " is not the last entry of stream P" << p;
          report.add(verify_code::kFinalNotLast, VerifySeverity::kError,
                     os.str(), *fb);
        }
      }
    }
  }
}

/// BV205: barrier b is transitively redundant when it has both barrier
/// predecessors and successors and every pred→succ pair stays connected by
/// a path avoiding b. Structural only — removal can still widen timing
/// windows — hence a warning, not an error.
void lint_redundant_barriers(const Schedule& sched, const FreshAnalysis& fa,
                             VerifyReport& report) {
  const std::size_t n = fa.ids().size();
  std::vector<NodeId> stack;
  std::vector<bool> visited(n);
  for (NodeId bi = 1; bi < n; ++bi) {  // 0 = initial, never redundant
    const BarrierId b = fa.id_of(bi);
    if (sched.final_barrier() && *sched.final_barrier() == b) continue;
    const auto& preds = fa.graph().preds(bi);
    const auto& succs = fa.graph().succs(bi);
    if (preds.empty() || succs.empty()) continue;
    bool redundant = true;
    for (NodeId u : preds) {
      // DFS from u skipping bi; every successor of bi must still be reached.
      std::fill(visited.begin(), visited.end(), false);
      stack.assign(1, u);
      visited[u] = true;
      while (!stack.empty()) {
        const NodeId cur = stack.back();
        stack.pop_back();
        for (NodeId s : fa.graph().succs(cur)) {
          if (s == bi || visited[s]) continue;
          visited[s] = true;
          stack.push_back(s);
        }
      }
      for (NodeId v : succs)
        if (!visited[v]) {
          redundant = false;
          break;
        }
      if (!redundant) break;
    }
    if (redundant) {
      ++report.stats().redundant_barriers;
      std::ostringstream os;
      os << "barrier B" << b
         << " is transitively redundant: every predecessor already reaches "
            "every successor without it";
      report.add(verify_code::kRedundantBarrier, VerifySeverity::kWarning,
                 os.str(), b);
    }
  }
}

// ---------------------------------------------------------------------------
// Family 3: the lazily cached BarrierDag must agree with the fresh sweeps.
// ---------------------------------------------------------------------------

void check_cached_analysis(const Schedule& sched, const FreshAnalysis& fa,
                           VerifyReport& report) {
  auto mismatch = [&](const char* code, std::string msg) {
    ++report.stats().cache_mismatches;
    report.add(code, VerifySeverity::kError, std::move(msg));
  };
  try {
    const BarrierDag& bd = sched.barrier_dag();
    for (BarrierId b : fa.ids()) {
      if (!bd.known(b)) {
        std::ostringstream os;
        os << "barrier B" << b << " is in the streams but unknown to the "
           << "cached barrier dag";
        mismatch(verify_code::kCachedReach, os.str());
        return;  // id spaces disagree; pairwise checks would just cascade
      }
      if (bd.fire_range(b) != fa.fire(b)) {
        std::ostringstream os;
        os << "cached fire range of B" << b << " "
           << bd.fire_range(b).to_string() << " != fresh "
           << fa.fire(b).to_string();
        mismatch(verify_code::kCachedFire, os.str());
      }
    }
    for (BarrierId u : fa.ids()) {
      for (BarrierId v : fa.ids()) {
        if (bd.path_exists(u, v) != fa.path_exists(u, v)) {
          std::ostringstream os;
          os << "cached reachability B" << u << " ->* B" << v << " = "
             << (bd.path_exists(u, v) ? "true" : "false")
             << " disagrees with the fresh closure";
          mismatch(verify_code::kCachedReach, os.str());
        }
        if (bd.common_dominator(u, v) != fa.common_dominator(u, v)) {
          std::ostringstream os;
          os << "cached common dominator of (B" << u << ", B" << v << ") = B"
             << bd.common_dominator(u, v) << " != fresh B"
             << fa.common_dominator(u, v);
          mismatch(verify_code::kCachedDom, os.str());
        }
      }
    }
  } catch (const Error& e) {
    mismatch(verify_code::kCachedFire,
             std::string("cached barrier dag construction failed: ") +
                 e.what());
  }
}

// ---------------------------------------------------------------------------
// Family 1: dependence coverage (the race detector proper).
// ---------------------------------------------------------------------------

struct EdgeContext {
  BarrierId last_bar_g, last_bar_i, next_bar_g;  // next may be invalid
  BarrierId common_dom;
  TimeRange delta_through_g;  ///< (LastBar(g), g], both bounds
  TimeRange delta_before_i;   ///< (LastBar(i), i), both bounds
};

/// §4.4.1 steps 2–5 re-derived: single longest-path window relative to the
/// common dominating barrier.
bool conservative_proof(const FreshAnalysis& fa, const EdgeContext& ctx) {
  const Time t_max_g = fa.psi(ctx.common_dom, ctx.last_bar_g, true) +
                       ctx.delta_through_g.max;
  const Time t_min_i = fa.psi(ctx.common_dom, ctx.last_bar_i, false) +
                       ctx.delta_before_i.min;
  return t_min_i >= t_max_g;
}

/// §4.4.2 re-derived: per-producer-path analysis with the ψ*_min overlap
/// adjustment. Exceeding the enumeration cap means "unproven", never
/// "accepted".
bool refined_proof(const FreshAnalysis& fa, const EdgeContext& ctx,
                   std::size_t max_paths) {
  const Time base_min = fa.psi(ctx.common_dom, ctx.last_bar_i, false) +
                        ctx.delta_before_i.min;
  PathEnumerator paths(fa.graph(), fa.index_of(ctx.common_dom),
                       fa.index_of(ctx.last_bar_g),
                       fa.weight_fn(/*use_max=*/true));
  Path path;
  Time length = 0;
  std::size_t enumerated = 0;
  while (paths.next(path, length)) {
    if (length + ctx.delta_through_g.max <= base_min) return true;
    if (++enumerated > max_paths) return false;
    std::vector<std::pair<NodeId, NodeId>> overlap_edges;
    overlap_edges.reserve(path.size());
    for (std::size_t k = 0; k + 1 < path.size(); ++k)
      overlap_edges.emplace_back(path[k], path[k + 1]);
    const Time adjusted =
        fa.psi_min_star(ctx.common_dom, ctx.last_bar_i, overlap_edges) +
        ctx.delta_before_i.min;
    if (length + ctx.delta_through_g.max > adjusted) return false;
  }
  return true;
}

void check_dependences(const InstrDag& dag, const Schedule& sched,
                       const FreshAnalysis& fa,
                       const std::vector<StreamFacts>& facts,
                       const VerifyOptions& opt, VerifyReport& report) {
  VerifyStats& st = report.stats();
  for (NodeId n = 0; n < dag.num_instructions(); ++n) {
    if (!sched.placed(n)) {
      std::ostringstream os;
      os << "instruction n" << n << " is not placed on any processor";
      report.add(verify_code::kUnplaced, VerifySeverity::kError, os.str());
    }
  }

  for (const auto& [g, i] : dag.sync_edges()) {
    ++st.edges_checked;
    if (!sched.placed(g) || !sched.placed(i)) continue;  // BV103 above
    const Schedule::Loc lg = sched.loc(g);
    const Schedule::Loc li = sched.loc(i);
    if (lg.proc == li.proc) {
      if (lg.pos < li.pos) {
        ++st.proved_serialized;
      } else {
        std::ostringstream os;
        os << "dependence n" << g << " -> n" << i << " inverted on P"
           << lg.proc << ": producer at pos " << lg.pos
           << ", consumer at pos " << li.pos;
        report.add(verify_code::kSamePeOrder, VerifySeverity::kError,
                   os.str());
      }
      continue;
    }

    EdgeContext ctx;
    ctx.last_bar_g = facts[lg.proc].last_bar[lg.pos];
    ctx.last_bar_i = facts[li.proc].last_bar[li.pos];
    ctx.next_bar_g = facts[lg.proc].next_bar[lg.pos];
    ctx.delta_through_g = facts[lg.proc].before[lg.pos] + dag.time(g);
    ctx.delta_before_i = facts[li.proc].before[li.pos];

    // Step 1 (PathFind): a barrier chain NextBar(g) →* LastBar(i).
    if (ctx.next_bar_g != kInvalidBarrier &&
        fa.path_exists(ctx.next_bar_g, ctx.last_bar_i)) {
      ++st.proved_path;
      continue;
    }

    ctx.common_dom = fa.common_dominator(ctx.last_bar_g, ctx.last_bar_i);
    if (conservative_proof(fa, ctx)) {
      ++st.proved_timing;
      continue;
    }
    if (refined_proof(fa, ctx, opt.max_enumerated_paths)) {
      ++st.proved_timing_refined;
      continue;
    }

    // Unprovable: report with the absolute-interval witness. A failed
    // conservative proof implies the absolute windows overlap (the ψ
    // decomposition through the common dominator is exact), so the window
    // below is always non-empty.
    ++st.races;
    RaceWitness w;
    w.producer = g;
    w.consumer = i;
    w.producer_proc = lg.proc;
    w.consumer_proc = li.proc;
    w.producer_pos = lg.pos;
    w.consumer_pos = li.pos;
    w.producer_guard = ctx.last_bar_g;
    w.consumer_guard = ctx.last_bar_i;
    w.producer_finish = fa.fire(ctx.last_bar_g) + ctx.delta_through_g;
    w.consumer_start = fa.fire(ctx.last_bar_i) + ctx.delta_before_i;
    w.overlap = {w.consumer_start.min, w.producer_finish.max};
    std::ostringstream os;
    os << "unprovable dependence n" << g << " -> n" << i
       << ": no program order, no separating barrier chain, and the timing "
          "windows admit an inversion";
    report.add(VerifyDiagnostic{verify_code::kRace, VerifySeverity::kError,
                                os.str(), w, std::nullopt});
  }
}

}  // namespace

VerifyReport verify_schedule(const InstrDag& dag, const Schedule& sched,
                             const VerifyOptions& options) {
  BM_REQUIRE(&sched.instr_dag() == &dag,
             "schedule was not built over the given instruction dag");
  BM_OBS_SPAN(span, "verify.run", "verify");
  VerifyReport report;

  if (options.lint_structure) lint_streams(sched, report);

  FreshAnalysis fa(dag, sched);
  report.stats().barriers_checked = fa.ids().size();
  if (fa.cyclic()) {
    report.add(verify_code::kCycle, VerifySeverity::kError,
               "barrier graph derived from the streams contains a cycle; "
               "timing analysis skipped");
    // Same-PE order and placement are still checkable without timing.
    for (NodeId n = 0; n < dag.num_instructions(); ++n) {
      if (!sched.placed(n)) {
        std::ostringstream os;
        os << "instruction n" << n << " is not placed on any processor";
        report.add(verify_code::kUnplaced, VerifySeverity::kError, os.str());
      }
    }
    for (const auto& [g, i] : dag.sync_edges()) {
      ++report.stats().edges_checked;
      if (!sched.placed(g) || !sched.placed(i)) continue;
      const Schedule::Loc lg = sched.loc(g);
      const Schedule::Loc li = sched.loc(i);
      if (lg.proc == li.proc && lg.pos >= li.pos) {
        std::ostringstream os;
        os << "dependence n" << g << " -> n" << i << " inverted on P"
           << lg.proc;
        report.add(verify_code::kSamePeOrder, VerifySeverity::kError,
                   os.str());
      }
    }
  } else {
    std::vector<StreamFacts> facts;
    facts.reserve(sched.num_procs());
    for (ProcId p = 0; p < sched.num_procs(); ++p)
      facts.push_back(derive_stream_facts(dag, sched.stream(p)));

    check_dependences(dag, sched, fa, facts, options, report);
    if (options.lint_redundant) lint_redundant_barriers(sched, fa, report);
    if (options.check_cached_analysis)
      check_cached_analysis(sched, fa, report);
  }

  const VerifyStats& st = report.stats();
  BM_OBS_COUNT("verify.schedules");
  BM_OBS_COUNT_N("verify.edges_checked", st.edges_checked);
  BM_OBS_COUNT_N("verify.proved_serialized", st.proved_serialized);
  BM_OBS_COUNT_N("verify.proved_path", st.proved_path);
  BM_OBS_COUNT_N("verify.proved_timing", st.proved_timing);
  BM_OBS_COUNT_N("verify.proved_timing_refined", st.proved_timing_refined);
  BM_OBS_COUNT_N("verify.races", st.races);
  BM_OBS_COUNT_N("verify.errors", report.error_count());
  BM_OBS_COUNT_N("verify.warnings", report.warning_count());
  BM_OBS_COUNT_N("verify.redundant_barriers", st.redundant_barriers);
  BM_OBS_COUNT_N("verify.cache_mismatches", st.cache_mismatches);
  return report;
}

}  // namespace bm
