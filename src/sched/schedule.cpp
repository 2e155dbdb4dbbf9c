#include "sched/schedule.hpp"

#include <algorithm>
#include <sstream>

#include "support/assert.hpp"
#include "support/scratch.hpp"

namespace bm {

namespace {

/// Componentwise interval difference of two prefix sums (valid because both
/// are sums of the same leading segment plus a common base).
constexpr TimeRange prefix_diff(const TimeRange& a, const TimeRange& b) {
  return {a.min - b.min, a.max - b.max};
}

}  // namespace

Schedule::Schedule(const InstrDag& dag, std::size_t num_procs,
                   Time barrier_latency)
    : dag_(&dag),
      barrier_latency_(barrier_latency),
      streams_(num_procs),
      instr_loc_(dag.num_instructions()),
      instr_placed_(dag.num_instructions(), false),
      last_instr_(num_procs, kInvalidNode),
      instr_cnt_(num_procs, 0) {
  BM_REQUIRE(num_procs >= 1, "need at least one processor");
  BM_REQUIRE(barrier_latency >= 0, "barrier latency must be >= 0");
  // Barrier 0: the initial barrier across all processors (§3.1).
  DynBitset all(num_procs);
  all.set_all();
  masks_.push_back(std::move(all));
  alive_.push_back(true);
  bar_pos_.assign(num_procs, 0);  // the initial barrier has no stream entry
}

const std::vector<ScheduleEntry>& Schedule::stream(ProcId p) const {
  BM_REQUIRE(p < streams_.size(), "processor id out of range");
  return streams_[p];
}

const DynBitset& Schedule::barrier_mask(BarrierId b) const {
  BM_REQUIRE(b < masks_.size() && alive_[b], "barrier not alive");
  return masks_[b];
}

std::optional<BarrierId> Schedule::final_barrier() const {
  return final_barrier_;
}

std::size_t Schedule::inserted_barrier_count() const {
  std::size_t n = 0;
  for (BarrierId b = 1; b < alive_.size(); ++b)
    if (alive_[b] && (!final_barrier_ || b != *final_barrier_)) ++n;
  return n;
}

bool Schedule::placed(NodeId instr) const {
  BM_REQUIRE(instr < instr_placed_.size(), "not an instruction node");
  return instr_placed_[instr];
}

Schedule::Loc Schedule::loc(NodeId instr) const {
  BM_REQUIRE(placed(instr), "instruction not placed");
  return instr_loc_[instr];
}

void Schedule::rebuild_stream_index() const {
  sidx_.resize(streams_.size());
  for (ProcId p = 0; p < streams_.size(); ++p) {
    const auto& s = streams_[p];
    StreamIndex& ix = sidx_[p];
    ix.cum.resize(s.size() + 1);
    ix.base.resize(s.size() + 1);
    ix.last_bar.resize(s.size() + 1);
    ix.next_bar.resize(s.size());
    TimeRange cum{0, 0}, base{0, 0};
    BarrierId last = kInitialBarrier;
    for (std::uint32_t k = 0; k < s.size(); ++k) {
      ix.cum[k] = cum;
      ix.base[k] = base;
      ix.last_bar[k] = last;
      if (s[k].is_barrier) {
        last = s[k].id;
        base = cum;  // new segment starts after this barrier
      } else {
        cum += instr_time(s[k].id);
      }
    }
    ix.cum[s.size()] = cum;
    ix.base[s.size()] = base;
    ix.last_bar[s.size()] = last;
    BarrierId next = kInvalidBarrier;
    for (std::uint32_t k = static_cast<std::uint32_t>(s.size()); k-- > 0;) {
      ix.next_bar[k] = next;
      if (s[k].is_barrier) next = s[k].id;
    }
  }
  sidx_valid_ = true;
}

const Schedule::StreamIndex& Schedule::sidx(ProcId p) const {
  if (!sidx_valid_) rebuild_stream_index();
  return sidx_[p];
}

void Schedule::append_instr(ProcId p, NodeId instr) {
  BM_REQUIRE(p < streams_.size(), "processor id out of range");
  BM_REQUIRE(instr < instr_placed_.size() && !instr_placed_[instr],
             "instruction already placed or not an instruction");
  instr_loc_[instr] = {p, static_cast<std::uint32_t>(streams_[p].size())};
  instr_placed_[instr] = true;
  streams_[p].push_back(ScheduleEntry::instr(instr));
  last_instr_[p] = instr;
  ++instr_cnt_[p];
  if (sidx_valid_) {
    // Extend the positional index in place: an appended instruction adds one
    // tail position with the same segment base and last barrier.
    StreamIndex& ix = sidx_[p];
    ix.cum.push_back(ix.cum.back() + instr_time(instr));
    ix.base.push_back(ix.base.back());
    ix.last_bar.push_back(ix.last_bar.back());
    ix.next_bar.push_back(kInvalidBarrier);
  }
  // No invalidate(): the entry lands after the stream's last barrier, i.e.
  // in the tail code that barrier_dag() excludes from its chains, so the
  // cached analysis (and its ψ memo) stays exact. Only barrier insertion
  // and merging change the dag.
}

std::optional<NodeId> Schedule::last_instr(ProcId p) const {
  BM_REQUIRE(p < streams_.size(), "processor id out of range");
  if (last_instr_[p] == kInvalidNode) return std::nullopt;
  return last_instr_[p];
}

std::size_t Schedule::instr_count(ProcId p) const {
  BM_REQUIRE(p < streams_.size(), "processor id out of range");
  return instr_cnt_[p];
}

BarrierId Schedule::last_barrier_before(ProcId p, std::uint32_t pos) const {
  const StreamIndex& ix = sidx(p);
  BM_REQUIRE(pos < ix.last_bar.size(), "position out of range");
  return ix.last_bar[pos];
}

std::optional<BarrierId> Schedule::next_barrier_after(
    ProcId p, std::uint32_t pos) const {
  const StreamIndex& ix = sidx(p);
  BM_REQUIRE(pos < ix.next_bar.size(), "position out of range");
  if (ix.next_bar[pos] == kInvalidBarrier) return std::nullopt;
  return ix.next_bar[pos];
}

TimeRange Schedule::delta_through(ProcId p, std::uint32_t pos) const {
  const auto& s = stream(p);
  BM_REQUIRE(pos < s.size() && !s[pos].is_barrier,
             "delta_through requires an instruction position");
  return delta_before(p, pos) + instr_time(s[pos].id);
}

TimeRange Schedule::delta_before(ProcId p, std::uint32_t pos) const {
  const StreamIndex& ix = sidx(p);
  BM_REQUIRE(pos < ix.cum.size(), "position out of range");
  return prefix_diff(ix.cum[pos], ix.base[pos]);
}

const BarrierDag& Schedule::build_analysis() const {
  // Chains straight from the stream index: hop from barrier to barrier via
  // next_bar/bar_pos_, each segment a difference of prefix sums.
  const std::size_t procs = streams_.size();
  chains_scratch_.resize(procs);
  for (ProcId p = 0; p < procs; ++p) {
    const StreamIndex& ix = sidx(p);
    BarrierChainInput& chain = chains_scratch_[p];
    chain.barriers.assign(1, kInitialBarrier);
    chain.segments.clear();
    const auto& s = streams_[p];
    BarrierId b = s.empty()             ? kInvalidBarrier
                  : s.front().is_barrier ? s.front().id
                                         : ix.next_bar[0];
    TimeRange at_prev{0, 0};
    while (b != kInvalidBarrier) {
      const std::uint32_t pos = bar_pos_[b * procs + p] - 1;
      chain.segments.push_back(prefix_diff(ix.cum[pos], at_prev));
      chain.barriers.push_back(b);
      at_prev = ix.cum[pos];
      b = ix.next_bar[pos];
    }
    // Tail code after the last barrier is not part of the dag.
  }
  analysis_.emplace(masks_.size(), kInitialBarrier, chains_scratch_,
                    barrier_latency_);
  analysis_valid_ = true;
  return *analysis_;
}

TimeRange Schedule::proc_finish(ProcId p) const {
  const BarrierDag& bd = barrier_dag();
  const StreamIndex& ix = sidx(p);
  const std::size_t end = ix.cum.size() - 1;
  return bd.fire_range(ix.last_bar[end]) +
         prefix_diff(ix.cum[end], ix.base[end]);
}

TimeRange Schedule::completion() const {
  TimeRange total{0, 0};
  for (ProcId p = 0; p < streams_.size(); ++p)
    total = total.join_max(proc_finish(p));
  return total;
}

void Schedule::reindex(ProcId p) {
  const auto& s = streams_[p];
  for (std::uint32_t i = 0; i < s.size(); ++i)
    if (!s[i].is_barrier) instr_loc_[s[i].id] = {p, i};
}

BarrierId Schedule::insert_barrier(std::span<const Loc> at) {
  BM_REQUIRE(!at.empty(), "barrier needs at least one participant");
  DynBitset mask(num_procs());
  for (const Loc& l : at) {
    BM_REQUIRE(l.proc < num_procs(), "processor id out of range");
    BM_REQUIRE(!mask.test(l.proc), "duplicate processor in barrier insertion");
    BM_REQUIRE(l.pos <= streams_[l.proc].size(), "position out of range");
    mask.set(l.proc);
  }
  const auto id = static_cast<BarrierId>(masks_.size());
  masks_.push_back(std::move(mask));
  alive_.push_back(true);
  bar_pos_.resize(masks_.size() * num_procs(), 0);
  // The stream index is patched in place: only the participating
  // processors change, and within each only the tail shifts and the split
  // segment's base/last-bar entries move to the new barrier. A full
  // rebuild_stream_index() would rescan every stream of every processor on
  // each of the scheduler's ~10^5 insertions.
  const bool patch_sidx = sidx_valid_;
  for (const Loc& l : at) {
    auto& s = streams_[l.proc];
    s.insert(s.begin() + l.pos, ScheduleEntry::barrier(id));
    bar_pos_[id * num_procs() + l.proc] = l.pos + 1;
    for (auto i = static_cast<std::uint32_t>(l.pos + 1); i < s.size(); ++i)
      if (!s[i].is_barrier)
        instr_loc_[s[i].id] = {l.proc, i};
      else
        bar_pos_[s[i].id * num_procs() + l.proc] = i + 1;
    if (patch_sidx) patch_stream_index(l.proc, l.pos, id);
  }
  if (analysis_valid_) splice_into_analysis(id, at);
  return id;
}

void Schedule::splice_into_analysis(BarrierId id, std::span<const Loc> at) {
  // The new barrier sits between LastBar and NextBar of its position on
  // each processor, and splits the code between them at its prefix sum.
  ScratchVec<BarrierDag::Splice> splices_s;
  auto& splices = *splices_s;
  splices.clear();
  const std::size_t procs = streams_.size();
  for (const Loc& l : at) {
    const StreamIndex& ix = sidx(l.proc);
    BarrierDag::Splice& sp = splices.emplace_back();
    sp.chain = l.proc;
    sp.pred = ix.last_bar[l.pos];
    sp.succ = ix.next_bar[l.pos];
    sp.before = prefix_diff(ix.cum[l.pos], ix.base[l.pos]);
    if (sp.succ != kInvalidBarrier)
      sp.after = prefix_diff(ix.cum[bar_pos_[sp.succ * procs + l.proc] - 1],
                             ix.cum[l.pos]);
  }
  // A splice that would close a cycle leaves the dag to the next full
  // build, which reports it exactly as before.
  if (!analysis_->add_barrier(id, splices)) analysis_valid_ = false;
}

void Schedule::patch_stream_index(ProcId p, std::uint32_t pos,
                                  BarrierId id) const {
  // `streams_[p]` already contains the new barrier entry at `pos`.
  const auto& s = streams_[p];
  StreamIndex& ix = sidx_[p];
  // Positions <= pos are untouched; the barrier adds a zero-time position
  // whose prefix equals cum[pos], and opens a segment based there.
  const TimeRange cum_at = ix.cum[pos];
  ix.cum.insert(ix.cum.begin() + pos + 1, cum_at);
  ix.base.insert(ix.base.begin() + pos + 1, cum_at);
  ix.last_bar.insert(ix.last_bar.begin() + pos + 1, id);
  // The rest of the split segment (up to the next barrier entry) now bases
  // at the new barrier; positions beyond it are shifted but unchanged.
  for (std::uint32_t k = pos + 2; k < ix.cum.size(); ++k) {
    if (s[k - 1].is_barrier) break;
    ix.base[k] = cum_at;
    ix.last_bar[k] = id;
  }
  // next_bar: the new entry's next barrier is the first one at or after the
  // old `pos`; earlier entries in the split segment now point at `id`.
  BarrierId nb = kInvalidBarrier;
  if (pos + 1 < s.size())
    nb = s[pos + 1].is_barrier ? s[pos + 1].id : ix.next_bar[pos];
  ix.next_bar.insert(ix.next_bar.begin() + pos, nb);
  for (std::uint32_t k = pos; k-- > 0;) {
    ix.next_bar[k] = id;
    if (s[k].is_barrier) break;
  }
}

bool Schedule::order_feasible(std::span<const Loc> virtual_barrier,
                              BarrierId merge_keep,
                              BarrierId merge_victim) const {
  // The full-graph check (no probe) has no acyclicity invariant to lean on
  // — deserialized schedules land here — so it stays on the Kahn reference.
  // Probe shapes outside the scheduler's two hot forms (a two-sided virtual
  // barrier, or a pure merge) also fall through to it.
  const bool merging = merge_victim != kInvalidBarrier;
  if (virtual_barrier.empty() ? !merging
                              : (merging || virtual_barrier.size() > 2))
    return order_feasible_ref(virtual_barrier, merge_keep, merge_victim);

  // Fast path: the scheduler only mutates after a feasible probe, appended
  // instructions have all their dag predecessors already placed, and
  // remove_barrier only deletes constraints — so the CURRENT joint graph is
  // always acyclic here. Any new cycle must therefore pass through the
  // probed mutation, which turns the acyclicity check into a targeted
  // reachability question on the existing graph:
  //
  //  * merge(a, b): contracting two barriers creates a cycle iff some
  //    successor of the contracted node reaches it again, i.e. iff a path
  //    a ⇝ b or b ⇝ a runs through at least one intermediate node (the
  //    direct stream edge would contract to a self-loop, which the
  //    reference drops too).
  //  * virtual barrier at {(p, pos_p)}: the splice replaces each stream
  //    edge prev_p → next_p by prev_p → v → next_p, so a cycle through v
  //    exists iff some next entry reaches some prev entry. The search runs
  //    on the unspliced graph; that is sound because it stops the moment it
  //    reaches any prev (never traversing the replaced prev → next edge),
  //    and an initial-barrier prev (pos 0) has no in-edges to reach.
  //
  // Visiting enumerates successors in place — stream successor via
  // instr_loc_ / bar_pos_, dependence successors via the dag's CSR — so a
  // probe touches only the reachable frontier instead of materializing and
  // Kahn-sorting the whole joint graph.
  const std::size_t n = instr_placed_.size();
  const std::size_t procs = streams_.size();
  auto relabel = [&](BarrierId b) {
    return (merging && b == merge_victim) ? merge_keep : b;
  };
  auto entry_node = [&](const ScheduleEntry& e) -> std::uint32_t {
    return e.is_barrier ? static_cast<std::uint32_t>(n + relabel(e.id))
                        : e.id;
  };

  const std::size_t num_nodes = n + masks_.size();
  if (probe_stamp_.size() < num_nodes) probe_stamp_.resize(num_nodes, 0);
  const std::uint64_t epoch = ++probe_epoch_;

  ScratchVec<std::uint32_t> stack_s;
  auto& stack = *stack_s;
  stack.clear();

  constexpr std::uint32_t kNoTarget = 0xffffffffu;
  std::uint32_t tgt0 = kNoTarget, tgt1 = kNoTarget;
  // Returns true when the probe is infeasible (a target was reached).
  auto visit = [&](std::uint32_t v) {
    if (v == tgt0 || v == tgt1) return true;
    if (probe_stamp_[v] != epoch) {
      probe_stamp_[v] = epoch;
      stack.push_back(v);
    }
    return false;
  };

  if (merging) {
    tgt0 = static_cast<std::uint32_t>(n + merge_keep);
    for (const BarrierId b : {merge_keep, merge_victim}) {
      for (ProcId p = 0; p < procs; ++p) {
        const std::uint32_t bp = bar_pos_[b * procs + p];
        if (bp == 0 || bp >= streams_[p].size()) continue;
        const std::uint32_t succ = entry_node(streams_[p][bp]);
        if (succ == tgt0) continue;  // contracts to a dropped self-loop
        if (probe_stamp_[succ] != epoch) {
          probe_stamp_[succ] = epoch;
          stack.push_back(succ);
        }
      }
    }
  } else {
    for (const Loc& l : virtual_barrier)
      if (l.pos > 0)
        (tgt0 == kNoTarget ? tgt0 : tgt1) =
            entry_node(streams_[l.proc][l.pos - 1]);
    // Every prev is the (unreachable) initial barrier: nothing to cycle to.
    if (tgt0 == kNoTarget) return true;
    // A next entry that is itself some prev entry is the immediate cycle
    // v → x → v; visit() reports it before any expansion.
    for (const Loc& l : virtual_barrier)
      if (l.pos < streams_[l.proc].size())
        if (visit(entry_node(streams_[l.proc][l.pos]))) return false;
  }

  while (!stack.empty()) {
    const std::uint32_t v = stack.back();
    stack.pop_back();
    if (v < n) {
      const Loc l = instr_loc_[v];
      const auto& s = streams_[l.proc];
      if (l.pos + 1 < s.size() && visit(entry_node(s[l.pos + 1])))
        return false;
      for (const NodeId d : dag_->succs(v))
        if (d < n && instr_placed_[d] &&
            visit(static_cast<std::uint32_t>(d)))
          return false;
    } else {
      const auto b = static_cast<BarrierId>(v - n);
      for (ProcId p = 0; p < procs; ++p) {
        const std::uint32_t bp = bar_pos_[b * procs + p];
        if (bp == 0 || bp >= streams_[p].size()) continue;
        if (visit(entry_node(streams_[p][bp]))) return false;
      }
    }
  }
  return true;  // no path back through the probed mutation
}

bool Schedule::order_feasible_ref(std::span<const Loc> virtual_barrier,
                                  BarrierId merge_keep,
                                  BarrierId merge_victim) const {
  // Node layout: [0, n) instructions, [n, n + id_bound) barriers,
  // n + id_bound = the virtual barrier.
  const std::size_t n = instr_placed_.size();
  const std::size_t barrier_node = n + masks_.size();
  const std::size_t num_nodes = barrier_node + 1;

  auto barrier_index = [&](BarrierId b) -> std::size_t {
    if (merge_victim != kInvalidBarrier && b == merge_victim)
      b = merge_keep;  // unified node
    return n + b;
  };
  auto entry_node = [&](const ScheduleEntry& e) {
    return e.is_barrier ? barrier_index(e.id) : e.id;
  };
  // One pass collects the joint edge set (stream order with the virtual
  // barrier spliced in, plus every placed dependence edge) into a pooled
  // flat list; degrees and the CSR are then filled from the list. All
  // buffers are pooled, so the thousands of feasibility probes per schedule
  // allocate nothing.
  ScratchVec<std::pair<std::uint32_t, std::uint32_t>> edges_s;
  auto& edges = *edges_s;
  edges.clear();
  auto sink = [&](std::size_t from, std::size_t to) {
    if (from == to) return;  // merged barriers adjacent on a chain
    edges.emplace_back(static_cast<std::uint32_t>(from),
                       static_cast<std::uint32_t>(to));
  };
  for (ProcId p = 0; p < streams_.size(); ++p) {
    std::optional<std::uint32_t> splice;
    for (const Loc& l : virtual_barrier)
      if (l.proc == p) splice = l.pos;
    std::size_t prev = barrier_index(kInitialBarrier);
    const auto& s = streams_[p];
    for (std::uint32_t k = 0; k <= s.size(); ++k) {
      if (splice && *splice == k) {
        sink(prev, barrier_node);
        prev = barrier_node;
      }
      if (k == s.size()) break;
      const std::size_t node = entry_node(s[k]);
      sink(prev, node);
      prev = node;
    }
  }
  // Every placed dependence edge must remain jointly enforceable.
  for (const auto& [g, i] : dag_->sync_edges())
    if (instr_placed_[g] && instr_placed_[i])
      sink(static_cast<std::size_t>(g), static_cast<std::size_t>(i));

  ScratchVec<std::uint32_t> off_s, cursor_s, dat_s, indeg_s, ready_s;
  auto& off = *off_s;
  auto& indeg = *indeg_s;
  off.assign(num_nodes + 1, 0);
  indeg.assign(num_nodes, 0);
  for (const auto& [from, to] : edges) {
    ++off[from + 1];
    ++indeg[to];
  }
  for (std::size_t v = 1; v <= num_nodes; ++v) off[v] += off[v - 1];
  auto& cursor = *cursor_s;
  cursor.assign(off.begin(), off.end() - 1);
  auto& dat = *dat_s;
  dat.resize(off[num_nodes]);
  for (const auto& [from, to] : edges) dat[cursor[from]++] = to;

  // Kahn acyclicity check.
  auto& ready = *ready_s;
  ready.clear();
  for (std::size_t v = 0; v < num_nodes; ++v)
    if (indeg[v] == 0) ready.push_back(static_cast<std::uint32_t>(v));
  std::size_t seen = 0;
  while (!ready.empty()) {
    const std::uint32_t v = ready.back();
    ready.pop_back();
    ++seen;
    for (std::uint32_t e = off[v]; e < off[v + 1]; ++e)
      if (--indeg[dat[e]] == 0) ready.push_back(dat[e]);
  }
  return seen == num_nodes;
}

std::size_t Schedule::merge_overlapping_all() {
  sweep_skipped_.clear();
  std::size_t merges = 0;
  while (merge_next()) ++merges;
  return merges;
}

std::optional<std::pair<BarrierId, BarrierId>> Schedule::merge_next() {
  auto in = [](const std::vector<std::pair<BarrierId, BarrierId>>& v,
               BarrierId a, BarrierId b) {
    return std::find(v.begin(), v.end(), std::pair{a, b}) != v.end();
  };
  const BarrierDag& bd = barrier_dag();
  const auto [keep, victim] =
      bd.first_overlap_pair([&](BarrierId a, BarrierId b) {
        if (final_barrier_ && (a == *final_barrier_ || b == *final_barrier_))
          return false;
        if (in(sweep_skipped_, a, b)) return false;
        // Infeasibility is monotone across this schedule's lifetime: every
        // mutation the list scheduler performs (append, insertion, merge)
        // only ADDs constraints to the joint order graph, so a pair that
        // once formed a cycle forms one forever. The memo turns the
        // repeated re-probe of known-bad pairs on every sweep into a list
        // hit (remove_barrier, which deletes constraints, clears it).
        if (in(merge_infeasible_, a, b) || !order_feasible({}, a, b)) {
          if (!in(merge_infeasible_, a, b)) merge_infeasible_.emplace_back(a, b);
          sweep_skipped_.emplace_back(a, b);
          ++merges_skipped_;
          return false;
        }
        return true;
      });
  if (keep == kInvalidBarrier) return std::nullopt;
  // Merge: relabel the victim's stream entries, union the masks.
  BM_ASSERT_INTERNAL(!masks_[keep].intersects(masks_[victim]),
                     "unordered barriers cannot share a processor");
  masks_[keep] |= masks_[victim];
  alive_[victim] = false;
  masks_[victim].clear();
  // A merge relabels barrier ids but moves no entry: positions, prefix
  // sums and segment bases are untouched, so the stream index keeps its
  // layout and only the victim's segment neighbours change their labels.
  const std::size_t procs = num_procs();
  for (ProcId p = 0; p < procs; ++p) {
    std::uint32_t& vp = bar_pos_[victim * procs + p];
    if (vp == 0) continue;
    const std::uint32_t pos = vp - 1;
    bar_pos_[keep * procs + p] = vp;  // masks are disjoint
    vp = 0;
    auto& s = streams_[p];
    s[pos].id = keep;
    if (!sidx_valid_) continue;
    StreamIndex& ix = sidx_[p];
    // last_bar is the victim from just after it through the next barrier
    // entry; next_bar from the previous barrier entry up to just before it.
    for (std::uint32_t k = pos + 1; k < ix.last_bar.size(); ++k) {
      ix.last_bar[k] = keep;
      if (k < s.size() && s[k].is_barrier) break;
    }
    for (std::uint32_t k = pos; k-- > 0;) {
      ix.next_bar[k] = keep;
      if (s[k].is_barrier) break;
    }
  }
  analysis_->merge(keep, victim);
  return std::pair{keep, victim};
}

void Schedule::remove_barrier(BarrierId b) {
  BM_REQUIRE(b != kInitialBarrier, "cannot remove the initial barrier");
  BM_REQUIRE(b < masks_.size() && alive_[b], "barrier not alive");
  // Removal deletes joint-order constraints, so infeasibility proofs
  // recorded by the merge sweep no longer hold.
  merge_infeasible_.clear();
  if (final_barrier_ && *final_barrier_ == b) final_barrier_.reset();
  alive_[b] = false;
  masks_[b].clear();
  for (ProcId p = 0; p < num_procs(); ++p) {
    auto& s = streams_[p];
    const std::size_t before = s.size();
    s.erase(std::remove_if(s.begin(), s.end(),
                           [&](const ScheduleEntry& e) {
                             return e.is_barrier && e.id == b;
                           }),
            s.end());
    if (s.size() != before) reindex(p);
  }
  rebuild_barrier_positions();
  invalidate();
}

void Schedule::rebuild_barrier_positions() {
  std::fill(bar_pos_.begin(), bar_pos_.end(), 0);
  for (ProcId p = 0; p < num_procs(); ++p) {
    const auto& s = streams_[p];
    for (std::uint32_t i = 0; i < s.size(); ++i)
      if (s[i].is_barrier) bar_pos_[s[i].id * num_procs() + p] = i + 1;
  }
}

void Schedule::add_final_barrier() {
  BM_REQUIRE(!final_barrier_, "final barrier already added");
  std::vector<Loc> at;
  for (ProcId p = 0; p < num_procs(); ++p)
    if (instr_count(p) > 0)
      at.push_back({p, static_cast<std::uint32_t>(streams_[p].size())});
  if (at.size() < 2) return;
  final_barrier_ = insert_barrier(at);
}

void Schedule::set_final_barrier(BarrierId b) {
  BM_REQUIRE(!final_barrier_, "final barrier already set");
  BM_REQUIRE(b < masks_.size() && alive_[b], "barrier not alive");
  for (ProcId p = 0; p < num_procs(); ++p) {
    if (!masks_[b].test(p)) continue;
    const auto& s = streams_[p];
    BM_REQUIRE(!s.empty() && s.back().is_barrier && s.back().id == b,
               "final barrier must end every participating stream");
  }
  final_barrier_ = b;
}

std::string Schedule::to_string() const {
  std::ostringstream os;
  for (ProcId p = 0; p < num_procs(); ++p) {
    os << "P" << p << ':';
    for (const ScheduleEntry& e : streams_[p]) {
      if (e.is_barrier)
        os << " |B" << e.id << '|';
      else
        os << " n" << e.id;
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace bm
