// Schedule: the authoritative barrier-MIMD schedule representation.
//
// Each processor owns a stream of entries (instructions and barrier waits) in
// execution order. Barriers are registered with participation masks; the
// initial barrier (id 0) implicitly precedes every stream (§3.1). All timing
// analysis — fire ranges, dominators, ψ-paths — is derived through a
// BarrierDag built in full on first use and then updated in place by every
// insertion and merge; appending tail instructions leaves it untouched.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "barrier/barrier_dag.hpp"
#include "graph/instr_dag.hpp"
#include "support/bitset.hpp"

namespace bm {

using ProcId = std::uint32_t;

struct ScheduleEntry {
  bool is_barrier = false;
  std::uint32_t id = 0;  ///< NodeId (instruction) or BarrierId

  static ScheduleEntry instr(NodeId n) { return {false, n}; }
  static ScheduleEntry barrier(BarrierId b) { return {true, b}; }
};

class Schedule {
 public:
  /// The InstrDag must outlive the schedule (supplies instruction times).
  /// `barrier_latency` is the hardware cost from last arrival to release,
  /// charged per barrier in all static analysis and by the simulators.
  Schedule(const InstrDag& dag, std::size_t num_procs,
           Time barrier_latency = 0);

  std::size_t num_procs() const { return streams_.size(); }
  const InstrDag& instr_dag() const { return *dag_; }
  Time barrier_latency() const { return barrier_latency_; }
  const std::vector<ScheduleEntry>& stream(ProcId p) const;

  // --- barriers ------------------------------------------------------------
  static constexpr BarrierId kInitialBarrier = 0;
  std::size_t barrier_id_bound() const { return masks_.size(); }
  bool barrier_alive(BarrierId b) const { return alive_.at(b); }
  const DynBitset& barrier_mask(BarrierId b) const;
  /// The final rejoin barrier, if add_final_barrier() was called.
  std::optional<BarrierId> final_barrier() const;
  /// Alive barriers excluding the initial barrier and the final rejoin —
  /// the count the Barrier Synchronization Fraction is computed from.
  std::size_t inserted_barrier_count() const;

  // --- instruction placement ------------------------------------------------
  struct Loc {
    ProcId proc = 0;
    std::uint32_t pos = 0;  ///< index into the processor's stream
  };
  bool placed(NodeId instr) const;
  Loc loc(NodeId instr) const;
  void append_instr(ProcId p, NodeId instr);
  /// Last instruction entry on p (ignoring barriers), if any.
  std::optional<NodeId> last_instr(ProcId p) const;
  std::size_t instr_count(ProcId p) const;

  // --- stream-relative queries (all positions index the proc's stream) -----
  /// LastBar: last barrier entry strictly before pos (initial if none).
  BarrierId last_barrier_before(ProcId p, std::uint32_t pos) const;
  /// NextBar: first barrier entry strictly after pos, if any.
  std::optional<BarrierId> next_barrier_after(ProcId p,
                                              std::uint32_t pos) const;
  /// δ including pos: summed time of instruction entries in
  /// (LastBar(pos), pos]. pos must hold an instruction.
  TimeRange delta_through(ProcId p, std::uint32_t pos) const;
  /// δ excluding pos: summed time of instruction entries after the last
  /// barrier before pos, up to but not including pos. pos may equal the
  /// stream size (end).
  TimeRange delta_before(ProcId p, std::uint32_t pos) const;

  // --- analysis -------------------------------------------------------------
  /// Barrier dag over the current streams: built in full on first use (and
  /// after remove_barrier), kept current by insert_barrier and merges.
  /// Queried millions of times per run, so the cached-hit path is inline.
  const BarrierDag& barrier_dag() const {
    if (analysis_valid_) return *analysis_;
    return build_analysis();
  }
  /// When this processor has retired its whole stream: fire range of its
  /// last barrier plus the tail code.
  TimeRange proc_finish(ProcId p) const;
  /// All processors finished (achieved by the all-min / all-max draws).
  TimeRange completion() const;

  // --- mutation ---------------------------------------------------------
  /// Inserts a new barrier entry at each given position (one Loc per
  /// distinct processor; existing entries at >= pos shift right). Returns
  /// the new barrier's id. Participation mask = the given processors.
  BarrierId insert_barrier(std::span<const Loc> at);
  BarrierId insert_barrier(std::initializer_list<Loc> at) {
    return insert_barrier(std::span<const Loc>(at.begin(), at.size()));
  }

  /// §4.4.3 SBM merging, run to a global fixpoint: while any two alive
  /// unordered barriers have overlapping fire ranges, merge them (union
  /// masks; the higher-id barrier's stream entries are relabeled to the
  /// lower id). Returns the number of merges performed.
  ///
  /// The paper merges only the newly inserted barrier; we extend this to a
  /// global fixpoint because a later insertion can shift fire ranges and
  /// create a *stale* unordered overlap, which would let the SBM's FIFO
  /// delay a barrier past its static fire window and silently invalidate
  /// earlier timing-based resolutions. After the fixpoint, all unordered
  /// barrier pairs have disjoint ranges, so the SBM queue (loaded in
  /// fire-min order) never delays any barrier beyond the dag semantics.
  ///
  /// A merge is skipped as *illegal* when unioning the pair would create a
  /// path NextBar(i) →* LastBar(g) for some placed cross-processor
  /// dependence edge g→i: such an ordering forces the consumer to finish
  /// before its producer starts and no later barrier could repair it (the
  /// paper's merge rule lacks this guard). Skipped pairs are counted in
  /// merges_skipped().
  std::size_t merge_overlapping_all();

  /// One step of merge_overlapping_all(): merges the lexicographically first
  /// alive, unordered, fire-overlapping pair (excluding the final rejoin)
  /// whose merge passes the legality guard, and returns it as (keep,
  /// victim); nullopt at the fixpoint.
  std::optional<std::pair<BarrierId, BarrierId>> merge_next();

  /// Unordered-overlapping pairs left unmerged by the legality guard since
  /// construction (diagnostic; ≈0 in practice).
  std::size_t merges_skipped() const { return merges_skipped_; }

  /// The joint-order feasibility check behind both legality guards: the
  /// combined graph of per-processor stream order, barrier orderings, and
  /// *all* placed dependence edges must stay acyclic — otherwise some
  /// dependence could never be enforced by any future barrier. Evaluates
  /// the graph as if `virtual_barrier` entries were inserted (empty = none)
  /// and/or barriers `merge_keep`/`merge_victim` were unified
  /// (kInvalidBarrier = no merge).
  bool order_feasible(std::span<const Loc> virtual_barrier,
                      BarrierId merge_keep = kInvalidBarrier,
                      BarrierId merge_victim = kInvalidBarrier) const;

  /// Reference implementation of order_feasible(): materializes the whole
  /// joint graph and runs Kahn's algorithm. order_feasible() delegates here
  /// for the no-probe full check (schedules parsed from text carry no
  /// acyclicity invariant) and for probe shapes the reachability fast path
  /// does not cover; it is also the differential-testing oracle for that
  /// fast path (see schedule_feasibility_test).
  bool order_feasible_ref(std::span<const Loc> virtual_barrier,
                          BarrierId merge_keep = kInvalidBarrier,
                          BarrierId merge_victim = kInvalidBarrier) const;

  /// Deletes an alive barrier outright: kills its mask, erases its stream
  /// entries, and forgets it as the final rejoin if it was one. The initial
  /// barrier cannot be removed. Primarily a mutation hook for the verifier's
  /// self-test (src/verify/selftest) — deleting an arbitrary barrier from a
  /// verified schedule generally *breaks* its safety argument, which is
  /// exactly what the detector must notice.
  void remove_barrier(BarrierId b);

  /// Appends a rejoin barrier across every processor that has at least one
  /// instruction (no-op if fewer than two). Excluded from barrier counts.
  void add_final_barrier();

  /// Marks an existing barrier as the final rejoin (deserialization
  /// support): it must be the last entry of every stream it appears in.
  void set_final_barrier(BarrierId b);

  /// Multi-line ASCII rendering of all streams (diagnostics, examples).
  std::string to_string() const;

 private:
  void invalidate() {
    analysis_valid_ = false;
    sidx_valid_ = false;
  }
  const BarrierDag& build_analysis() const;
  /// insert_barrier's incremental dag update for the new barrier `id`.
  void splice_into_analysis(BarrierId id, std::span<const Loc> at);
  void reindex(ProcId p);
  /// Rescans every stream into bar_pos_ (only remove_barrier needs it; all
  /// other mutations patch the index in place).
  void rebuild_barrier_positions();
  /// In-place stream-index update for a barrier inserted at (p, pos) —
  /// insert_barrier's alternative to wholesale invalidation.
  void patch_stream_index(ProcId p, std::uint32_t pos, BarrierId id) const;
  TimeRange instr_time(NodeId n) const { return dag_->time(n); }

  /// Columnar per-stream position index, the backing store of every
  /// stream-relative query (δ prefix sums, LastBar/NextBar, segment bases).
  /// Each array has one entry per position 0..size (cum/last_bar/base) or
  /// per entry 0..size-1 (next_bar), so the former O(segment) backwards
  /// walks are O(1) lookups. insert_barrier patches it, merges relabel it
  /// and append_instr extends it in place; only remove_barrier makes it
  /// rebuild lazily.
  struct StreamIndex {
    std::vector<TimeRange> cum;       ///< cum[k]: instr time summed over [0,k)
    std::vector<TimeRange> base;      ///< cum value at k's segment start
    std::vector<BarrierId> last_bar;  ///< last barrier strictly before k
    std::vector<BarrierId> next_bar;  ///< first barrier after k (kInvalid: none)
  };
  const StreamIndex& sidx(ProcId p) const;
  void rebuild_stream_index() const;

  const InstrDag* dag_;
  Time barrier_latency_ = 0;
  std::vector<std::vector<ScheduleEntry>> streams_;
  std::vector<DynBitset> masks_;  ///< indexed by BarrierId
  std::vector<bool> alive_;
  std::optional<BarrierId> final_barrier_;
  std::vector<Loc> instr_loc_;
  std::vector<bool> instr_placed_;
  /// Stream position of barrier b on processor p at [b * num_procs + p],
  /// stored as pos + 1 (0 = b has no entry on p). The barrier-side analogue
  /// of instr_loc_, maintained by every mutation; order_feasible()'s
  /// reachability probes use it to enumerate a barrier node's stream
  /// successors without scanning streams.
  std::vector<std::uint32_t> bar_pos_;
  /// Visited stamps for order_feasible()'s reachability probes, epoch-keyed
  /// so the ~10^5 probes per schedule never clear the array.
  mutable std::vector<std::uint64_t> probe_stamp_;
  mutable std::uint64_t probe_epoch_ = 0;
  std::vector<NodeId> last_instr_;        ///< per proc; kInvalidNode if none
  std::vector<std::uint32_t> instr_cnt_;  ///< per proc instruction count
  std::size_t merges_skipped_ = 0;
  /// Merge pairs proven order-infeasible. Monotone: list-scheduler
  /// mutations only add joint-order constraints, so entries stay valid for
  /// the schedule's lifetime — except remove_barrier, which deletes
  /// constraints and clears the memo.
  std::vector<std::pair<BarrierId, BarrierId>> merge_infeasible_;
  /// Pairs counted in merges_skipped_ by the current merge sweep (each
  /// rejected pair counts once per sweep).
  std::vector<std::pair<BarrierId, BarrierId>> sweep_skipped_;
  /// `analysis_valid_` is the staleness flag: false before the first
  /// query, after remove_barrier, and after an insertion that closed a
  /// cycle (the next full build reports it).
  mutable std::optional<BarrierDag> analysis_;
  mutable bool analysis_valid_ = false;
  mutable std::vector<StreamIndex> sidx_;
  mutable bool sidx_valid_ = false;
  /// Chain inputs for barrier_dag() full builds (member scratch).
  mutable std::vector<BarrierChainInput> chains_scratch_;
};

}  // namespace bm
