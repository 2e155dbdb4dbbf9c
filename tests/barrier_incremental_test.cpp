// Differential oracle for the incremental barrier analysis: after every
// barrier insertion and every merge, the schedule's in-place-updated
// BarrierDag must answer every query exactly like a dag built from scratch
// from the same chains — fire ranges, reachability, edge ranges, ψ_max/ψ_min
// rows, common dominators, the linear extension and the barrier order — and
// each merge step must pick the pair a brute-force lexicographic scan picks.
// The mutation sequences come from the committed golden corpus (replayed
// barrier by barrier) and from list-scheduling synthesized programs for
// both machines, both insertion policies and two barrier latencies.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "codegen/synthesize.hpp"
#include "graph/instr_dag.hpp"
#include "harness/experiment.hpp"
#include "sched/insertion.hpp"
#include "sched/labels.hpp"
#include "sched/serialize.hpp"
#include "support/rng.hpp"

namespace bm {
namespace {

/// The current chains, rescanned entry by entry (independent of the stream
/// index the schedule derives its own chains from).
std::vector<BarrierChainInput> rescan_chains(const Schedule& s) {
  std::vector<BarrierChainInput> chains(s.num_procs());
  for (ProcId p = 0; p < s.num_procs(); ++p) {
    BarrierChainInput& chain = chains[p];
    chain.barriers.push_back(Schedule::kInitialBarrier);
    TimeRange seg{0, 0};
    for (const ScheduleEntry& e : s.stream(p)) {
      if (e.is_barrier) {
        chain.segments.push_back(seg);
        chain.barriers.push_back(e.id);
        seg = {0, 0};
      } else {
        seg += s.instr_dag().time(e.id);
      }
    }
  }
  return chains;
}

BarrierDag fresh_dag(const Schedule& s) {
  const std::vector<BarrierChainInput> chains = rescan_chains(s);
  return BarrierDag(s.barrier_id_bound(), Schedule::kInitialBarrier, chains,
                    s.barrier_latency());
}

/// Every query of the schedule's maintained dag against a fresh build. The
/// all-pairs ψ queries fill every memo row, so a row an update should have
/// dropped shows up as a stale answer after the next mutation.
void expect_matches_fresh(const Schedule& s, const std::string& what) {
  const BarrierDag& inc = s.barrier_dag();
  const BarrierDag ref = fresh_dag(s);
  ASSERT_EQ(inc.barrier_ids(), ref.barrier_ids()) << what;
  ASSERT_EQ(inc.barrier_count(), ref.barrier_count()) << what;
  for (BarrierId b = 0; b < s.barrier_id_bound(); ++b)
    ASSERT_EQ(inc.known(b), ref.known(b)) << what << " B" << b;
  const std::vector<BarrierId>& ids = ref.barrier_ids();
  for (const BarrierId u : ids) {
    ASSERT_EQ(inc.fire_range(u), ref.fire_range(u)) << what << " B" << u;
    for (const BarrierId v : ids) {
      const std::string pair =
          what + " (B" + std::to_string(u) + ", B" + std::to_string(v) + ")";
      ASSERT_EQ(inc.path_exists(u, v), ref.path_exists(u, v)) << pair;
      ASSERT_EQ(inc.has_edge(u, v), ref.has_edge(u, v)) << pair;
      if (ref.has_edge(u, v)) {
        ASSERT_EQ(inc.edge_range(u, v), ref.edge_range(u, v)) << pair;
      }
      ASSERT_EQ(inc.psi_max(u, v), ref.psi_max(u, v)) << pair;
      ASSERT_EQ(inc.psi_min(u, v), ref.psi_min(u, v)) << pair;
      ASSERT_EQ(inc.common_dominator(u, v), ref.common_dominator(u, v))
          << pair;
    }
  }
  ASSERT_EQ(inc.linear_extension(), ref.linear_extension()) << what;

  // The maintained merge-candidate set, in full, against a scan of the
  // fresh dag: every unordered pair with overlapping fire ranges.
  std::vector<std::pair<BarrierId, BarrierId>> got, want;
  inc.first_overlap_pair([&](BarrierId a, BarrierId b) {
    got.emplace_back(a, b);
    return false;
  });
  std::vector<BarrierId> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i)
    for (std::size_t j = i + 1; j < sorted.size(); ++j)
      if (ref.fire_range(sorted[i]).overlaps(ref.fire_range(sorted[j])) &&
          !ref.ordered(sorted[i], sorted[j]))
        want.emplace_back(sorted[i], sorted[j]);
  ASSERT_EQ(got, want) << what;
}

/// The merge a brute-force scan picks: the lexicographically first alive,
/// non-final pair that is unordered with overlapping fire ranges in a fresh
/// dag and passes the full-graph Kahn feasibility check.
std::optional<std::pair<BarrierId, BarrierId>> brute_force_merge(
    const Schedule& s) {
  const BarrierDag ref = fresh_dag(s);
  const auto final_b = s.final_barrier();
  auto candidate = [&](BarrierId b) {
    return s.barrier_alive(b) && (!final_b || b != *final_b);
  };
  const auto bound = static_cast<BarrierId>(s.barrier_id_bound());
  for (BarrierId a = 1; a < bound; ++a) {
    if (!candidate(a)) continue;
    for (BarrierId b = a + 1; b < bound; ++b) {
      if (!candidate(b)) continue;
      if (!ref.fire_range(a).overlaps(ref.fire_range(b)) || ref.ordered(a, b))
        continue;
      if (s.order_feasible_ref({}, a, b)) return std::pair{a, b};
    }
  }
  return std::nullopt;
}

/// Runs merge steps to the fixpoint, checking each step's pair against the
/// brute force and the analysis after each merge. Returns the merge count.
std::size_t merge_checked(Schedule& s, const std::string& what) {
  for (std::size_t merges = 0;; ++merges) {
    const auto expected = brute_force_merge(s);
    const auto got = s.merge_next();
    EXPECT_EQ(got, expected) << what << " merge " << merges;
    if (!got || !expected) return merges;
    expect_matches_fresh(s, what + " after merge " + std::to_string(merges));
    if (::testing::Test::HasFatalFailure()) return merges;
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Rebuilds `target` on a fresh schedule: instructions first, then each
/// barrier in id order at its final position among the entries already
/// present, checking the analysis after every insertion.
void replay(const Schedule& target, Schedule& s, const std::string& what) {
  s.barrier_dag();  // full build now: every insertion below is an update
  for (ProcId p = 0; p < target.num_procs(); ++p)
    for (const ScheduleEntry& e : target.stream(p))
      if (!e.is_barrier) s.append_instr(p, e.id);
  for (BarrierId b = 1; b < target.barrier_id_bound(); ++b) {
    if (!target.barrier_alive(b)) continue;
    std::vector<Schedule::Loc> at;
    for (ProcId p = 0; p < target.num_procs(); ++p) {
      std::uint32_t pos = 0;
      for (const ScheduleEntry& e : target.stream(p)) {
        if (e.is_barrier && e.id == b) {
          at.push_back({p, pos});
          break;
        }
        if (!e.is_barrier || e.id < b) ++pos;
      }
    }
    ASSERT_EQ(s.insert_barrier(at), b) << what;
    if (target.final_barrier() == b) s.set_final_barrier(b);
    expect_matches_fresh(s, what + " after inserting B" + std::to_string(b));
    if (::testing::Test::HasFatalFailure()) return;
  }
  ASSERT_EQ(schedule_to_text(s), schedule_to_text(target)) << what;
}

TEST(BarrierIncremental, GoldenCorpusReplays) {
  std::size_t schedules = 0, merges = 0;
  for (const char* combo : {"conservative_sbm", "conservative_dbm",
                            "optimal_sbm", "optimal_dbm"}) {
    const std::string text =
        read_file(std::string(BM_GOLDEN_DIR) + "/" + combo + ".txt");
    ASSERT_FALSE(text.empty()) << combo;
    std::size_t pos = text.find("=== seed ");
    for (std::size_t i = 0; pos != std::string::npos; ++i) {
      const std::size_t body = text.find('\n', pos) + 1;
      const std::size_t next = text.find("=== seed ", body);
      Rng rng = benchmark_rng(1990, i);
      const SynthesisResult synth =
          synthesize_benchmark(GeneratorConfig{}, rng);
      const InstrDag dag =
          InstrDag::build(synth.program, TimingModel::table1());
      const Schedule target =
          schedule_from_text(dag, text.substr(body, next - body));
      Schedule s(dag, target.num_procs(), target.barrier_latency());
      const std::string what =
          std::string(combo) + " seed " + std::to_string(i);
      replay(target, s, what);
      if (HasFatalFailure()) return;
      // Replayed DBM schedules were never merged: the sweep has work.
      merges += merge_checked(s, what);
      if (HasFatalFailure()) return;
      ++schedules;
      pos = next;
    }
  }
  EXPECT_EQ(schedules, 100u);
  EXPECT_GT(merges, 0u);
}

struct Tally {
  std::size_t inserted = 0, merged = 0;
};

/// List-schedules a synthesized program the §4.3 way (serialize behind a
/// producer when one ends its stream, else the earliest-finishing PE, ties
/// random), inserting barriers through ensure_sync and merging (SBM) one
/// checked step at a time.
void drive_synthesized(std::uint64_t seed, MachineKind machine,
                       InsertionPolicy policy, Time latency, Tally& tally) {
  Rng rng(seed);
  const GeneratorConfig gen{
      .num_statements = 60, .num_variables = 10, .num_constants = 4};
  const SynthesisResult syn = synthesize_benchmark(gen, rng);
  const InstrDag dag =
      InstrDag::build(syn.program, TimingModel::table1_with_variation(0.5));
  Schedule s(dag, 8, latency);
  s.barrier_dag();
  const std::string what = "seed " + std::to_string(seed) + " machine " +
                           std::to_string(static_cast<int>(machine)) +
                           " policy " +
                           std::to_string(static_cast<int>(policy)) +
                           " latency " + std::to_string(latency);
  std::vector<ProcId> ties;
  for (const NodeId node : make_list_order(dag, OrderingPolicy::kMaxThenMin)) {
    std::optional<ProcId> proc;
    for (const NodeId p : dag.instr_preds(node))
      if (s.last_instr(s.loc(p).proc) == p) proc = s.loc(p).proc;
    if (!proc) {
      ties.clear();
      Time best = 0;
      for (ProcId p = 0; p < s.num_procs(); ++p) {
        const Time t = s.proc_finish(p).min;
        if (ties.empty() || t < best) ties.assign(1, p), best = t;
        else if (t == best) ties.push_back(p);
      }
      proc = ties[rng.index(ties.size())];
    }
    s.append_instr(*proc, node);
    for (const NodeId p : dag.instr_preds(node)) {
      if (s.loc(p).proc == *proc) continue;
      const SyncOutcome out = ensure_sync(s, p, node, policy, false);
      if (out.kind != SyncOutcome::Kind::kBarrierInserted) continue;
      ++tally.inserted;
      expect_matches_fresh(s, what + " after an insertion");
      if (::testing::Test::HasFatalFailure()) return;
      if (machine == MachineKind::kSBM) tally.merged += merge_checked(s, what);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  s.add_final_barrier();
  expect_matches_fresh(s, what + " after the final barrier");
}

TEST(BarrierIncremental, SynthesizedProgramsAllConfigs) {
  Tally tally;
  for (const MachineKind machine : {MachineKind::kSBM, MachineKind::kDBM})
    for (const InsertionPolicy policy :
         {InsertionPolicy::kConservative, InsertionPolicy::kOptimal})
      for (const Time latency : {Time{0}, Time{2}})
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
          drive_synthesized(seed, machine, policy, latency, tally);
          if (HasFatalFailure()) return;
        }
  EXPECT_GT(tally.inserted, 300u);
  EXPECT_GT(tally.merged, 30u);
}

TEST(BarrierIncremental, InfeasibleFirstPairIsSkippedForTheNext) {
  // P0: n2 |B1| n0     P1: n1 |B2|     P2: n3 |B3|     with n0 → n1.
  // B1, B2 and B3 are pairwise unordered and overlap in time, but merging
  // B1 with B2 would order n1 (before B2) ahead of its producer n0 (after
  // B1): the sweep must skip (1, 2) and merge (1, 3).
  Program prog(3);
  prog.append(Tuple::load(0, 0));
  prog.append(Tuple::binary(1, Opcode::kAdd, Operand::tuple(0),
                            Operand::constant(1)));
  prog.append(Tuple::load(2, 1));
  prog.append(Tuple::load(3, 2));
  const InstrDag dag = InstrDag::build(prog, TimingModel::table1());
  Schedule s(dag, 3);
  s.barrier_dag();
  s.append_instr(0, 2);
  s.append_instr(0, 0);
  s.append_instr(1, 1);
  s.append_instr(2, 3);
  ASSERT_EQ(s.insert_barrier({{0, 1}}), 1u);
  ASSERT_EQ(s.insert_barrier({{1, 1}}), 2u);
  ASSERT_EQ(s.insert_barrier({{2, 1}}), 3u);
  expect_matches_fresh(s, "hand-built");
  const BarrierDag& bd = s.barrier_dag();
  ASSERT_TRUE(bd.fire_range(1).overlaps(bd.fire_range(2)));
  ASSERT_TRUE(bd.fire_range(1).overlaps(bd.fire_range(3)));
  ASSERT_FALSE(s.order_feasible_ref({}, 1, 2));

  EXPECT_EQ(s.merge_overlapping_all(), 1u);
  EXPECT_EQ(s.merges_skipped(), 1u);
  EXPECT_FALSE(s.barrier_alive(3));
  EXPECT_EQ(s.barrier_mask(1).count(), 2u);
  expect_matches_fresh(s, "hand-built after the sweep");
  // (1, 2) still overlaps and stays infeasible; the step API agrees with
  // the brute force that nothing is left to merge.
  EXPECT_EQ(brute_force_merge(s), std::nullopt);
  EXPECT_EQ(s.merge_next(), std::nullopt);
}

TEST(BarrierIncremental, MergeExtendsReachabilityOfKeepsAncestors) {
  // P0: |B1| n0 n1 |B2|     P1: n2 n3 n4 |B3| n5 |B4|     (all loads)
  // B2 and B3 are the only overlapping unordered pair. Merging them gives
  // B1 a path to B4 through the merged barrier, although B1 reached
  // neither B3 nor B4 before.
  Program prog(6);
  for (std::uint32_t i = 0; i < 6; ++i) prog.append(Tuple::load(i, i));
  const InstrDag dag = InstrDag::build(prog, TimingModel::table1());
  Schedule s(dag, 2);
  s.barrier_dag();
  for (NodeId n : {0u, 1u}) s.append_instr(0, n);
  for (NodeId n : {2u, 3u, 4u, 5u}) s.append_instr(1, n);
  ASSERT_EQ(s.insert_barrier({{0, 0}}), 1u);
  ASSERT_EQ(s.insert_barrier({{0, 3}}), 2u);
  ASSERT_EQ(s.insert_barrier({{1, 3}}), 3u);
  ASSERT_EQ(s.insert_barrier({{1, 5}}), 4u);
  expect_matches_fresh(s, "two chains");
  ASSERT_FALSE(s.barrier_dag().path_exists(1, 4));

  EXPECT_EQ(merge_checked(s, "two chains"), 1u);
  EXPECT_FALSE(s.barrier_alive(3));
  EXPECT_TRUE(s.barrier_dag().path_exists(1, 4));
}

}  // namespace
}  // namespace bm
