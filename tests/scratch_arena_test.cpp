// Pooled-scratch accounting: after a warmup pass, the per-seed synthesis
// and scheduling pipeline must run entirely out of the thread-local arenas —
// zero pool misses and zero capacity growth, i.e. no heap allocation for
// scratch buffers inside the seed loop. The `mem.scratch.*` obs counters
// are the witness (see support/scratch.hpp).
#include <gtest/gtest.h>

#include "codegen/synthesize.hpp"
#include "graph/instr_dag.hpp"
#include "harness/experiment.hpp"
#include "obs/obs.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"
#include "support/scratch.hpp"

namespace bm {
namespace {

#if BM_OBS_ENABLED

double scratch_misses() { return obs::snapshot().get("mem.scratch.miss"); }
double scratch_grows() { return obs::snapshot().get("mem.scratch.grow"); }

PointAggregate run_seeds(std::size_t seeds, std::uint64_t base_seed,
                         InsertionPolicy insertion, MachineKind machine) {
  GeneratorConfig gen;
  SchedulerConfig sc;
  sc.insertion = insertion;
  sc.machine = machine;
  RunOptions opt;
  opt.seeds = seeds;
  opt.base_seed = base_seed;
  opt.jobs = 1;  // single worker: one pool, exact steady-state accounting
  opt.sim_runs = 2;
  return run_point(gen, sc, opt);
}

TEST(ScratchArenaTest, SteadyStateSeedLoopAllocatesNothing) {
  // Warmup: first seeds populate the pools (misses expected) and stretch
  // every buffer to the workload's high-water capacity (growth expected).
  run_seeds(10, 1990, InsertionPolicy::kConservative, MachineKind::kSBM);
  run_seeds(5, 1990, InsertionPolicy::kOptimal, MachineKind::kDBM);
  const double miss_before = scratch_misses();
  const double grow_before = scratch_grows();

  // The pools must actually be in play, or "zero new misses" is vacuous.
  ASSERT_GT(miss_before, 0) << "scheduling pipeline never used ScratchVec — "
                               "did the hot path stop pooling its buffers?";

  // Steady state: *different* seeds (fresh programs, fresh schedules),
  // same-shaped workload. Every scratch checkout must be served from the
  // warm pool without growing.
  run_seeds(25, 2718, InsertionPolicy::kConservative, MachineKind::kSBM);
  run_seeds(10, 3141, InsertionPolicy::kOptimal, MachineKind::kDBM);

  EXPECT_EQ(scratch_misses() - miss_before, 0)
      << "a seed-loop code path allocated a scratch buffer per call";
  EXPECT_EQ(scratch_grows() - grow_before, 0)
      << "a pooled buffer regrew inside the steady-state seed loop";
}

// The §2.2 optimizer's pooled buffers (operand map, store index, value
// table, DCE remap) obey the same rule: once warm, synthesizing more blocks
// of one shape allocates no scratch.
TEST(ScratchArenaTest, SteadyStateSynthesisAllocatesNothing) {
  GeneratorConfig gen;
  gen.num_statements = 120;
  gen.num_variables = 10;
  Rng warm(1);
  for (int i = 0; i < 50; ++i) synthesize_benchmark(gen, warm);
  const double miss_before = scratch_misses();
  const double grow_before = scratch_grows();
  ASSERT_GT(miss_before, 0) << "the optimizer never used ScratchVec";

  Rng rng(2);
  for (int i = 0; i < 200; ++i) synthesize_benchmark(gen, rng);
  EXPECT_EQ(scratch_misses() - miss_before, 0)
      << "synthesis allocated a scratch buffer per call";
  EXPECT_EQ(scratch_grows() - grow_before, 0)
      << "a pooled optimizer buffer regrew in steady state";
}

// summarize_completion runs its uniform draws several lanes per schedule
// walk; the manifest-visible sim.runs must still count one per simulated
// run — the lane grouping, ragged tail included, must not leak into it.
TEST(ScratchArenaTest, BatchCountersTrackDispatchesAndStayOffManifests) {
  GeneratorConfig gen;
  gen.num_statements = 30;
  SchedulerConfig sc;
  Rng rng(77);
  const SynthesisResult syn = synthesize_benchmark(gen, rng);
  const InstrDag dag = InstrDag::build(syn.program, TimingModel::table1());
  const ScheduleResult r = schedule_program(dag, sc, rng);

  // 12 uniform runs: a full group of lanes plus a ragged tail, and the
  // all-min / all-max draws on top.
  constexpr std::size_t kRuns = 12;
  const obs::Snapshot before = obs::snapshot();
  Rng sim_rng(5);
  summarize_completion(*r.schedule, sc.machine, kRuns, sim_rng);
  const obs::Snapshot d = obs::delta(before, obs::snapshot());
  EXPECT_EQ(d.get("sim.runs"), kRuns + 2);
}

#else  // BM_OBS_ENABLED

TEST(ScratchArenaTest, SkippedWithoutObs) {
  GTEST_SKIP() << "scratch accounting requires BM_OBS=ON";
}

#endif  // BM_OBS_ENABLED

}  // namespace
}  // namespace bm
