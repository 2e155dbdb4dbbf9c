#include <gtest/gtest.h>

#include "cfg/cfg_gen.hpp"
#include "cfg/cfg_sim.hpp"
#include "sim/trace.hpp"

namespace bm {
namespace {

Operand C(std::int64_t v) { return Operand::constant(v); }
Operand T(TupleId id) { return Operand::tuple(id); }

CfgGeneratorConfig small_cfg_config() {
  CfgGeneratorConfig cfg;
  cfg.block = GeneratorConfig{.num_statements = 8, .num_variables = 6,
                              .num_constants = 3, .const_max = 32};
  cfg.max_depth = 2;
  cfg.seq_length = 2;
  cfg.max_trip = 5;
  return cfg;
}

/// Hand-built loop: a = 0; do { a = a + 2 } 3 times (counter = var 1).
CfgProgram counted_loop() {
  CfgProgram cfg(2);
  // Block 0 (entry): a = 0; counter = 3; jump 1.
  BasicBlock init;
  {
    Program p(2);
    p.append(Tuple::store(0, 0, C(0)));
    p.append(Tuple::store(1, 1, C(3)));
    init.body = std::move(p);
  }
  init.term = BasicBlock::Terminator::kJump;
  init.taken = 1;

  // Block 1 (body+latch): a = a + 2; counter = counter - 1;
  //                       branch self if counter != 0 else block 2.
  BasicBlock body;
  TupleId cond;
  {
    Program p(2);
    const TupleId a = p.append(Tuple::load(0, 0));
    const TupleId sum = p.append(Tuple::binary(1, Opcode::kAdd, T(a), C(2)));
    p.append(Tuple::store(2, 0, T(sum)));
    const TupleId c = p.append(Tuple::load(3, 1));
    cond = p.append(Tuple::binary(4, Opcode::kSub, T(c), C(1)));
    p.append(Tuple::store(5, 1, T(cond)));
    body.body = std::move(p);
  }
  body.term = BasicBlock::Terminator::kBranch;
  body.cond = cond;
  body.taken = 1;
  body.not_taken = 2;
  body.max_executions = 3;

  BasicBlock done;
  done.term = BasicBlock::Terminator::kExit;

  cfg.append(std::move(init));
  cfg.append(std::move(body));
  cfg.append(std::move(done));
  return cfg;
}

// -------------------------------------------------------------- CFG IR -----

TEST(CfgIr, ValidateAcceptsCountedLoop) {
  EXPECT_NO_THROW(counted_loop().validate());
}

TEST(CfgIr, ValidateRejectsBadTargets) {
  CfgProgram cfg(1);
  BasicBlock b;
  b.term = BasicBlock::Terminator::kJump;
  b.taken = 7;
  cfg.append(std::move(b));
  EXPECT_THROW(cfg.validate(), Error);
}

TEST(CfgIr, ValidateRejectsStoreCondition) {
  CfgProgram cfg(1);
  BasicBlock b;
  Program p(1);
  p.append(Tuple::store(0, 0, C(1)));
  b.body = std::move(p);
  b.term = BasicBlock::Terminator::kBranch;
  b.cond = 0;  // the store
  b.taken = b.not_taken = 0;
  cfg.append(std::move(b));
  EXPECT_THROW(cfg.validate(), Error);
}

TEST(CfgIr, ValidateRejectsBadEntry) {
  CfgProgram cfg(1);
  BasicBlock b;
  cfg.append(std::move(b));
  EXPECT_THROW(cfg.set_entry(5), Error);
}

TEST(CfgIr, ToStringShowsStructure) {
  const std::string s = counted_loop().to_string();
  EXPECT_NE(s.find("entry: block 0"), std::string::npos);
  EXPECT_NE(s.find("jump -> 1"), std::string::npos);
  EXPECT_NE(s.find("if t4 != 0 -> 1 else -> 2"), std::string::npos);
  EXPECT_NE(s.find("worst-case x3"), std::string::npos);
}

// -------------------------------------------------------- Interpreter ------

TEST(CfgInterp, CountedLoopComputesExpectedValues) {
  const CfgProgram cfg = counted_loop();
  const CfgExecResult r = interpret_cfg(cfg, {});
  EXPECT_EQ(r.memory[0], 6);  // 3 iterations of a += 2
  EXPECT_EQ(r.memory[1], 0);  // counter exhausted
  EXPECT_EQ(r.block_counts[1], 3u);
  EXPECT_EQ(r.blocks_executed, 5u);  // init + 3 body + exit
}

TEST(CfgInterp, TransferBudgetGuardsAgainstRunaway) {
  CfgProgram cfg(1);
  BasicBlock b;
  b.term = BasicBlock::Terminator::kJump;
  b.taken = 0;  // self-loop forever
  cfg.append(std::move(b));
  EXPECT_THROW(interpret_cfg(cfg, {}, 100), Error);
}

// ----------------------------------------------------------- Generator -----

TEST(CfgGen, DeterministicAndValid) {
  const CfgGeneratorConfig cc = small_cfg_config();
  Rng a(5), b(5);
  const CfgProgram p1 = generate_cfg(cc, a);
  const CfgProgram p2 = generate_cfg(cc, b);
  EXPECT_EQ(p1.to_string(), p2.to_string());
  EXPECT_NO_THROW(p1.validate());
  EXPECT_GT(p1.size(), 1u);
}

TEST(CfgGen, ConfigValidation) {
  CfgGeneratorConfig cc = small_cfg_config();
  cc.if_prob = 0.8;
  cc.loop_prob = 0.8;  // sums beyond 1
  Rng rng(1);
  EXPECT_THROW(generate_cfg(cc, rng), Error);
  cc = small_cfg_config();
  cc.min_trip = 0;
  EXPECT_THROW(generate_cfg(cc, rng), Error);
}

TEST(CfgGen, GeneratedProgramsTerminate) {
  const CfgGeneratorConfig cc = small_cfg_config();
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    const CfgProgram cfg = generate_cfg(cc, rng);
    const CfgExecResult r = interpret_cfg(cfg, {});
    EXPECT_GT(r.blocks_executed, 0u);
  }
}

TEST(CfgGen, ExecutionCountsRespectWorstCaseAnnotation) {
  const CfgGeneratorConfig cc = small_cfg_config();
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed * 7 + 1);
    const CfgProgram cfg = generate_cfg(cc, rng);
    std::vector<std::int64_t> memory(cfg.num_vars());
    for (auto& m : memory) m = rng.uniform(-50, 50);
    const CfgExecResult r = interpret_cfg(cfg, memory);
    for (BlockId b = 0; b < cfg.size(); ++b)
      EXPECT_LE(r.block_counts[b], cfg.block(b).max_executions)
          << "seed " << seed << " block " << b;
  }
}

// ----------------------------------------------------- Schedule + sim ------

TEST(CfgSched, AggregatesBlockAccounting) {
  Rng rng(3);
  const CfgProgram cfg = generate_cfg(small_cfg_config(), rng);
  SchedulerConfig sc;
  const CfgScheduleResult s =
      schedule_cfg(cfg, sc, TimingModel::table1(), rng);
  EXPECT_EQ(s.blocks.size(), cfg.size());
  std::size_t implied = 0;
  for (const auto& bs : s.blocks) implied += bs.result.stats.implied_syncs;
  EXPECT_EQ(s.implied_syncs, implied);
  EXPECT_GE(s.barrier_fraction(), 0.0);
  EXPECT_LE(s.barrier_fraction() + s.serialized_fraction(), 1.0 + 1e-12);
}

TEST(CfgSim, MatchesInterpreterSemantics) {
  const CfgGeneratorConfig cc = small_cfg_config();
  SchedulerConfig sc;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed * 13 + 7);
    const CfgProgram cfg = generate_cfg(cc, rng);
    const CfgScheduleResult s =
        schedule_cfg(cfg, sc, TimingModel::table1(), rng);
    std::vector<std::int64_t> memory(cfg.num_vars());
    for (auto& m : memory) m = rng.uniform(-50, 50);
    const CfgExecResult expect = interpret_cfg(cfg, memory);
    const CfgExecResult got = run_cfg(s, CfgSimConfig{}, memory, rng);
    EXPECT_EQ(got.memory, expect.memory) << "seed " << seed;
    EXPECT_EQ(got.block_counts, expect.block_counts);
    EXPECT_GT(got.completion, 0);
  }
}

TEST(CfgSim, CompletionEnvelopeOrdered) {
  Rng rng(9);
  const CfgProgram cfg = generate_cfg(small_cfg_config(), rng);
  SchedulerConfig sc;
  const CfgScheduleResult s =
      schedule_cfg(cfg, sc, TimingModel::table1(), rng);
  CfgSimConfig lo, hi;
  lo.sampling = SamplingMode::kAllMin;
  hi.sampling = SamplingMode::kAllMax;
  Rng r1(1), r2(1), r3(1);
  const Time t_lo = run_cfg(s, lo, {}, r1).completion;
  const Time t_hi = run_cfg(s, hi, {}, r2).completion;
  const Time t_mid = run_cfg(s, CfgSimConfig{}, {}, r3).completion;
  EXPECT_LE(t_lo, t_mid);
  EXPECT_LE(t_mid, t_hi);
}

TEST(CfgSim, ControlOverheadCharged) {
  const CfgProgram cfg = counted_loop();
  SchedulerConfig sc;
  Rng rng(2);
  const CfgScheduleResult s =
      schedule_cfg(cfg, sc, TimingModel::table1(), rng);
  CfgSimConfig free, costly;
  free.control_overhead = 0;
  free.sampling = SamplingMode::kAllMax;
  costly.control_overhead = 10;
  costly.sampling = SamplingMode::kAllMax;
  Rng r1(1), r2(1);
  const Time t0 = run_cfg(s, free, {}, r1).completion;
  const Time t10 = run_cfg(s, costly, {}, r2).completion;
  // init, 3×body transfers = 4 non-exit block executions.
  EXPECT_EQ(t10 - t0, 40);
}

TEST(CfgVliw, WorstCaseBoundDominatesActualWorstPath) {
  // The lockstep bound provisions every block at its static worst-case
  // count; the barrier machine pays only the actual path. With loops of
  // varying trip counts the bound must be at least the all-max execution.
  const CfgGeneratorConfig cc = small_cfg_config();
  SchedulerConfig sc;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed + 100);
    const CfgProgram cfg = generate_cfg(cc, rng);
    const CfgScheduleResult s =
        schedule_cfg(cfg, sc, TimingModel::table1(), rng);
    const Time bound =
        vliw_cfg_worst_case(cfg, sc.num_procs, TimingModel::table1(), 1);
    CfgSimConfig hi;
    hi.sampling = SamplingMode::kAllMax;
    Rng r1(1);
    const CfgExecResult run = run_cfg(s, hi, {}, r1);
    // Loose sanity: the lockstep bound is within a small factor of — and
    // on loopy programs typically far above — the actual path cost. The
    // barrier machine can exceed per-block VLIW makespans by a few percent
    // (Fig. 18), hence the 1.1 slack.
    EXPECT_GE(static_cast<double>(bound) * 1.1,
              static_cast<double>(run.completion))
        << "seed " << seed;
  }
}

TEST(CfgVliw, ScheduledFormReusesDagsAndAgreesWithProgramForm) {
  // The CfgScheduleResult form reads the DAGs schedule_cfg already built;
  // it must give exactly the bound the CfgProgram form rebuilds them for,
  // across procs, overheads and loop shapes.
  CfgGeneratorConfig cc = small_cfg_config();
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    cc.max_trip = static_cast<std::int64_t>(1 + seed % 8);
    SchedulerConfig sc;
    sc.num_procs = 2 + seed % 7;
    const Time overhead = static_cast<Time>(seed % 3);
    Rng rng(seed + 500);
    const CfgProgram cfg = generate_cfg(cc, rng);
    const CfgScheduleResult s =
        schedule_cfg(cfg, sc, TimingModel::table1(), rng);
    EXPECT_EQ(vliw_cfg_worst_case(s, sc.num_procs, overhead),
              vliw_cfg_worst_case(cfg, sc.num_procs, TimingModel::table1(),
                                  overhead))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace bm
