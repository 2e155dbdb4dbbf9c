// Differential tests of the timing engine (sim/simulator.cpp) against the
// event-driven reference simulator in sim_oracle.hpp: identical traces,
// completions and rng consumption for every sampling mode and both machine
// models, over synthesized programs and the committed golden corpus; and
// completion summaries identical to a serial loop of reference runs,
// including ragged lane tails.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "codegen/synthesize.hpp"
#include "graph/instr_dag.hpp"
#include "harness/experiment.hpp"
#include "sched/scheduler.hpp"
#include "sched/serialize.hpp"
#include "sim/simulator.hpp"
#include "sim_oracle.hpp"

namespace bm {
namespace {

constexpr SamplingMode kAllModes[] = {SamplingMode::kUniform,
                                      SamplingMode::kBimodal,
                                      SamplingMode::kAllMin,
                                      SamplingMode::kAllMax};
constexpr MachineKind kBothMachines[] = {MachineKind::kSBM, MachineKind::kDBM};

/// A synthesized program scheduled for `machine`: many barriers and
/// cross-PE edges, deterministic for a fixed seed. Timing variation keeps
/// min < max so the four sampling modes genuinely diverge.
struct Bench {
  SynthesisResult syn;
  InstrDag dag;
  ScheduleResult result;

  Bench(MachineKind machine, std::uint64_t seed, std::size_t procs = 8,
        Time latency = 0) {
    Rng rng(seed);
    const GeneratorConfig gen{
        .num_statements = 60, .num_variables = 10, .num_constants = 4};
    syn = synthesize_benchmark(gen, rng);
    dag = InstrDag::build(syn.program, TimingModel::table1_with_variation(0.5));
    SchedulerConfig cfg;
    cfg.machine = machine;
    cfg.num_procs = procs;
    cfg.barrier_latency = latency;
    result = schedule_program(dag, cfg, rng);
  }

  const Schedule& sched() const { return *result.schedule; }
};

/// Expects the engine's trace to equal the oracle's element for element
/// (kNotExecuted slots included) and both to leave the rng in one state.
void expect_engine_matches_oracle(const Schedule& sched,
                                  const SimConfig& config, std::uint64_t seed,
                                  const std::string& what) {
  Rng engine_rng(seed), oracle_rng(seed);
  ExecTrace t;
  simulate_into(sched, config, engine_rng, t);
  const ExecTrace ref = oracle::simulate(sched, config, oracle_rng);
  EXPECT_EQ(t.start, ref.start) << what;
  EXPECT_EQ(t.finish, ref.finish) << what;
  EXPECT_EQ(t.barrier_fire, ref.barrier_fire) << what;
  EXPECT_EQ(t.completion, ref.completion) << what;
  EXPECT_EQ(engine_rng.next(), oracle_rng.next()) << "rng state, " << what;
}

std::string label(MachineKind machine, SamplingMode mode, std::uint64_t seed) {
  return "machine " + std::to_string(static_cast<int>(machine)) + " mode " +
         std::to_string(static_cast<int>(mode)) + " seed " +
         std::to_string(seed);
}

TEST(SimEngine, MatchesOracleOnSynthesizedPrograms) {
  for (std::uint64_t seed = 40; seed < 46; ++seed) {
    // Odd seeds add a barrier latency and a small PE count, so the SBM
    // queue order delays fires and each PE runs a longer stream.
    const bool odd = seed % 2 != 0;
    for (MachineKind sched_for : kBothMachines) {
      const Bench bench(sched_for, seed, odd ? 3 : 8, odd ? 2 : 0);
      for (MachineKind machine : kBothMachines)
        for (SamplingMode mode : kAllModes)
          expect_engine_matches_oracle(bench.sched(), {machine, mode},
                                       100 + seed,
                                       label(machine, mode, seed));
    }
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// The golden corpus (tests/golden/*.txt): per combo, 25 serialized
/// schedules of the headline block shape, seeded like harness run_seed.
TEST(SimEngine, MatchesOracleOnGoldenCorpus) {
  std::size_t schedules = 0;
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
      // npos - body still runs to the end of the text.
      const Schedule sched =
          schedule_from_text(dag, text.substr(body, next - body));
      for (MachineKind machine : kBothMachines)
        for (SamplingMode mode : kAllModes)
          expect_engine_matches_oracle(
              sched, {machine, mode}, i,
              std::string(combo) + " " + label(machine, mode, i));
      ++schedules;
      pos = next;
    }
  }
  EXPECT_EQ(schedules, 100u);
}

TEST(SimEngine, SummaryMatchesSerialOracleRuns) {
  // 8 lanes per walk: 1 and 7 are all tail, 8 is one full walk, 9 and 20
  // end in a ragged tail.
  for (MachineKind machine : kBothMachines) {
    const Bench bench(machine, 42);
    for (std::size_t runs : {1UL, 7UL, 8UL, 9UL, 20UL}) {
      Rng rng(9), ref_rng(9);
      const CompletionSummary s =
          summarize_completion(bench.sched(), machine, runs, rng);
      const Time min_draw =
          oracle::simulate(bench.sched(), {machine, SamplingMode::kAllMin},
                           ref_rng)
              .completion;
      const Time max_draw =
          oracle::simulate(bench.sched(), {machine, SamplingMode::kAllMax},
                           ref_rng)
              .completion;
      double total = 0;
      for (std::size_t r = 0; r < runs; ++r)
        total += static_cast<double>(
            oracle::simulate(bench.sched(), {machine, SamplingMode::kUniform},
                             ref_rng)
                .completion);
      EXPECT_EQ(s.min_draw, min_draw) << "runs " << runs;
      EXPECT_EQ(s.max_draw, max_draw) << "runs " << runs;
      // Lane completions fold in run order, so the doubles are
      // bit-identical, not merely close.
      EXPECT_EQ(s.mean, total / static_cast<double>(runs)) << "runs " << runs;
      EXPECT_EQ(rng.next(), ref_rng.next()) << "rng state, runs " << runs;
    }
  }
}

// Barrier 1's mask names PE 0, but PE 0 blocks at barrier 2 first, which
// in turn waits for PE 1 at barrier 1 — neither machine can ever fire
// either barrier, and a run must say so rather than report a completion.
TEST(SimEngine, MaskNamingAnUnreachedBarrierIsADeadlock) {
  Program p(2);
  p.append(Tuple::load(0, 0));
  p.append(Tuple::load(1, 1));
  const InstrDag dag = InstrDag::build(p, TimingModel::table1());
  Schedule sched(dag, 2);
  sched.append_instr(0, 0);
  sched.append_instr(1, 1);
  sched.insert_barrier({{0, 0}, {1, 0}});  // P0: B1 n0    P1: B1 n1
  sched.insert_barrier({{0, 0}, {1, 1}});  // P0: B2 B1 n0 P1: B1 B2 n1
  for (MachineKind machine : kBothMachines) {
    Rng rng(1);
    EXPECT_THROW(simulate(sched, {machine, SamplingMode::kUniform}, rng),
                 Error);
    EXPECT_THROW(
        oracle::simulate(sched, {machine, SamplingMode::kUniform}, rng),
        Error);
  }
}

}  // namespace
}  // namespace bm
