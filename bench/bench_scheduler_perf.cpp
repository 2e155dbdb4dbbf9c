// google-benchmark microbenchmarks: throughput of the compiler-side
// pipeline (synthesis, the local optimizer alone, DAG construction,
// scheduling with each insertion policy, VLIW baseline). Not a paper
// figure — engineering instrumentation.
#include <benchmark/benchmark.h>

#include "codegen/emitter.hpp"
#include "codegen/synthesize.hpp"
#include "harness/experiment.hpp"
#include "sched/scheduler.hpp"
#include "vliw/vliw.hpp"

namespace {

using namespace bm;

GeneratorConfig gen_for(std::int64_t statements) {
  GeneratorConfig g;
  g.num_statements = static_cast<std::uint32_t>(statements);
  g.num_variables = 10;
  return g;
}

void BM_Synthesize(benchmark::State& state) {
  const GeneratorConfig gen = gen_for(state.range(0));
  Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(synthesize_benchmark(gen, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Synthesize)->Arg(20)->Arg(60)->Arg(120);

// The §2.2 optimizer by itself, on blocks emitted before timing starts. Each
// iteration copies one block into a warm Program (no allocation) and
// optimizes the copy.
void BM_Optimize(benchmark::State& state) {
  const GeneratorConfig gen = gen_for(state.range(0));
  const StatementGenerator stmt_gen(gen);
  Rng rng(42);
  std::vector<Program> blocks;
  for (int i = 0; i < 64; ++i)
    blocks.push_back(emit_tuples(stmt_gen.generate(rng), gen.num_variables));
  Program work = blocks.front();
  std::size_t next = 0;
  for (auto _ : state) {
    work = blocks[next++ % blocks.size()];
    benchmark::DoNotOptimize(optimize(work));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Optimize)->Arg(60)->Arg(120);

void BM_BuildInstrDag(benchmark::State& state) {
  Rng rng(42);
  const SynthesisResult s = synthesize_benchmark(gen_for(state.range(0)), rng);
  const TimingModel tm = TimingModel::table1();
  for (auto _ : state) {
    benchmark::DoNotOptimize(InstrDag::build(s.program, tm));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BuildInstrDag)->Arg(20)->Arg(60)->Arg(120);

void BM_ScheduleConservative(benchmark::State& state) {
  Rng rng(42);
  const SynthesisResult s = synthesize_benchmark(gen_for(state.range(0)), rng);
  const InstrDag dag = InstrDag::build(s.program, TimingModel::table1());
  SchedulerConfig cfg;
  cfg.num_procs = 8;
  for (auto _ : state) {
    Rng tie_rng(7);
    benchmark::DoNotOptimize(schedule_program(dag, cfg, tie_rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ScheduleConservative)->Arg(20)->Arg(60)->Arg(120);

void BM_ScheduleOptimal(benchmark::State& state) {
  Rng rng(42);
  const SynthesisResult s = synthesize_benchmark(gen_for(state.range(0)), rng);
  const InstrDag dag = InstrDag::build(s.program, TimingModel::table1());
  SchedulerConfig cfg;
  cfg.num_procs = 8;
  cfg.insertion = InsertionPolicy::kOptimal;
  for (auto _ : state) {
    Rng tie_rng(7);
    benchmark::DoNotOptimize(schedule_program(dag, cfg, tie_rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ScheduleOptimal)->Arg(20)->Arg(60)->Arg(120);

void BM_ScheduleVliw(benchmark::State& state) {
  Rng rng(42);
  const SynthesisResult s = synthesize_benchmark(gen_for(state.range(0)), rng);
  const InstrDag dag = InstrDag::build(s.program, TimingModel::table1());
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule_vliw(dag, 8));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ScheduleVliw)->Arg(20)->Arg(60)->Arg(120);

void BM_ScheduleManyProcs(benchmark::State& state) {
  Rng rng(42);
  const SynthesisResult s = synthesize_benchmark(gen_for(100), rng);
  const InstrDag dag = InstrDag::build(s.program, TimingModel::table1());
  SchedulerConfig cfg;
  cfg.num_procs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Rng tie_rng(7);
    benchmark::DoNotOptimize(schedule_program(dag, cfg, tie_rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ScheduleManyProcs)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

// Seed-level fan-out of the experiment harness (arg = worker count). One
// iteration = a full 16-seed parameter point; compare Jobs/1 vs Jobs/N for
// the harness scaling curve. Results are bit-identical across worker counts.
void BM_RunPointJobs(benchmark::State& state) {
  GeneratorConfig gen;
  gen.num_statements = 30;
  gen.num_variables = 10;
  SchedulerConfig cfg;
  cfg.num_procs = 8;
  RunOptions opt;
  opt.seeds = 16;
  opt.jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_point(gen, cfg, opt));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * opt.seeds));
}
BENCHMARK(BM_RunPointJobs)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

}  // namespace
// main() is bench/bench_main.cpp (stamps bm_build_type for the bench gate).
