// google-benchmark microbenchmark: completion summaries, whose uniform draws
// run several seed lanes per schedule walk (single-run simulation is timed
// in bench_sim_perf). Items processed counts simulated runs. Not a paper
// figure — engineering instrumentation.
#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "codegen/synthesize.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace bm;

struct Prepared {
  // The schedule holds a pointer to the dag, so keep the dag's address
  // stable across the return-by-value move.
  std::unique_ptr<InstrDag> dag;
  ScheduleResult result;
};

Prepared prepare(std::size_t statements, MachineKind machine) {
  GeneratorConfig gen;
  gen.num_statements = static_cast<std::uint32_t>(statements);
  gen.num_variables = 10;
  Rng rng(42);
  const SynthesisResult s = synthesize_benchmark(gen, rng);
  Prepared p;
  p.dag = std::make_unique<InstrDag>(
      InstrDag::build(s.program, TimingModel::table1()));
  SchedulerConfig cfg;
  cfg.num_procs = 8;
  cfg.machine = machine;
  p.result = schedule_program(*p.dag, cfg, rng);
  return p;
}

/// End-to-end completion summary (min/max draws + lane-batched uniform
/// sweep) — the quantity experiments actually compute.
void BM_SummarizeCompletion(benchmark::State& state) {
  const Prepared p = prepare(60, MachineKind::kSBM);
  Rng rng(9);
  const std::size_t runs = 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(summarize_completion(
        *p.result.schedule, MachineKind::kSBM, runs, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * runs));
}
BENCHMARK(BM_SummarizeCompletion);

}  // namespace
// main() is bench/bench_main.cpp (stamps bm_build_type for the bench gate).
