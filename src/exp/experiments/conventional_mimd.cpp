// §1/§3 motivation — conventional MIMD (directed runtime sync) vs barrier
// MIMD on the same placements, across network latencies.
#include "exp/registry.hpp"
#include "harness/report.hpp"
#include "mimd/directed.hpp"
#include "mimd/reduce.hpp"

namespace bm {
namespace {

Experiment make_conventional_mimd() {
  Experiment e;
  e.name = "conventional_mimd";
  e.title = "§1/§3 — conventional MIMD (directed sync) vs barrier MIMD";
  e.paper_ref = "motivation (Fig. 3, >77% headline)";
  e.workload = "60 statements, 10 variables, 8 PEs; same placement, two machines";
  e.expected =
      "Paper (§3): graph-structural reduction [Shaf89] removes some "
      "synchronizations; barrier scheduling's min/max timing analysis "
      "removes more (barriers < reduced syncs), and the barrier machine's "
      "completion advantage grows with network latency.";
  e.flags = common_flags(100);
  e.flags.push_back(int_flag("procs", 8, "number of PEs"));
  e.flags.push_back(int_flag("statements", 60, "statements per block"));
  e.flags.push_back(int_flag("variables", 10, "variables per block"));
  e.sweeps = {{"max-latency", {1, 4, 8, 16, 32}}};
  e.run = [](ExpContext& ctx) {
    const RunOptions opt = ctx.run_options();
    const GeneratorConfig gen = ctx.generator_config();
    const SchedulerConfig cfg = ctx.scheduler_config();
    const Sweep& sweep = ctx.sweep("max-latency");

    TextTable table({"sync latency", "MIMD syncs/blk", "Shaffer-reduced",
                     "barriers (SBM)", "MIMD compl", "reduced compl",
                     "SBM compl", "SBM speedup"});
    const std::string path = ctx.artifacts().csv_path();
    CsvWriter csv(path);
    csv.write_row({"max_latency", "mimd_syncs", "reduced_syncs", "barriers",
                   "mimd_completion", "reduced_completion", "sbm_completion",
                   "sbm_speedup"});
    // Re-run the same seeds for both conventional-MIMD executions: the full
    // directed-sync set, and the [Shaf89] transitive reduction the paper
    // compares its timing-based approach against (§3). One task per
    // (latency, seed) pair, all in one pool.
    struct DirectedResult {
      double mimd_syncs = 0, reduced_syncs = 0;
      double mimd_compl = 0, reduced_compl = 0;
    };
    const std::size_t n = opt.seeds;
    const std::vector<DirectedResult> directed =
        fan_out_seeds(opt, sweep.values.size() * n, [&](std::size_t k) {
          DirectedSyncConfig mimd_cfg;
          mimd_cfg.latency = {1, static_cast<Time>(sweep.values[k / n])};
          Rng rng = benchmark_rng(opt.base_seed, k % n);
          const SynthesisResult s = synthesize_benchmark(gen, rng);
          const InstrDag dag =
              InstrDag::build(s.program, TimingModel::table1());
          const ScheduleResult r = schedule_program(dag, cfg, rng);
          const SyncReduction red = reduce_directed_syncs(*r.schedule);
          double total_full = 0, total_reduced = 0;
          std::size_t syncs = 0;
          for (int run = 0; run < 5; ++run) {
            const DirectedSyncResult full =
                simulate_directed(*r.schedule, mimd_cfg, rng);
            total_full += static_cast<double>(full.trace.completion);
            syncs = full.runtime_syncs;
            const DirectedSyncResult reduced =
                simulate_directed(*r.schedule, mimd_cfg, rng, red.kept);
            total_reduced += static_cast<double>(reduced.trace.completion);
          }
          return DirectedResult{static_cast<double>(syncs),
                                static_cast<double>(red.retained),
                                total_full / 5.0, total_reduced / 5.0};
        });

    for (std::size_t li = 0; li < sweep.values.size(); ++li) {
      RunningStats mimd_syncs, reduced_syncs, barriers;
      RunningStats mimd_compl, reduced_compl, sbm_compl;
      RunOptions o = opt;
      o.sim_runs = 5;
      run_point(gen, cfg, o, [&](const BenchmarkOutcome& outcome) {
        barriers.add(static_cast<double>(outcome.stats.barriers_final));
        sbm_compl.add(outcome.barrier_completion.mean);
      });
      for (std::size_t i = 0; i < n; ++i) {
        const DirectedResult& d = directed[li * n + i];
        reduced_syncs.add(d.reduced_syncs);
        mimd_compl.add(d.mimd_compl);
        reduced_compl.add(d.reduced_compl);
        mimd_syncs.add(d.mimd_syncs);
      }
      const double speedup = mimd_compl.mean() / sbm_compl.mean();
      table.add_row({"[1," + sweep.label(li) + "]",
                     TextTable::num(mimd_syncs.mean(), 1),
                     TextTable::num(reduced_syncs.mean(), 1),
                     TextTable::num(barriers.mean(), 2),
                     TextTable::num(mimd_compl.mean(), 1),
                     TextTable::num(reduced_compl.mean(), 1),
                     TextTable::num(sbm_compl.mean(), 1),
                     TextTable::num(speedup, 2) + "x"});
      csv.write_row({sweep.label(li), std::to_string(mimd_syncs.mean()),
                     std::to_string(reduced_syncs.mean()),
                     std::to_string(barriers.mean()),
                     std::to_string(mimd_compl.mean()),
                     std::to_string(reduced_compl.mean()),
                     std::to_string(sbm_compl.mean()),
                     std::to_string(speedup)});
      ctx.artifacts().metric("max_latency=" + sweep.label(li) + ".sbm_speedup",
                             speedup);
    }
    table.render(ctx.out());
    ctx.out() << "(series written to " << path << ")\n";
  };
  return e;
}

BM_REGISTER_EXPERIMENT(make_conventional_mimd)

}  // namespace
}  // namespace bm
