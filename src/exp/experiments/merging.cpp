// §4.4.3 barrier merging: SBM vs DBM on the paper's cited benchmark set.
#include "exp/registry.hpp"
#include "harness/report.hpp"

namespace bm {
namespace {

Experiment make_merging() {
  Experiment e;
  e.name = "merging";
  e.title = "§4.4.3 — barrier merging (SBM) vs no merging (DBM)";
  e.paper_ref = "§4.4.3";
  e.workload = "10 variables, 80 statements, 8 PEs";
  e.expected =
      "Paper: ≈35% fewer barriers from merging; SBM completion slightly "
      "above DBM but close; static fraction higher with merging.";
  e.flags = common_flags(100);
  e.flags.push_back(int_flag("procs", 8, "number of PEs"));
  e.flags.push_back(int_flag("statements", 80, "statements per block"));
  e.flags.push_back(int_flag("variables", 10, "variables per block"));
  e.flags.push_back(int_flag("sim-runs", 10, "uniform draws per benchmark"));
  e.run = [](ExpContext& ctx) {
    const RunOptions opt = ctx.run_options();
    const GeneratorConfig gen = ctx.generator_config();
    SchedulerConfig cfg = ctx.scheduler_config();

    TextTable table({"machine", "barriers/blk", "inserted/blk", "merges/blk",
                     "static frac", "compl max (mean)", "sim mean compl"});
    const std::string path = ctx.artifacts().csv_path("merging");
    CsvWriter csv(path);
    csv.write_row({"machine", "barriers", "inserted", "merges", "static_frac",
                   "completion_max", "sim_mean_completion"});
    double barriers[2] = {0, 0};
    int idx = 0;
    for (MachineKind machine : {MachineKind::kDBM, MachineKind::kSBM}) {
      cfg.machine = machine;
      RunningStats sim_mean;
      const PointAggregate agg =
          run_point(gen, cfg, opt, [&](const BenchmarkOutcome& o) {
            sim_mean.add(o.barrier_completion.mean);
          });
      const FractionAggregate& f = agg.fractions;
      table.add_row({std::string(to_string(machine)),
                     TextTable::num(f.barriers.mean(), 2),
                     TextTable::num(f.barriers_inserted.mean(), 2),
                     TextTable::num(f.merges.mean(), 2),
                     TextTable::pct(f.static_frac.mean()),
                     TextTable::num(f.completion_max.mean(), 1),
                     TextTable::num(sim_mean.mean(), 1)});
      csv.write_row({std::string(to_string(machine)),
                     std::to_string(f.barriers.mean()),
                     std::to_string(f.barriers_inserted.mean()),
                     std::to_string(f.merges.mean()),
                     std::to_string(f.static_frac.mean()),
                     std::to_string(f.completion_max.mean()),
                     std::to_string(sim_mean.mean())});
      barriers[idx++] = f.barriers.mean();
    }
    table.render(ctx.out());
    const double reduction = 100.0 * (1.0 - barriers[1] / barriers[0]);
    ctx.out() << "(series written to " << path << ")\n"
              << "\nBarrier reduction from merging: "
              << TextTable::num(reduction, 1) << "% (paper: ≈35%).\n";
    ctx.artifacts().metric("barriers_dbm", barriers[0]);
    ctx.artifacts().metric("barriers_sbm", barriers[1]);
    ctx.artifacts().metric("reduction_pct", reduction);
  };
  return e;
}

BM_REGISTER_EXPERIMENT(make_merging)

}  // namespace
}  // namespace bm
