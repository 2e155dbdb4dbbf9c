// Figure 18: VLIW vs barrier MIMD completion time, normalized to VLIW.
#include "exp/registry.hpp"
#include "harness/report.hpp"

namespace bm {
namespace {

Experiment make_fig18() {
  Experiment e;
  e.name = "fig18";
  e.title = "Figure 18 — VLIW vs barrier architecture (normalized completion)";
  e.paper_ref = "Fig. 18 (§6)";
  e.workload = "60 statements, 10 variables; barrier completion / VLIW makespan";
  e.expected =
      "Paper shape: max ≈ VLIW (slightly above at few PEs); min ≈ 0.75× "
      "VLIW; mean in between.";
  e.flags = common_flags(100);
  e.flags.push_back(int_flag("statements", 60, "statements per block"));
  e.flags.push_back(int_flag("variables", 10, "variables per block"));
  e.flags.push_back(int_flag("sim-runs", 10, "uniform draws per benchmark"));
  e.sweeps = {{"procs", {2, 4, 8, 16, 32, 64, 128}}};
  e.csv_stem = "fig18_vliw";
  e.run = [](ExpContext& ctx) {
    RunOptions opt = ctx.run_options();
    opt.with_vliw = true;
    const GeneratorConfig gen = ctx.generator_config();
    const Sweep& sweep = ctx.sweep("procs");

    TextTable table({"#PEs", "barrier min/VLIW", "barrier mean/VLIW",
                     "barrier max/VLIW", "VLIW makespan", "critical path max",
                     "VLIW optimal"});
    const std::string path = ctx.artifacts().csv_path(ctx.exp().csv_stem);
    CsvWriter csv(path);
    csv.write_row({"procs", "norm_min", "norm_mean", "norm_max",
                   "vliw_makespan"});
    SchedulerConfig cfg;
    for (std::size_t i = 0; i < sweep.values.size(); ++i) {
      cfg.num_procs = static_cast<std::size_t>(sweep.values[i]);
      RunningStats crit;
      std::size_t optimal = 0, total = 0;
      const PointAggregate agg =
          run_point(gen, cfg, opt, [&](const BenchmarkOutcome& o) {
            crit.add(static_cast<double>(o.stats.critical_path.max));
            // §6: "an optimal schedule (completion time equal to the
            // critical path time) was determined for almost all the
            // synthetic benchmarks" — measured on the VLIW side.
            optimal += (o.vliw_makespan == o.stats.critical_path.max);
            ++total;
          });
      table.add_row({sweep.label(i), TextTable::num(agg.norm_min.mean(), 3),
                     TextTable::num(agg.norm_mean.mean(), 3),
                     TextTable::num(agg.norm_max.mean(), 3),
                     TextTable::num(agg.vliw_makespan.mean(), 1),
                     TextTable::num(crit.mean(), 1),
                     TextTable::pct(static_cast<double>(optimal) /
                                    static_cast<double>(total))});
      csv.write_row({sweep.label(i), std::to_string(agg.norm_min.mean()),
                     std::to_string(agg.norm_mean.mean()),
                     std::to_string(agg.norm_max.mean()),
                     std::to_string(agg.vliw_makespan.mean())});
      ctx.artifacts().metric("procs=" + sweep.label(i) + ".norm_mean",
                             agg.norm_mean.mean());
    }
    table.render(ctx.out());
    ctx.out() << "(series written to " << path << ")\n";
  };
  return e;
}

BM_REGISTER_EXPERIMENT(make_fig18)

}  // namespace
}  // namespace bm
