// Hardware ablation — barrier execution latency sweep: how the scheduling
// results depend on the paper's free-barrier assumption (§5, [OKDi90]).
#include "exp/registry.hpp"
#include "harness/report.hpp"

namespace bm {
namespace {

Experiment make_barrier_latency() {
  Experiment e;
  e.name = "barrier_latency";
  e.title = "hardware ablation — barrier execution latency";
  e.paper_ref = "§5 assumption / [OKDi90] companion";
  e.workload = "60 statements, 10 variables, 8 PEs; latency 0..16";
  e.expected =
      "Expected shape: fractions nearly flat; completion and the "
      "VLIW-normalized mean grow with the latency — the barrier machine's "
      "advantage depends on cheap hardware barriers, which is exactly the "
      "companion paper's thesis.";
  e.flags = common_flags(100);
  e.flags.push_back(int_flag("procs", 8, "number of PEs"));
  e.flags.push_back(int_flag("statements", 60, "statements per block"));
  e.flags.push_back(int_flag("variables", 10, "variables per block"));
  e.flags.push_back(int_flag("sim-runs", 5, "uniform draws per benchmark"));
  e.sweeps = {{"latency", {0, 1, 2, 4, 8, 16}}};
  e.run = [](ExpContext& ctx) {
    RunOptions opt = ctx.run_options();
    opt.with_vliw = true;
    const GeneratorConfig gen = ctx.generator_config();
    const Sweep& sweep = ctx.sweep("latency");

    TextTable table({"latency", "barrier", "serialized", "static",
                     "compl [min,max]", "mean/VLIW"});
    const std::string path = ctx.artifacts().csv_path(ctx.exp().csv_stem);
    CsvWriter csv(path);
    csv.write_row({"latency", "barrier_frac", "completion_min",
                   "completion_max", "norm_mean"});
    SchedulerConfig cfg = ctx.scheduler_config();
    for (std::size_t i = 0; i < sweep.values.size(); ++i) {
      cfg.barrier_latency = static_cast<Time>(sweep.values[i]);
      const PointAggregate agg = run_point(gen, cfg, opt);
      const FractionAggregate& f = agg.fractions;
      table.add_row({sweep.label(i), TextTable::pct(f.barrier_frac.mean()),
                     TextTable::pct(f.serialized_frac.mean()),
                     TextTable::pct(f.static_frac.mean()),
                     "[" + TextTable::num(f.completion_min.mean(), 1) + "," +
                         TextTable::num(f.completion_max.mean(), 1) + "]",
                     TextTable::num(agg.norm_mean.mean(), 3)});
      csv.write_row({sweep.label(i), std::to_string(f.barrier_frac.mean()),
                     std::to_string(f.completion_min.mean()),
                     std::to_string(f.completion_max.mean()),
                     std::to_string(agg.norm_mean.mean())});
      ctx.artifacts().metric("latency=" + sweep.label(i) + ".norm_mean",
                             agg.norm_mean.mean());
    }
    table.render(ctx.out());
    ctx.out() << "(series written to " << path << ")\n";
  };
  return e;
}

BM_REGISTER_EXPERIMENT(make_barrier_latency)

}  // namespace
}  // namespace bm
