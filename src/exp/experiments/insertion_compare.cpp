// §4.4.1 vs §4.4.2 — conservative vs "optimal" barrier insertion, on both
// machines. Each point's scheduling wall time is a `--profile` span
// (insertion_compare.<machine>.<insertion>), never stdout or the artifacts:
// a wall-clock figure depends on --jobs and the host, and stdout must stay
// byte-identical across --jobs.
#include "exp/registry.hpp"
#include "harness/report.hpp"
#include "obs/obs.hpp"

namespace bm {
namespace {

Experiment make_insertion_compare() {
  Experiment e;
  e.name = "insertion_compare";
  e.title = "§4.4 — conservative vs optimal barrier insertion";
  e.paper_ref = "§4.4.1 / §4.4.2 (footnote 5)";
  e.workload = "60 statements, 10 variables; both machines";
  e.expected =
      "Expectation: the optimal check never inserts more barriers, at extra "
      "analysis cost (k-longest-path loop); the paper used the conservative "
      "algorithm for all experiments.";
  e.flags = common_flags(100);
  e.flags.push_back(int_flag("procs", 8, "number of PEs"));
  e.flags.push_back(int_flag("statements", 60, "statements per block"));
  e.flags.push_back(int_flag("variables", 10, "variables per block"));
  e.run = [](ExpContext& ctx) {
    const RunOptions opt = ctx.run_options();
    const GeneratorConfig gen = ctx.generator_config();

    TextTable table({"machine", "insertion", "barriers/blk", "inserted/blk",
                     "static frac", "compl max"});
    const std::string path = ctx.artifacts().csv_path();
    CsvWriter csv(path);
    csv.write_row({"machine", "insertion", "barriers", "inserted",
                   "static_frac", "completion_max"});
    for (MachineKind machine : {MachineKind::kSBM, MachineKind::kDBM}) {
      for (InsertionPolicy insertion :
           {InsertionPolicy::kConservative, InsertionPolicy::kOptimal}) {
        SchedulerConfig cfg = ctx.scheduler_config();
        cfg.machine = machine;
        cfg.insertion = insertion;
        const PointAggregate agg = [&] {
          BM_OBS_SPAN(span,
                      "insertion_compare." + std::string(to_string(machine)) +
                          "." + std::string(to_string(insertion)),
                      "exp");
          return run_point(gen, cfg, opt);
        }();
        const FractionAggregate& f = agg.fractions;
        table.add_row({std::string(to_string(machine)),
                       std::string(to_string(insertion)),
                       TextTable::num(f.barriers.mean(), 2),
                       TextTable::num(f.barriers_inserted.mean(), 2),
                       TextTable::pct(f.static_frac.mean()),
                       TextTable::num(f.completion_max.mean(), 1)});
        csv.write_row({std::string(to_string(machine)),
                       std::string(to_string(insertion)),
                       std::to_string(f.barriers.mean()),
                       std::to_string(f.barriers_inserted.mean()),
                       std::to_string(f.static_frac.mean()),
                       std::to_string(f.completion_max.mean())});
        ctx.artifacts().metric(std::string(to_string(machine)) + "." +
                                   std::string(to_string(insertion)) +
                                   ".barriers",
                               f.barriers.mean());
      }
    }
    table.render(ctx.out());
    ctx.out() << "(series written to " << path << ")\n";
  };
  return e;
}

BM_REGISTER_EXPERIMENT(make_insertion_compare)

}  // namespace
}  // namespace bm
