// Machine-utilization decomposition across machine presets and sizes
// (extension; runtime view of §5's fractions).
#include <array>

#include "exp/registry.hpp"
#include "harness/report.hpp"
#include "machine/presets.hpp"
#include "sim/analysis.hpp"

namespace bm {
namespace {

Experiment make_utilization() {
  Experiment e;
  e.name = "utilization";
  e.title = "machine utilization — compute vs barrier wait vs idle";
  e.paper_ref = "extension (runtime view of §5's fractions)";
  e.workload = "60 statements, 10 variables; presets × machine sizes";
  e.expected =
      "Expected shape: utilization falls as PEs grow past the parallelism "
      "width (more idle processors); barrier-wait share rises with wider "
      "timing variation and barrier latency.";
  e.flags = common_flags(60);
  e.flags.push_back(int_flag("statements", 60, "statements per block"));
  e.flags.push_back(int_flag("variables", 10, "variables per block"));
  e.sweeps = {{"procs", {2, 4, 8, 16}}};
  e.run = [](ExpContext& ctx) {
    const RunOptions opt = ctx.run_options();
    const GeneratorConfig gen = ctx.generator_config();
    const Sweep& sweep = ctx.sweep("procs");

    TextTable table({"machine", "#PEs", "utilization", "busy", "barrier wait",
                     "idle", "mean compl"});
    const std::string path = ctx.artifacts().csv_path(ctx.exp().csv_stem);
    CsvWriter csv(path);
    csv.write_row({"machine", "procs", "utilization", "busy_frac",
                   "wait_frac", "idle_frac", "mean_completion"});
    // A task keeps its three draws' samples so the fold adds them in serial
    // order.
    struct Draw {
      double util = 0, busy = 0, wait = 0, idle = 0, completion = 0;
      bool has_time = false;  ///< busy/wait/idle are defined
    };
    struct SeedResult {
      std::array<Draw, 3> draws;
      VerifyTally verify;
    };
    for (const MachineDescription& m : machine_presets()) {
      for (std::size_t pi = 0; pi < sweep.values.size(); ++pi) {
        SchedulerConfig cfg;
        cfg.num_procs = static_cast<std::size_t>(sweep.values[pi]);
        cfg.barrier_latency = m.barrier_latency;
        // One pool per point, not one for the whole sweep: the scheduler's
        // last-writer-wins `sched.procs` gauge lands in the manifest, so
        // every point's schedules must finish before the next point's start.
        const std::vector<SeedResult> results =
            fan_out_seeds(opt, opt.seeds, [&](std::size_t i) {
              Rng rng = benchmark_rng(opt.base_seed, i);
              const SynthesisResult s = synthesize_benchmark(gen, rng);
              const InstrDag dag = InstrDag::build(s.program, m.timing);
              const ScheduleResult r = schedule_program(dag, cfg, rng);
              SeedResult out;
              if (opt.verify)
                out.verify.verify(dag, *r.schedule,
                                  "[" + m.name + " procs " +
                                      sweep.label(pi) + " seed " +
                                      std::to_string(i) + "]");
              for (Draw& d : out.draws) {
                const ExecTrace t = simulate(
                    *r.schedule, {cfg.machine, SamplingMode::kUniform}, rng);
                const TraceAnalysis a = analyze_trace(*r.schedule, t);
                d.util = a.machine_utilization();
                const double total = static_cast<double>(
                    a.total_busy + a.total_barrier_wait + a.total_idle);
                d.has_time = total > 0;
                if (d.has_time) {
                  d.busy = static_cast<double>(a.total_busy) / total;
                  d.wait = static_cast<double>(a.total_barrier_wait) / total;
                  d.idle = static_cast<double>(a.total_idle) / total;
                }
                d.completion = static_cast<double>(t.completion);
              }
              return out;
            });
        VerifyTally verify;
        RunningStats util, busy, wait, idle, completion_stats;
        for (const SeedResult& r : results) {
          verify.merge(r.verify);
          for (const Draw& d : r.draws) {
            util.add(d.util);
            if (d.has_time) {
              busy.add(d.busy);
              wait.add(d.wait);
              idle.add(d.idle);
            }
            completion_stats.add(d.completion);
          }
        }
        verify.throw_if_failed();
        table.add_row({m.name, sweep.label(pi), TextTable::pct(util.mean()),
                       TextTable::pct(busy.mean()),
                       TextTable::pct(wait.mean()),
                       TextTable::pct(idle.mean()),
                       TextTable::num(completion_stats.mean(), 1)});
        csv.write_row({m.name, sweep.label(pi), std::to_string(util.mean()),
                       std::to_string(busy.mean()),
                       std::to_string(wait.mean()),
                       std::to_string(idle.mean()),
                       std::to_string(completion_stats.mean())});
        ctx.artifacts().metric(m.name + ".procs=" + sweep.label(pi) +
                                   ".utilization",
                               util.mean());
      }
    }
    table.render(ctx.out());
    ctx.out() << "(series written to " << path << ")\n";
  };
  return e;
}

BM_REGISTER_EXPERIMENT(make_utilization)

}  // namespace
}  // namespace bm
