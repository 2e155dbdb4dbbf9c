// §7 extension — control flow: barrier MIMD vs lockstep (VLIW) bound on
// structured programs with data-dependent loops.
#include "cfg/cfg_gen.hpp"
#include "cfg/cfg_sim.hpp"
#include "exp/registry.hpp"
#include "harness/report.hpp"

namespace bm {
namespace {

Experiment make_control_flow() {
  Experiment e;
  e.name = "control_flow";
  e.title = "control flow — barrier MIMD vs lockstep worst-case bound";
  e.paper_ref = "§1/§7 (extension; no paper figure)";
  e.workload = "structured programs, depth 2, loops with trip counts 1..T";
  e.expected =
      "Expected shape: the lockstep bound stays 1.3–2x above the barrier "
      "machine's actual mean. At small T the gap comes from untaken if-arms "
      "(the VLIW provisions both); at large T from loop trip counts (the "
      "VLIW pays T where the actual draw averages (1+T)/2). Either way the "
      "barrier MIMD pays only the path taken.";
  e.flags = common_flags(60);
  e.flags.push_back(int_flag("procs", 8, "number of PEs"));
  e.sweeps = {{"max-trip", {1, 2, 4, 8, 16}}};
  e.run = [](ExpContext& ctx) {
    const RunOptions opt = ctx.run_options();
    const Sweep& sweep = ctx.sweep("max-trip");

    CfgGeneratorConfig gen;
    gen.block = GeneratorConfig{.num_statements = 10, .num_variables = 8,
                                .num_constants = 4, .const_max = 64};
    gen.max_depth = 2;
    const SchedulerConfig sc = ctx.scheduler_config();

    // One task per (max-trip, seed) pair, so the heavy high-trip seeds
    // balance across workers and the whole sweep shares one pool.
    struct SeedResult {
      double blocks = 0, barrier_frac = 0, vliw_bound = 0;
      double mean_compl = 0, worst_path = 0;
      VerifyTally verify;
    };
    const std::size_t n = opt.seeds;
    const std::vector<SeedResult> results =
        fan_out_seeds(opt, sweep.values.size() * n, [&](std::size_t k) {
          const std::size_t ti = k / n, i = k % n;
          CfgGeneratorConfig g = gen;
          g.max_trip = static_cast<std::int64_t>(sweep.values[ti]);
          Rng rng = benchmark_rng(opt.base_seed, i);
          const CfgProgram cfg = generate_cfg(g, rng);
          const CfgScheduleResult s =
              schedule_cfg(cfg, sc, TimingModel::table1(), rng);
          SeedResult r;
          r.blocks = static_cast<double>(cfg.size());
          r.barrier_frac = s.barrier_fraction();
          r.vliw_bound =
              static_cast<double>(vliw_cfg_worst_case(s, sc.num_procs, 1));
          if (opt.verify) {
            for (BlockId b = 0; b < cfg.size(); ++b)
              r.verify.verify(*s.blocks[b].dag, *s.blocks[b].result.schedule,
                              "[max-trip " + sweep.label(ti) + " seed " +
                                  std::to_string(i) + " block " +
                                  std::to_string(b) + "]");
          }
          double total = 0;
          Time worst = 0;
          for (int run = 0; run < 5; ++run) {
            std::vector<std::int64_t> memory(cfg.num_vars());
            for (auto& m : memory) m = rng.uniform(-100, 100);
            const CfgExecResult x = run_cfg(s, CfgSimConfig{}, memory, rng);
            total += static_cast<double>(x.completion);
            CfgSimConfig hi;
            hi.sampling = SamplingMode::kAllMax;
            worst = std::max(worst, run_cfg(s, hi, memory, rng).completion);
          }
          r.mean_compl = total / 5.0;
          r.worst_path = static_cast<double>(worst);
          return r;
        });
    VerifyTally verify;
    for (const SeedResult& r : results) verify.merge(r.verify);
    verify.throw_if_failed();

    TextTable table({"max trip T", "blocks", "barrier mean compl",
                     "barrier worst path", "VLIW lockstep bound",
                     "bound / mean", "barrier frac"});
    const std::string path = ctx.artifacts().csv_path(ctx.exp().csv_stem);
    CsvWriter csv(path);
    csv.write_row({"max_trip", "mean_completion", "worst_path", "vliw_bound",
                   "ratio"});
    for (std::size_t ti = 0; ti < sweep.values.size(); ++ti) {
      RunningStats mean_compl, worst_path, vliw_bound, blocks, barrier_frac;
      for (std::size_t i = 0; i < n; ++i) {
        const SeedResult& r = results[ti * n + i];
        blocks.add(r.blocks);
        barrier_frac.add(r.barrier_frac);
        vliw_bound.add(r.vliw_bound);
        mean_compl.add(r.mean_compl);
        worst_path.add(r.worst_path);
      }
      const double ratio = vliw_bound.mean() / mean_compl.mean();
      table.add_row({sweep.label(ti), TextTable::num(blocks.mean(), 1),
                     TextTable::num(mean_compl.mean(), 1),
                     TextTable::num(worst_path.mean(), 1),
                     TextTable::num(vliw_bound.mean(), 1),
                     TextTable::num(ratio, 2) + "x",
                     TextTable::pct(barrier_frac.mean())});
      csv.write_row({sweep.label(ti), std::to_string(mean_compl.mean()),
                     std::to_string(worst_path.mean()),
                     std::to_string(vliw_bound.mean()),
                     std::to_string(ratio)});
      ctx.artifacts().metric("max_trip=" + sweep.label(ti) + ".bound_ratio",
                             ratio);
    }
    table.render(ctx.out());
    ctx.out() << "(series written to " << path << ")\n";
  };
  return e;
}

BM_REGISTER_EXPERIMENT(make_control_flow)

}  // namespace
}  // namespace bm
