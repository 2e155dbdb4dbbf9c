#include "harness/experiment.hpp"

#include "serve/session.hpp"
#include "support/assert.hpp"
#include "verify/verify.hpp"

namespace bm {

namespace {

serve::BenchmarkResult run_seed(const GeneratorConfig& gen,
                                const SchedulerConfig& sched,
                                const RunOptions& opt, std::size_t i) {
  // One session per harness thread, in thread-shared arena mode: pipeline
  // working memory keeps flowing through the warm per-thread scratch pools
  // (tests/scratch_arena_test.cpp pins the zero-steady-state-allocation
  // behavior), while the serving path runs the very same session code with
  // per-session owned arenas.
  static thread_local serve::SchedulerSession session(
      serve::SchedulerSession::ArenaMode::kThreadShared);

  serve::BenchmarkRequest req;
  req.gen = gen;
  req.sched = sched;
  req.timing = opt.timing;
  req.base_seed = opt.base_seed;
  req.index = i;
  req.with_vliw = opt.with_vliw;
  req.sim_runs = opt.sim_runs;
  req.sim_batch = opt.sim_batch;
  req.validate_draws = opt.validate_draws;
  req.verify = opt.verify;
  return session.run_benchmark(req);
}

/// The fold step: the exact `.add()` sequence of the historical serial
/// loop, one seed at a time, in seed order.
void accumulate(PointAggregate& agg, const serve::BenchmarkResult& r,
                const RunOptions& opt) {
  if (opt.verify) agg.verify.merge({1, r.verify_errors, r.verify_first});
  agg.fractions.add(r.stats);
  agg.program_size.add(static_cast<double>(r.program_size));
  if (opt.with_vliw)
    agg.vliw_makespan.add(static_cast<double>(r.vliw_makespan));
  if (opt.sim_runs > 0 || opt.validate_draws) {
    agg.violation_count += r.violations;
    if (opt.with_vliw && r.vliw_makespan > 0) {
      const auto v = static_cast<double>(r.vliw_makespan);
      agg.norm_min.add(
          static_cast<double>(r.barrier_completion.min_draw) / v);
      agg.norm_max.add(
          static_cast<double>(r.barrier_completion.max_draw) / v);
      if (opt.sim_runs > 0) agg.norm_mean.add(r.barrier_completion.mean / v);
    }
  }
}

}  // namespace

void VerifyTally::verify(const InstrDag& dag, const Schedule& sched,
                         const std::string& where) {
  VerifyOptions vopt;
  vopt.lint_redundant = false;
  const VerifyReport report = verify_schedule(dag, sched, vopt);
  ++schedules;
  errors += report.error_count();
  if (!first.empty() || report.clean()) return;
  for (const VerifyDiagnostic& d : report.diagnostics()) {
    if (d.severity != VerifySeverity::kError) continue;
    first = where + " " + d.code + ": " + d.message;
    return;
  }
}

void VerifyTally::merge(const VerifyTally& later) {
  schedules += later.schedules;
  errors += later.errors;
  if (first.empty()) first = later.first;
}

void VerifyTally::throw_if_failed() const {
  if (errors == 0) return;
  throw Error("schedule verification failed: " + std::to_string(errors) +
              " error(s) across " + std::to_string(schedules) +
              " schedule(s); first: " + first);
}

std::size_t resolve_jobs(std::size_t jobs) {
  return jobs == 0 ? ThreadPool::default_jobs() : jobs;
}

PointAggregate run_point(const GeneratorConfig& gen,
                         const SchedulerConfig& sched, const RunOptions& opt,
                         const PerBenchmarkHook& hook) {
  const std::vector<serve::BenchmarkResult> results = fan_out_seeds(
      opt, opt.seeds,
      [&](std::size_t i) { return run_seed(gen, sched, opt, i); });
  PointAggregate agg;
  for (const serve::BenchmarkResult& r : results) {
    accumulate(agg, r, opt);
    if (hook) {
      BenchmarkOutcome outcome;
      outcome.seed_index = r.seed_index;
      outcome.program_size = r.program_size;
      outcome.stats = r.stats;
      outcome.vliw_makespan = r.vliw_makespan;
      outcome.barrier_completion = r.barrier_completion;
      hook(outcome);
    }
  }
  agg.verify.throw_if_failed();
  return agg;
}

}  // namespace bm
