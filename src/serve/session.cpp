#include "serve/session.hpp"

#include <optional>

#include "codegen/emitter.hpp"
#include "codegen/parser.hpp"
#include "obs/obs.hpp"
#include "opt/passes.hpp"
#include "support/assert.hpp"
#include "vliw/vliw.hpp"

namespace bm::serve {

/// Flags the session busy for the duration of one API call and, in owned
/// mode, installs the session arena on the calling thread. Thread-shared
/// mode leaves the thread-default arena in place, which is what keeps the
/// harness's warm per-thread pools (and its zero steady-state allocation
/// guarantee) intact after the pipeline moved in here.
class SchedulerSession::Enter {
 public:
  explicit Enter(SchedulerSession& s) : session_(s) {
    const bool was_busy = session_.in_use_.exchange(true);
    BM_REQUIRE(!was_busy,
               "SchedulerSession used concurrently; sessions are "
               "one-request-at-a-time — use one session per worker");
    if (session_.mode_ == ArenaMode::kOwned)
      scope_.emplace(session_.arena_);
  }
  ~Enter() {
    scope_.reset();  // restore the previous arena before going idle
    session_.in_use_.store(false);
  }

  Enter(const Enter&) = delete;
  Enter& operator=(const Enter&) = delete;

 private:
  SchedulerSession& session_;
  std::optional<ScratchArenaScope> scope_;
};

SchedulerSession::SchedulerSession(ArenaMode mode) : mode_(mode) {}

BenchmarkResult SchedulerSession::run_benchmark(const BenchmarkRequest& req) {
  Enter guard(*this);
  BM_OBS_SPAN_ARG(seed_span, "harness.seed", "harness", "seed",
                  static_cast<double>(req.index));
  Rng rng = benchmark_rng(req.base_seed, req.index);
  const SynthesisResult synth = synthesize_benchmark(req.gen, rng);
  const InstrDag dag = [&] {
    BM_OBS_SPAN(span, "dag.build", "graph");
    return InstrDag::build(synth.program, req.timing);
  }();

  BenchmarkResult r;
  r.seed_index = req.index;
  r.program_size = synth.program.size();

  ScheduleResult scheduled = schedule_program(dag, req.sched, rng);
  r.stats = scheduled.stats;

  if (req.with_vliw) {
    BM_OBS_SPAN(span, "vliw.schedule", "vliw");
    const VliwSchedule vliw = schedule_vliw(dag, req.sched.num_procs);
    r.vliw_makespan = vliw.makespan;
  }

  if (req.verify) {
    BM_OBS_SPAN(span, "verify.schedule", "verify");
    // Redundancy linting is advisory and O(B·(V+E)); the harness check is
    // about soundness, so skip it to stay within the throughput budget.
    VerifyOptions vopt;
    vopt.lint_redundant = false;
    const VerifyReport report =
        verify_schedule(dag, *scheduled.schedule, vopt);
    r.verify_errors = report.error_count();
    if (!report.clean()) {
      for (const VerifyDiagnostic& d : report.diagnostics()) {
        if (d.severity != VerifySeverity::kError) continue;
        r.verify_first = "[seed " + std::to_string(req.index) + "] " + d.code +
                         ": " + d.message;
        break;
      }
    }
  }

  if (req.sim_runs > 0 || req.validate_draws) {
    BM_OBS_SPAN(span, "sim.summarize", "sim");
    const std::size_t runs = req.sim_runs > 0 ? req.sim_runs : 1;
    if (req.validate_draws) {
      // trace_ is resized in place per draw: one allocation per session
      // lifetime, not per draw (the former static thread_local, now owned).
      for (std::size_t k = 0; k < runs; ++k) {
        simulate_into(*scheduled.schedule,
                      {req.sched.machine, SamplingMode::kUniform}, rng,
                      trace_);
        r.violations += find_violations(dag, trace_).size();
      }
    }
    r.barrier_completion =
        summarize_completion(*scheduled.schedule, req.sched.machine,
                             req.sim_runs, rng);
  }
  return r;
}

SynthesisResult SchedulerSession::synthesize(const GeneratorConfig& gen,
                                             Rng& rng) {
  Enter guard(*this);
  return synthesize_benchmark(gen, rng);
}

Program SchedulerSession::compile_source(const std::string& source) {
  Enter guard(*this);
  ParsedBlock block = parse_statements(source);
  Program prog = emit_tuples(block.statements, block.num_vars);
  for (std::uint32_t v = 0; v < block.num_vars; ++v)
    prog.set_var_name(v, block.var_names[v]);
  optimize(prog);
  return prog;
}

InstrDag SchedulerSession::build_dag(const Program& prog,
                                     const TimingModel& timing) {
  Enter guard(*this);
  BM_OBS_SPAN(span, "dag.build", "graph");
  return InstrDag::build(prog, timing);
}

ScheduleResult SchedulerSession::schedule(const InstrDag& dag,
                                          const SchedulerConfig& cfg,
                                          Rng& rng) {
  Enter guard(*this);
  return schedule_program(dag, cfg, rng);
}

VerifyReport SchedulerSession::verify(const InstrDag& dag,
                                      const Schedule& sched,
                                      const VerifyOptions& opt) {
  Enter guard(*this);
  BM_OBS_SPAN(span, "verify.schedule", "verify");
  return verify_schedule(dag, sched, opt);
}

}  // namespace bm::serve
