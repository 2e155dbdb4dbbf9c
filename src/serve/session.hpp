// SchedulerSession: the reentrant scheduling-pipeline facade.
//
// Historically the pipeline stages (synthesize → InstrDag::build →
// schedule_program → verify → simulate) were free functions glued together
// inside the experiment harness, with the per-seed working state hiding in
// thread-locals (scratch arenas, the validate-draws trace). A session makes
// that state explicit and owned: each SchedulerSession carries its own
// scratch arena (or borrows the thread-default one), its own reusable
// simulation trace, and nothing else — two sessions never share mutable
// state, so a server can run many concurrently while the single-threaded
// harness drives one per worker thread with identical results.
//
// Arena modes:
//   kOwned        — the session owns a ScratchArena and installs it around
//                   every pipeline call. Isolation for serving: request
//                   working memory lives and dies with the session.
//   kThreadShared — pipeline calls use the calling thread's default arena
//                   (the pre-session behavior). The harness uses this so
//                   warm per-thread pools persist across seeds and points
//                   (tests/scratch_arena_test.cpp pins that steady state).
//
// A session is strictly one-request-at-a-time: concurrent calls on one
// session are API misuse and trip a guard. Use one session per worker.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "codegen/synthesize.hpp"
#include "graph/instr_dag.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"
#include "support/scratch.hpp"
#include "verify/verify.hpp"

namespace bm::serve {

/// One seeded synthetic-benchmark evaluation — the unit of work the
/// experiment harness fans out and the serving core batches.
struct BenchmarkRequest {
  GeneratorConfig gen;
  SchedulerConfig sched;
  TimingModel timing = TimingModel::table1();
  std::uint64_t base_seed = 1990;
  std::size_t index = 0;  ///< seed index; stream = benchmark_rng(base, index)

  bool with_vliw = false;
  std::size_t sim_runs = 0;
  bool validate_draws = false;
  bool verify = false;
};

struct BenchmarkResult {
  std::size_t seed_index = 0;
  std::size_t program_size = 0;  ///< optimized tuple count
  ScheduleStats stats;
  Time vliw_makespan = 0;                ///< when with_vliw
  CompletionSummary barrier_completion;  ///< when sim_runs > 0
  std::size_t violations = 0;     ///< across validated draws (expect 0)
  std::size_t verify_errors = 0;  ///< when verify
  std::string verify_first;       ///< first verifier error diagnostic
};

class SchedulerSession {
 public:
  enum class ArenaMode { kOwned, kThreadShared };

  explicit SchedulerSession(ArenaMode mode = ArenaMode::kOwned);

  SchedulerSession(const SchedulerSession&) = delete;
  SchedulerSession& operator=(const SchedulerSession&) = delete;

  /// The full seeded-benchmark pipeline, byte-identical to the historical
  /// harness inner loop: synthesis and scheduling consume the same
  /// benchmark_rng(base_seed, index) stream in order, spans keep their
  /// names, and verify/sim stages run under the same conditions.
  BenchmarkResult run_benchmark(const BenchmarkRequest& req);

  // -- individual pipeline stages (serving path) --------------------------

  /// §2.2 synthesis: generate + lower + optimize. Consumes `rng`.
  SynthesisResult synthesize(const GeneratorConfig& gen, Rng& rng);

  /// Parses `.bm` statement source, lowers, and optimizes — the explicit-
  /// program analog of synthesize(). Throws bm::Error on syntax errors.
  Program compile_source(const std::string& source);

  InstrDag build_dag(const Program& prog, const TimingModel& timing);

  ScheduleResult schedule(const InstrDag& dag, const SchedulerConfig& cfg,
                          Rng& rng);

  VerifyReport verify(const InstrDag& dag, const Schedule& sched,
                      const VerifyOptions& opt = {});

 private:
  /// RAII: guards against concurrent use and installs the owned arena.
  class Enter;

  ArenaMode mode_;
  ScratchArena arena_;        ///< used only in kOwned mode
  ExecTrace trace_;           ///< reused across validate-draws simulations
  std::atomic<bool> in_use_{false};
};

}  // namespace bm::serve
