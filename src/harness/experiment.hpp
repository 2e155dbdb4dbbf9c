// Experiment driver: one "point" = one (generator, scheduler) parameter
// combination evaluated over many seeded synthetic benchmarks, exactly as in
// §5 (100 benchmarks per point, results averaged). Optionally also runs the
// VLIW baseline and the execution simulator per benchmark.
#pragma once

#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "codegen/synthesize.hpp"
#include "metrics/aggregate.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"
#include "vliw/vliw.hpp"

namespace bm {

struct RunOptions {
  std::size_t seeds = 100;          ///< benchmarks per point (paper: 100)
  std::uint64_t base_seed = 1990;   ///< printed by every bench header
  TimingModel timing = TimingModel::table1();
  /// Worker threads for the seed fan-out (0 = one per hardware thread).
  /// Results are bit-identical to the serial run for every value: each seed
  /// computes on its own RNG stream and aggregates merge in seed order.
  std::size_t jobs = 1;

  bool with_vliw = false;           ///< also schedule the VLIW baseline
  std::size_t sim_runs = 0;         ///< uniform-draw simulations per benchmark
  bool validate_draws = false;      ///< assert no dependence violations

  /// Run the static verifier (src/verify) on every schedule. Any verifier
  /// *error* is a scheduler soundness bug: run_point throws bm::Error after
  /// folding, carrying the first diagnostic.
  bool verify = false;
};

/// Everything measured for one benchmark instance.
struct BenchmarkOutcome {
  std::size_t seed_index = 0;
  std::size_t program_size = 0;       ///< optimized tuple count
  ScheduleStats stats;
  Time vliw_makespan = 0;             ///< when with_vliw
  CompletionSummary barrier_completion;  ///< when sim_runs > 0
};

/// Verifier outcome of a run, folded in seed order. A verifier error is a
/// scheduler soundness bug, never a data point: throw_if_failed() turns it
/// into a hard failure once every seed has been folded, so the message
/// reports the full count and not just the first seed.
struct VerifyTally {
  std::size_t schedules = 0;
  std::size_t errors = 0;
  std::string first;  ///< first error diagnostic, in seed order

  /// Verifies one schedule for soundness (the O(B·(V+E)) redundancy lint
  /// is advisory and stays off, as in every harness run) and counts it;
  /// `where` prefixes the first error diagnostic, e.g. "[seed 3]".
  void verify(const InstrDag& dag, const Schedule& sched,
              const std::string& where);
  /// Folds a tally from a later seed in after this one.
  void merge(const VerifyTally& later);
  /// Throws bm::Error if any folded schedule had a verifier error.
  void throw_if_failed() const;
};

struct PointAggregate {
  FractionAggregate fractions;
  RunningStats program_size;
  RunningStats vliw_makespan;
  /// Barrier-machine completion normalized to the VLIW makespan (Fig. 18):
  /// the all-min draw, all-max draw, and simulated mean.
  RunningStats norm_min, norm_max, norm_mean;
  std::size_t violation_count = 0;  ///< across all validated draws (expect 0)
  VerifyTally verify;               ///< when opt.verify
};

using PerBenchmarkHook = std::function<void(const BenchmarkOutcome&)>;

/// Runs one parameter point. The i-th benchmark uses an independent stream
/// derived from (base_seed, i), so points are reproducible and extensible.
PointAggregate run_point(const GeneratorConfig& gen,
                         const SchedulerConfig& sched, const RunOptions& opt,
                         const PerBenchmarkHook& hook = nullptr);

/// Per-benchmark RNG stream used by run_point (exposed for tests/examples).
Rng benchmark_rng(std::uint64_t base_seed, std::size_t index);

/// Worker count for a RunOptions::jobs value: 0 means one per hardware
/// thread.
std::size_t resolve_jobs(std::size_t jobs);

/// The seed fan-out every experiment shares. Runs task(i) for each i in
/// [0, n) on resolve_jobs(opt.jobs) workers and returns the results in index
/// order; with one worker every task runs inline on the caller. Tasks must
/// share no mutable state: each seed draws from its own benchmark_rng
/// stream, so folding the returned vector front to back reproduces the
/// serial loop bit for bit at every --jobs. A sweep over several points
/// may flatten (point, seed) into one index space, so a single pool
/// balances heavy seeds across workers — but only across points that set
/// every obs gauge alike: gauges are last-writer-wins and land in the
/// manifest (`sched.procs` differs between PE counts). The first exception
/// a task throws is rethrown here, after the other tasks finish or are
/// abandoned.
template <typename Task>
auto fan_out_seeds(const RunOptions& opt, std::size_t n, Task&& task)
    -> std::vector<std::invoke_result_t<Task&, std::size_t>> {
  using Result = std::invoke_result_t<Task&, std::size_t>;
  // std::vector<bool> packs bits, so concurrent slot writes would race.
  static_assert(!std::is_same_v<Result, bool>, "return a struct, not bool");
  std::vector<Result> results(n);
  parallel_for_jobs(resolve_jobs(opt.jobs), n,
                    [&](std::size_t i) { results[i] = task(i); });
  return results;
}

}  // namespace bm
