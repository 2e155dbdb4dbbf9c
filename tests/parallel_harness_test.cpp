// The parallel experiment harness: ThreadPool behavior, --jobs parsing, and
// the bit-reproducibility contract — run_point with N workers must produce
// output identical to the serial run, for any N.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "harness/experiment.hpp"
#include "support/cli.hpp"
#include "support/thread_pool.hpp"

namespace bm {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  ThreadPool pool(4);
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEachIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  ThreadPool pool(8);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t i) {
                                   if (i == 13) throw Error("boom");
                                 }),
               Error);
  // Pool must still be usable afterwards.
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, ParallelForJobsInlineWhenSerial) {
  // jobs <= 1 must run on the calling thread (no pool spin-up).
  const auto caller = std::this_thread::get_id();
  bool same_thread = true;
  parallel_for_jobs(1, 16, [&](std::size_t) {
    same_thread = same_thread && std::this_thread::get_id() == caller;
  });
  EXPECT_TRUE(same_thread);
}

TEST(ThreadPool, DefaultJobsIsPositive) {
  EXPECT_GE(ThreadPool::default_jobs(), 1u);
}

TEST(Cli, JobsFlagParsing) {
  {
    const char* argv[] = {"prog"};
    EXPECT_EQ(CliFlags(1, argv).get_jobs(), 1u);
  }
  {
    const char* argv[] = {"prog", "--jobs", "7"};
    EXPECT_EQ(CliFlags(3, argv).get_jobs(), 7u);
  }
  {
    const char* argv[] = {"prog", "--jobs=auto"};
    EXPECT_EQ(CliFlags(2, argv).get_jobs(), ThreadPool::default_jobs());
  }
  {
    const char* argv[] = {"prog", "--jobs", "0"};
    EXPECT_EQ(CliFlags(3, argv).get_jobs(), ThreadPool::default_jobs());
  }
  {
    const char* argv[] = {"prog", "--jobs", "-2"};
    EXPECT_THROW(CliFlags(3, argv).get_jobs(), Error);
  }
}

// --- fan_out_seeds -------------------------------------------------------------

TEST(FanOutSeeds, ResultsComeBackInIndexOrder) {
  for (std::size_t jobs : {1u, 3u, 8u}) {
    RunOptions opt;
    opt.jobs = jobs;
    // 31 tasks: no job count here divides it, so some worker claims a
    // ragged tail. Early indices sleep longest, so with several workers
    // tasks finish out of index order.
    const std::vector<std::size_t> out =
        fan_out_seeds(opt, 31, [](std::size_t i) {
          std::this_thread::sleep_for(std::chrono::microseconds(40 * (31 - i)));
          return i * i;
        });
    ASSERT_EQ(out.size(), 31u) << "jobs " << jobs;
    for (std::size_t i = 0; i < out.size(); ++i)
      EXPECT_EQ(out[i], i * i) << "jobs " << jobs;
  }
}

TEST(FanOutSeeds, ThrowingTaskRethrowsOnCaller) {
  for (std::size_t jobs : {1u, 3u}) {
    RunOptions opt;
    opt.jobs = jobs;
    EXPECT_THROW(fan_out_seeds(opt, 20,
                               [](std::size_t i) {
                                 if (i == 7) throw Error("boom");
                                 return i;
                               }),
                 Error)
        << "jobs " << jobs;
  }
}

TEST(FanOutSeeds, OneJobRunsInlineOnCaller) {
  const auto caller = std::this_thread::get_id();
  RunOptions opt;
  opt.jobs = 1;
  const std::vector<std::thread::id> ids = fan_out_seeds(
      opt, 9, [](std::size_t) { return std::this_thread::get_id(); });
  for (const std::thread::id id : ids) EXPECT_EQ(id, caller);
  // 0 means one worker per hardware thread.
  EXPECT_EQ(resolve_jobs(0), ThreadPool::default_jobs());
  EXPECT_EQ(resolve_jobs(5), 5u);
}

TEST(VerifyTally, FoldKeepsFirstDiagnosticAndThrowsWithTotals) {
  VerifyTally total;
  total.merge({2, 0, ""});
  total.merge({1, 3, "[seed 1] BV101: race"});
  total.merge({4, 1, "[seed 2] BV101: later race"});
  EXPECT_EQ(total.schedules, 7u);
  EXPECT_EQ(total.errors, 4u);
  EXPECT_EQ(total.first, "[seed 1] BV101: race");
  try {
    total.throw_if_failed();
    FAIL() << "a tally with errors must throw";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("4 error(s) across 7 schedule(s)"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("[seed 1] BV101: race"), std::string::npos) << msg;
  }
  EXPECT_NO_THROW((VerifyTally{3, 0, ""}.throw_if_failed()));
}

// --- run_point determinism ---------------------------------------------------

void expect_identical(const RunningStats& a, const RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());        // exact, not near: bit-identical
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

void expect_identical(const PointAggregate& a, const PointAggregate& b) {
  const FractionAggregate& fa = a.fractions;
  const FractionAggregate& fb = b.fractions;
  expect_identical(fa.barrier_frac, fb.barrier_frac);
  expect_identical(fa.serialized_frac, fb.serialized_frac);
  expect_identical(fa.static_frac, fb.static_frac);
  expect_identical(fa.no_runtime_frac, fb.no_runtime_frac);
  expect_identical(fa.implied_syncs, fb.implied_syncs);
  expect_identical(fa.barriers, fb.barriers);
  expect_identical(fa.barriers_inserted, fb.barriers_inserted);
  expect_identical(fa.merges, fb.merges);
  expect_identical(fa.repairs, fb.repairs);
  expect_identical(fa.procs_used, fb.procs_used);
  expect_identical(fa.completion_min, fb.completion_min);
  expect_identical(fa.completion_max, fb.completion_max);
  expect_identical(fa.cross_resolved_frac, fb.cross_resolved_frac);
  expect_identical(fa.timing_avoidance_frac, fb.timing_avoidance_frac);
  expect_identical(a.program_size, b.program_size);
  expect_identical(a.vliw_makespan, b.vliw_makespan);
  expect_identical(a.norm_min, b.norm_min);
  expect_identical(a.norm_max, b.norm_max);
  expect_identical(a.norm_mean, b.norm_mean);
  EXPECT_EQ(a.violation_count, b.violation_count);
}

TEST(ParallelHarness, JobsProduceBitIdenticalAggregates) {
  GeneratorConfig gen{.num_statements = 20, .num_variables = 6,
                      .num_constants = 4, .const_max = 64};
  SchedulerConfig cfg;
  cfg.num_procs = 4;
  RunOptions serial;
  serial.seeds = 12;
  serial.base_seed = 77;
  serial.jobs = 1;
  const PointAggregate ref = run_point(gen, cfg, serial);

  for (std::size_t jobs : {2u, 3u, 8u}) {
    RunOptions opt = serial;
    opt.jobs = jobs;
    expect_identical(ref, run_point(gen, cfg, opt));
  }
}

TEST(ParallelHarness, JobsIdenticalWithSimulationAndVliw) {
  GeneratorConfig gen{.num_statements = 15, .num_variables = 5,
                      .num_constants = 3, .const_max = 32};
  SchedulerConfig cfg;
  cfg.num_procs = 8;
  cfg.insertion = InsertionPolicy::kOptimal;
  RunOptions serial;
  serial.seeds = 8;
  serial.base_seed = 1990;
  serial.with_vliw = true;
  serial.sim_runs = 3;
  serial.validate_draws = true;
  const PointAggregate ref = run_point(gen, cfg, serial);

  RunOptions opt = serial;
  opt.jobs = 8;
  expect_identical(ref, run_point(gen, cfg, opt));

  opt.jobs = 0;  // auto: hardware concurrency, still identical
  expect_identical(ref, run_point(gen, cfg, opt));
}

TEST(ParallelHarness, HookSeesSeedsInOrderUnderParallelism) {
  GeneratorConfig gen{.num_statements = 10, .num_variables = 4,
                      .num_constants = 3, .const_max = 32};
  SchedulerConfig cfg;
  RunOptions opt;
  opt.seeds = 9;
  opt.jobs = 4;
  std::vector<std::size_t> seen;
  run_point(gen, cfg, opt,
            [&](const BenchmarkOutcome& o) { seen.push_back(o.seed_index); });
  ASSERT_EQ(seen.size(), 9u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

}  // namespace
}  // namespace bm
