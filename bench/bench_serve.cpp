// google-benchmark microbenchmarks for the serving core: cold scheduling
// latency (full synthesize→schedule pipeline, cache bypassed), cache-hit
// latency (front-end memo + lookup + id rewrite), and the canonical-fingerprint
// hash itself. items_per_second on the serve benchmarks is the single-worker
// QPS figure quoted in docs/SERVING.md. Not a paper figure — engineering
// instrumentation; BENCH_serve.json is the gated baseline.
#include <cstddef>

#include <benchmark/benchmark.h>

#include "codegen/synthesize.hpp"
#include "serve/core.hpp"
#include "serve/fingerprint.hpp"
#include "support/rng.hpp"

namespace {

using namespace bm;
using namespace bm::serve;

Request synth_request(std::size_t index, std::size_t statements) {
  Request req;
  req.verb = Verb::kSynth;
  req.index = index;
  req.gen.num_statements = static_cast<std::uint32_t>(statements);
  return req;
}

/// Full request path with the cache bypassed: synthesize, build the DAG,
/// list-schedule, insert barriers — the cold-miss cost per request.
void BM_ServeScheduleCold(benchmark::State& state) {
  CoreConfig cfg;
  cfg.workers = 1;
  ServeCore core(cfg);
  Request req = synth_request(0, static_cast<std::size_t>(state.range(0)));
  req.no_cache = true;
  for (auto _ : state) {
    const Response resp = core.handle(req);
    if (resp.status != Status::kOk) state.SkipWithError(resp.error.c_str());
    benchmark::DoNotOptimize(resp.body.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ServeScheduleCold)->Arg(60)->Arg(120);

/// Steady-state hit path: the front-end memo supplies the program's
/// canonical form (no synthesis or canonicalization), then the schedule is
/// looked up and its ids rewritten into request numbering. The latency a
/// warm server answers repeat requests with.
void BM_ServeCacheHit(benchmark::State& state) {
  CoreConfig cfg;
  cfg.workers = 1;
  ServeCore core(cfg);
  const Request req =
      synth_request(0, static_cast<std::size_t>(state.range(0)));
  const Response primed = core.handle(req);  // insert the entry
  if (primed.status != Status::kOk) state.SkipWithError(primed.error.c_str());
  for (auto _ : state) {
    const Response resp = core.handle(req);
    if (resp.cache != CacheOutcome::kHit)
      state.SkipWithError("expected a cache hit");
    benchmark::DoNotOptimize(resp.body.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ServeCacheHit)->Arg(60)->Arg(120);

/// Hit path with the full telemetry surface on: latency histograms (window
/// included) plus a JSONL access-log line per request. The delta against
/// BM_ServeCacheHit is the telemetry tax on the fastest path; a
/// `-DBM_OBS=OFF` build of this same benchmark isolates the histogram
/// share (the access log stays live in that build).
void BM_ServeCacheHitAccessLog(benchmark::State& state) {
  CoreConfig cfg;
  cfg.workers = 1;
  cfg.telemetry.access_log_path = "/dev/null";  // append cost, no disk growth
  ServeCore core(cfg);
  const Request req =
      synth_request(0, static_cast<std::size_t>(state.range(0)));
  const Response primed = core.handle(req);  // insert the entry
  if (primed.status != Status::kOk) state.SkipWithError(primed.error.c_str());
  for (auto _ : state) {
    const Response resp = core.handle(req);
    if (resp.cache != CacheOutcome::kHit)
      state.SkipWithError("expected a cache hit");
    benchmark::DoNotOptimize(resp.body.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ServeCacheHitAccessLog)->Arg(120);

/// Building one `stats v1` JSON snapshot (histogram merges + quantile
/// extraction + serialization) — the per-poll cost of a dashboard client.
void BM_ServeStatsSnapshot(benchmark::State& state) {
  CoreConfig cfg;
  cfg.workers = 1;
  ServeCore core(cfg);
  for (std::size_t i = 0; i < 64; ++i)  // populate the histograms
    core.handle(synth_request(i % 8, 60));
  for (auto _ : state) {
    const std::string snap = core.stats_json();
    benchmark::DoNotOptimize(snap.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ServeStatsSnapshot);

/// The canonical fingerprint alone (WL refinement + canonical bytes) — the
/// fixed overhead every request pays whether it hits or misses.
void BM_FingerprintCanonicalize(benchmark::State& state) {
  GeneratorConfig gen;
  gen.num_statements = static_cast<std::uint32_t>(state.range(0));
  Rng rng = benchmark_rng(1990, 0);
  const Program prog = synthesize_benchmark(gen, rng).program;
  for (auto _ : state) {
    const CanonicalProgram canon = canonicalize_program(prog);
    benchmark::DoNotOptimize(canon.fingerprint);
    benchmark::DoNotOptimize(canon.bytes.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FingerprintCanonicalize)->Arg(60)->Arg(120);

}  // namespace
// main() is bench/bench_main.cpp (stamps bm_build_type for the bench gate).
