#!/usr/bin/env bash
# Full verification: configure, build, run the test suite (including the
# parallel-harness determinism and barrier-cache consistency tests), smoke
# every registered experiment through bmrun with a reduced seed count, and
# smoke the perf microbenchmarks. `--asan` / `--ubsan` / `--tsan`
# additionally build and test under Address- / UndefinedBehavior- /
# ThreadSanitizer in separate build trees (build-asan/, build-ubsan/,
# build-tsan/; combine `--tsan` with `--serve-smoke`/`--stats-smoke` to
# repeat those smokes against the TSan tree, tsan.supp applied);
# `--trace-smoke` additionally produces
# a --trace run and validates the JSON with trace_check; `--verify-smoke`
# exercises the static schedule verifier (golden schedule, mutation
# rejection, selftest, bmrun --verify); `--serve-smoke` boots bmserve on a
# temp socket and drives a few thousand bmload requests through it, then
# asserts a clean SIGTERM drain (combined with --asan it repeats the smoke
# against the AddressSanitizer tree); `--stats-smoke` boots bmserve with
# the full telemetry surface (access log, slow traces), polls the `stats
# v1` verb mid-load via `bmload --stats`, SIGUSR1-dumps the snapshot, and
# validates an emitted slow trace with trace_check.
#
# Benchmark regression gate (separate Release tree, build-bench/):
#   --bench-gate   build build-bench/ (forced Release), run the gated
#                  benchmarks with repetitions, and compare against the
#                  committed BENCH_{sched,sim,batch}.json baselines
#                  via scripts/bench_gate.py (fails on >10% + noise
#                  regression of any gated benchmark). Also runs the
#                  gate's selftest (a synthetic above-threshold slowdown must trip).
#   --bench-regen  rebuild build-bench/ and REGENERATE the committed
#                  baselines from it. Use on a quiet machine; commit the
#                  resulting BENCH_*.json.
set -euo pipefail
cd "$(dirname "$0")/.."

asan=0
ubsan=0
tsan=0
trace_smoke=0
verify_smoke=0
serve_smoke=0
stats_smoke=0
bench_gate=0
bench_regen=0
exec_smoke=0
for arg in "$@"; do
  case "$arg" in
    --asan) asan=1 ;;
    --ubsan) ubsan=1 ;;
    --tsan) tsan=1 ;;
    --trace-smoke) trace_smoke=1 ;;
    --verify-smoke) verify_smoke=1 ;;
    --serve-smoke) serve_smoke=1 ;;
    --stats-smoke) stats_smoke=1 ;;
    --exec-smoke) exec_smoke=1 ;;
    --bench-gate) bench_gate=1 ;;
    --bench-regen) bench_regen=1 ;;
    *) echo "usage: $0 [--asan] [--ubsan] [--tsan] [--trace-smoke]" \
            "[--verify-smoke] [--serve-smoke] [--stats-smoke]" \
            "[--exec-smoke] [--bench-gate] [--bench-regen]" >&2
       exit 2 ;;
  esac
done

# Native-execution smoke against a given build tree: the BM_EXEC_SLOW-gated
# test set (full 100-schedule parity corpus, 64-way barrier hammering) via
# the `slow` ctest label, then a golden-corpus spot check through the bmexec
# CLI — both primitives, blocking and oversubscribed-cooperative mappings,
# value-compared against the interpreter oracle (bmexec exits 1 on any
# mismatch, 2 on usage errors).
run_exec_smoke() {
  local tree="$1"
  BM_EXEC_SLOW=1 ctest --test-dir "$tree" -L slow --output-on-failure
  local seed
  for seed in 0 7 24; do
    "$tree/bmexec" run --seed "$seed" --barrier both --threads 0 > /dev/null
    "$tree/bmexec" run --seed "$seed" --barrier both --threads 3 > /dev/null
  done
  "$tree/bmexec" run --seed 3 --policy optimal --machine dbm --compiled \
      > /dev/null
  mkdir -p out
  "$tree/bmexec" emit --seed 0 --out out/exec-smoke-emit.cpp > /dev/null
  [[ -s out/exec-smoke-emit.cpp ]]
  "$tree/bmexec" calibrate --repeats 2 --rounds 200 > /dev/null
  echo "ok  exec-smoke ($tree)"
}

# bmserve/bmload end-to-end smoke against a given build tree: a few
# thousand requests over several connections (verified schedules, mixed
# cache hits), zero client-side errors, then a SIGTERM drain that must
# exit 0 with "drained" on stdout and errors=0 in the final stats.
run_serve_smoke() {
  local tree="$1" sock stats_log
  sock="$(mktemp -u /tmp/bmserve-smoke.XXXXXX.sock)"
  stats_log="$(mktemp /tmp/bmserve-smoke.XXXXXX.log)"
  "$tree/bmserve" --socket "$sock" --workers 2 > "$stats_log" 2>&1 &
  local srv=$!
  for _ in $(seq 50); do [[ -S "$sock" ]] && break; sleep 0.1; done
  [[ -S "$sock" ]] || { echo "bmserve never opened $sock" >&2; exit 1; }
  "$tree/bmload" --socket "$sock" --requests 3000 --connections 4 \
      --distinct 25 --verify \
    || { echo "bmload reported failures ($tree)" >&2; kill "$srv"; exit 1; }
  kill -TERM "$srv"
  wait "$srv" \
    || { echo "bmserve did not drain cleanly ($tree)" >&2; exit 1; }
  grep -q "^bmserve: drained$" "$stats_log"
  grep -q "^errors 0$" "$stats_log"
  rm -f "$sock" "$stats_log"
  echo "ok  serve-smoke ($tree)"
}

# Telemetry end-to-end smoke against a given build tree: bmserve with the
# access log + slow-trace surface on, a stats poll racing the load, a
# SIGUSR1 snapshot dump, and trace_check over one emitted slow trace.
run_stats_smoke() {
  local tree="$1" dir sock
  dir="$(mktemp -d /tmp/bmserve-stats-smoke.XXXXXX)"
  sock="$dir/bm.sock"
  mkdir -p "$dir/traces"
  "$tree/bmserve" --socket "$sock" --workers 2 \
      --access-log "$dir/access.jsonl" \
      --slow-trace-us 1 --trace-dir "$dir/traces" --slow-trace-max 16 \
      > "$dir/serve.log" 2> "$dir/serve.err" &
  local srv=$!
  for _ in $(seq 50); do [[ -S "$sock" ]] && break; sleep 0.1; done
  [[ -S "$sock" ]] || { echo "bmserve never opened $sock" >&2; exit 1; }
  # Load and dashboard race each other: the poller must see live traffic.
  "$tree/bmload" --socket "$sock" --requests 2000 --connections 4 \
      --distinct 25 > "$dir/load.log" &
  local load=$!
  "$tree/bmload" --socket "$sock" --stats --interval-ms 100 --iterations 5 \
      > "$dir/stats.log" \
    || { echo "stats poll failed ($tree)" >&2; kill "$srv" "$load"; exit 1; }
  wait "$load" \
    || { echo "bmload reported failures ($tree)" >&2; kill "$srv"; exit 1; }
  kill -USR1 "$srv"
  sleep 0.5
  kill -TERM "$srv"
  wait "$srv" \
    || { echo "bmserve did not drain cleanly ($tree)" >&2; exit 1; }
  grep -q '"stats":"v1"' "$dir/serve.err" \
    || { echo "SIGUSR1 dump missing ($tree)" >&2; exit 1; }
  grep -q "qps" "$dir/stats.log" \
    || { echo "stats dashboard empty ($tree)" >&2; exit 1; }
  [[ "$(wc -l < "$dir/access.jsonl")" -ge 2000 ]] \
    || { echo "access log too short ($tree)" >&2; exit 1; }
  local trace
  trace="$(ls "$dir"/traces/slow-req-*.trace.json 2>/dev/null | head -1)"
  [[ -n "$trace" ]] || { echo "no slow trace emitted ($tree)" >&2; exit 1; }
  "$tree/trace_check" "$trace" > /dev/null \
    || { echo "slow trace failed trace_check ($tree)" >&2; exit 1; }
  rm -rf "$dir"
  echo "ok  stats-smoke ($tree)"
}

# Benchmark timing only means anything from the dedicated Release tree;
# these modes skip the regular build/test pass entirely.
if [[ "$bench_gate" -eq 1 || "$bench_regen" -eq 1 ]]; then
  cmake -B build-bench -G Ninja -DCMAKE_BUILD_TYPE=Release
  cmake --build build-bench \
      --target bench_scheduler_perf bench_sim_perf bench_batch_sim \
               bench_serve bench_exec bmrun
  if [[ "$bench_regen" -eq 1 ]]; then
    python3 scripts/bench_gate.py run \
        build-bench/bench/bench_scheduler_perf BENCH_sched.json
    python3 scripts/bench_gate.py run \
        build-bench/bench/bench_sim_perf BENCH_sim.json
    python3 scripts/bench_gate.py run \
        build-bench/bench/bench_batch_sim BENCH_batch.json
    python3 scripts/bench_gate.py run \
        build-bench/bench/bench_serve BENCH_serve.json
    python3 scripts/bench_gate.py run \
        build-bench/bench/bench_exec BENCH_exec.json
    echo "baselines regenerated; review and commit BENCH_*.json"
  else
    python3 scripts/bench_gate.py validate BENCH_sched.json
    python3 scripts/bench_gate.py validate BENCH_sim.json
    python3 scripts/bench_gate.py validate BENCH_batch.json
    python3 scripts/bench_gate.py validate BENCH_serve.json
    python3 scripts/bench_gate.py validate BENCH_exec.json
    python3 scripts/bench_gate.py selftest BENCH_sched.json
    python3 scripts/bench_gate.py selftest BENCH_sim.json
    python3 scripts/bench_gate.py selftest BENCH_batch.json
    python3 scripts/bench_gate.py selftest BENCH_serve.json
    python3 scripts/bench_gate.py selftest BENCH_exec.json
    mkdir -p out
    python3 scripts/bench_gate.py run \
        build-bench/bench/bench_scheduler_perf out/bench_sched_current.json
    python3 scripts/bench_gate.py run \
        build-bench/bench/bench_sim_perf out/bench_sim_current.json
    python3 scripts/bench_gate.py run \
        build-bench/bench/bench_batch_sim out/bench_batch_current.json
    python3 scripts/bench_gate.py run \
        build-bench/bench/bench_serve out/bench_serve_current.json
    python3 scripts/bench_gate.py run \
        build-bench/bench/bench_exec out/bench_exec_current.json
    python3 scripts/bench_gate.py check out/bench_sched_current.json \
        --baseline BENCH_sched.json
    python3 scripts/bench_gate.py check out/bench_sim_current.json \
        --baseline BENCH_sim.json
    python3 scripts/bench_gate.py check out/bench_batch_current.json \
        --baseline BENCH_batch.json
    python3 scripts/bench_gate.py check out/bench_serve_current.json \
        --baseline BENCH_serve.json
    python3 scripts/bench_gate.py check out/bench_exec_current.json \
        --baseline BENCH_exec.json
    # Mega-DAG wall-clock budget: the full 10^6-tuple stress experiment must
    # finish inside BM_STRESS_BUDGET_SECS (default 60) on the Release tree.
    # A quadratic regression in the streaming CSR build or the labeling
    # sweeps blows this budget by orders of magnitude, not by noise.
    mkdir -p out
    timeout "${BM_STRESS_BUDGET_SECS:-60}" \
        ./build-bench/bmrun run stress_megadag --seeds 1 --jobs 1 \
        --out-dir out > /dev/null \
      && echo "ok  stress_megadag under budget" \
      || { echo "stress_megadag exceeded the bench-gate budget" >&2; exit 1; }
    echo "bench gate passed"
  fi
  exit 0
fi

# Static concurrency hygiene: every memory_order_relaxed under src/ must
# carry a `// mo:` rationale (docs/CONCURRENCY.md describes the contract).
python3 scripts/lint_atomics.py src

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

# The two perf-layer test binaries are the contract for this repo's
# performance work — run them explicitly (fast) so a filtered ctest cache
# can never silently skip them.
./build/tests/parallel_harness_test > /dev/null && echo "ok  parallel_harness_test"
./build/tests/barrier_cache_test > /dev/null && echo "ok  barrier_cache_test"

# Smoke every registered experiment. The list is asked from the registry
# itself (not hard-coded), so a new experiments/*.cpp file is covered here
# automatically. Each runs at --jobs 2 into out/ and at --jobs 1 into
# out/jobs1/ (both gitignored), and the two artifact sets must match byte
# for byte: a seed fan-out that leaks into results fails here.
rm -rf out/jobs1
mkdir -p out/jobs1
for exp in $(./build/bmrun list --names); do
  ./build/bmrun run "$exp" --seeds 10 --jobs 2 --out-dir out > /dev/null
  ./build/bmrun run "$exp" --seeds 10 --jobs 1 --out-dir out/jobs1 > /dev/null
  echo "ok  $exp"
done
for f in out/jobs1/*; do
  cmp "$f" "out/$(basename "$f")"
done
echo "ok  experiment artifacts identical at --jobs 1 and --jobs 2"

# Smoke the microbench binaries (one rep, throwaway output). The committed
# BENCH_*.json baselines are NOT written here: they only come from the
# forced-Release build-bench/ tree via `--bench-regen`, and bench_gate.py
# refuses JSON whose context is not stamped Release.
./build/bench/bench_scheduler_perf --benchmark_format=json \
    > /tmp/bench_sched_smoke.json && echo "ok  bench_scheduler_perf (smoke)"
./build/bench/bench_sim_perf --benchmark_format=json \
    > /tmp/bench_sim_smoke.json && echo "ok  bench_sim_perf (smoke)"
./build/bench/bench_batch_sim --benchmark_format=json \
    > /tmp/bench_batch_smoke.json && echo "ok  bench_batch_sim (smoke)"
./build/bench/bench_exec --benchmark_format=json \
    --benchmark_filter='BM_ExecLower/24' \
    > /tmp/bench_exec_smoke.json && echo "ok  bench_exec (smoke)"

if [[ "$verify_smoke" -eq 1 ]]; then
  mkdir -p out
  # The committed golden schedule must verify clean; a mutated copy (one
  # barrier dropped) must be rejected with a BV101 race carrying a witness;
  # and a reduced mutation campaign must flag every scored mutant. Together
  # these pin the verifier's exit codes, JSON shape, and sensitivity.
  ./build/bmverify check examples/golden/golden_block.bm \
      examples/golden/golden_schedule.txt > /dev/null \
    && echo "ok  bmverify check (golden clean)"
  # B4 is a load-bearing barrier of the golden schedule (dropping it opens
  # a provable race window); `random` could land on a benign victim.
  ./build/bmverify gen --seed 1990 --statements 28 --variables 8 --procs 4 \
      --mutate-drop 4 --json > out/verify-mutant.json 2> /dev/null \
    && { echo "mutated golden schedule verified clean" >&2; exit 1; } \
    || true
  grep -q '"BV101"' out/verify-mutant.json
  grep -q '"witness"' out/verify-mutant.json
  echo "ok  bmverify gen --mutate-drop (race + witness reported)"
  ./build/bmverify selftest --mutations 60 > /dev/null \
    && echo "ok  bmverify selftest (60 mutations)"
  ./build/bmrun run headline control_flow --seeds 3 --jobs 2 --verify \
      --out-dir out > /dev/null && echo "ok  bmrun --verify"
fi

if [[ "$serve_smoke" -eq 1 ]]; then
  run_serve_smoke build
fi

if [[ "$stats_smoke" -eq 1 ]]; then
  run_stats_smoke build
fi

if [[ "$exec_smoke" -eq 1 ]]; then
  run_exec_smoke build
fi

if [[ "$trace_smoke" -eq 1 ]]; then
  # A traced run must emit Perfetto-loadable JSON: structurally valid, with
  # at least one timed event. trace_check is the in-repo validator.
  ./build/bmrun run headline --seeds 3 --jobs 2 --trace out/trace-smoke.json \
      --out-dir out > /dev/null
  ./build/trace_check out/trace-smoke.json && echo "ok  trace-smoke"
fi

if [[ "$asan" -eq 1 ]]; then
  echo "--- AddressSanitizer pass (build-asan/) ---"
  cmake -B build-asan -G Ninja -DBM_SANITIZE=address
  cmake --build build-asan
  ctest --test-dir build-asan --output-on-failure
  ./build-asan/bmrun run --all --seeds 3 --jobs 2 --out-dir out-asan > /dev/null \
    && echo "ok  bmrun run --all (asan)"
  if [[ "$serve_smoke" -eq 1 ]]; then
    run_serve_smoke build-asan
  fi
  rm -rf out-asan
fi

if [[ "$tsan" -eq 1 ]]; then
  echo "--- ThreadSanitizer pass (build-tsan/) ---"
  # halt_on_error turns any report into a nonzero exit so ctest and the
  # smokes below fail loudly; the suppressions file is for *external*
  # noise only (empty today) — races in our code get fixed, not silenced.
  export TSAN_OPTIONS="suppressions=$PWD/tsan.supp halt_on_error=1 second_deadlock_stack=1"
  cmake -B build-tsan -G Ninja -DBM_SANITIZE=thread
  cmake --build build-tsan
  ctest --test-dir build-tsan --output-on-failure
  ./build-tsan/bmrun run headline --seeds 3 --jobs 2 --out-dir out-tsan \
      > /dev/null && echo "ok  bmrun headline (tsan)"
  if [[ "$serve_smoke" -eq 1 ]]; then
    run_serve_smoke build-tsan
  fi
  if [[ "$stats_smoke" -eq 1 ]]; then
    run_stats_smoke build-tsan
  fi
  if [[ "$exec_smoke" -eq 1 ]]; then
    run_exec_smoke build-tsan
  fi
  rm -rf out-tsan
  unset TSAN_OPTIONS
fi

if [[ "$ubsan" -eq 1 ]]; then
  echo "--- UndefinedBehaviorSanitizer pass (build-ubsan/) ---"
  cmake -B build-ubsan -G Ninja -DBM_SANITIZE=undefined
  cmake --build build-ubsan
  ctest --test-dir build-ubsan --output-on-failure
  ./build-ubsan/bmrun run --all --seeds 3 --jobs 2 --verify \
      --out-dir out-ubsan > /dev/null && echo "ok  bmrun run --all (ubsan)"
  ./build-ubsan/bmverify selftest --mutations 40 > /dev/null \
    && echo "ok  bmverify selftest (ubsan)"
  rm -rf out-ubsan
fi

echo "all checks passed"
