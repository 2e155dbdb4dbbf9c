#!/usr/bin/env python3
"""Benchmark regression gate.

Compares a fresh google-benchmark JSON run against the committed baseline
(BENCH_sched.json / BENCH_sim.json at the repo root) and fails on a
regression of any *named hot benchmark* beyond a noise-aware threshold.

Subcommands
-----------
  run      <binary> <out.json>   run a bench binary with repetitions and
                                 write aggregate JSON (refuses non-Release)
  check    <current.json> --baseline <baseline.json>
                                 compare against a baseline; exit 1 on any
                                 gated regression
  validate <file.json>           assert the JSON came from a Release build
  selftest <baseline.json>       prove the gate trips: synthesize a current
                                 run with one hot benchmark slowed past
                                 its noise-aware threshold and assert
                                 check() fails on it (and passes
                                 on an unmodified copy)

Noise handling: per benchmark the threshold is
    base_threshold + noise_margin
where noise_margin = NOISE_CV_MULT * max(baseline cv, current cv) when the
JSON carries repetition aggregates (median/cv rows), else NOISE_FALLBACK.
Benchmarks faster than NOISE_FLOOR_NS are never gated (sub-microsecond
timings are dominated by loop overhead jitter).

The committed baselines are regenerated with scripts/check.sh --bench-regen
(Release build tree, build-bench/).
"""

import argparse
import json
import math
import subprocess
import sys

# The perf contract: regressions of these benchmarks fail CI. Names must
# match the google-benchmark run_name (aggregate rows strip the suffix).
GATED_BENCHMARKS = {
    "BENCH_sched.json": [
        "BM_Synthesize/120",
        "BM_BuildInstrDag/120",
        "BM_ScheduleConservative/60",
        "BM_ScheduleConservative/120",
        "BM_ScheduleOptimal/120",
        "BM_ScheduleManyProcs/32",
        "BM_RunPointJobs/1/real_time",
    ],
    "BENCH_sim.json": [
        "BM_SimulateSbm/120",
        "BM_SimulateDbm/120",
        "BM_ValidateTrace",
    ],
    "BENCH_batch.json": [
        "BM_SummarizeCompletion",
    ],
    # BM_ServeStatsSnapshot rides in BENCH_serve.json for visibility but is
    # deliberately ungated: at ~7.5us its cross-process run-to-run spread
    # (heap/ASLR layout) reaches 20% while within-run cv reads <2%, so the
    # cv-widened threshold can't absorb it — and a 1 Hz stats poll is not a
    # hot path. The telemetry-on hit path (BM_ServeCacheHitAccessLog) is the
    # gated overhead contract.
    "BENCH_serve.json": [
        "BM_ServeScheduleCold/60",
        "BM_ServeScheduleCold/120",
        "BM_ServeCacheHit/120",
        "BM_ServeCacheHitAccessLog/120",
        "BM_FingerprintCanonicalize/120",
    ],
    # BM_ExecRunBlocking rides in BENCH_exec.json for visibility but is
    # ungated: it is dominated by thread spawn + scheduler behavior on a
    # loaded core, which the cv-widened threshold cannot absorb. The
    # barrier-crossing latencies (manual time, spawn excluded) and the
    # pure-CPU lowering pass are the gated contract.
    "BENCH_exec.json": [
        "BM_ExecBarrierCentral/2/manual_time",
        "BM_ExecBarrierCentral/8/manual_time",
        "BM_ExecBarrierTree/2/manual_time",
        "BM_ExecBarrierTree/8/manual_time",
        "BM_ExecLower/24",
        "BM_ExecLower/120",
    ],
}

BASE_THRESHOLD = 0.10     # the ">10% regression" contract from the ISSUE
NOISE_CV_MULT = 3.0       # widen by 3 sigma-equivalents of measured cv
NOISE_FALLBACK = 0.05     # no repetition data -> assume 5% run-to-run noise
NOISE_FLOOR_NS = 500.0    # never gate sub-500ns benchmarks
REPETITIONS = 7


def load(path):
    with open(path) as f:
        return json.load(f)


def is_release(doc):
    """A run counts as Release iff the binary stamped bm_build_type=Release.

    context.library_build_type reports how the *benchmark library* was
    compiled (often "debug" for distro packages even under -O2), so the
    bench mains stamp the project's own CMAKE_BUILD_TYPE into the context
    via AddCustomContext — that is the authoritative signal.
    """
    ctx = doc.get("context", {})
    return ctx.get("bm_build_type", "").lower() == "release"


def medians_and_cv(doc):
    """Map run_name -> (median cpu_time ns, cv or None).

    Prefers repetition aggregates; falls back to plain iteration rows
    (cv None) for legacy single-run baselines.
    """
    meds, cvs, singles = {}, {}, {}
    for row in doc.get("benchmarks", []):
        name = row.get("run_name", row.get("name", ""))
        if row.get("run_type") == "aggregate":
            if row.get("aggregate_name") == "median":
                meds[name] = float(row["cpu_time"])
            elif row.get("aggregate_name") == "cv":
                # cv rows report the ratio directly (time_unit-free).
                cvs[name] = float(row["cpu_time"])
        elif row.get("run_type") == "iteration" and name not in singles:
            singles[name] = float(row["cpu_time"])
    out = {}
    for name, med in meds.items():
        out[name] = (med, cvs.get(name))
    for name, t in singles.items():
        out.setdefault(name, (t, None))
    return out


def compare(baseline_doc, current_doc, gated, out=sys.stdout):
    """Returns the list of failed benchmark names; prints a report."""
    base = medians_and_cv(baseline_doc)
    cur = medians_and_cv(current_doc)
    failures = []
    missing = [n for n in gated if n not in cur]
    if missing:
        print(f"FAIL: gated benchmarks missing from current run: {missing}",
              file=out)
        failures.extend(missing)
    print(f"{'benchmark':42} {'baseline':>12} {'current':>12} "
          f"{'ratio':>7} {'allowed':>8}  verdict", file=out)
    for name in sorted(set(base) | set(cur)):
        if name not in base or name not in cur:
            continue
        b, bcv = base[name]
        c, ccv = cur[name]
        ratio = c / b if b > 0 else math.inf
        noise = max(bcv or 0.0, ccv or 0.0)
        margin = NOISE_CV_MULT * noise if noise > 0 else NOISE_FALLBACK
        allowed = 1.0 + BASE_THRESHOLD + margin
        gated_here = name in gated and b >= NOISE_FLOOR_NS
        verdict = "ok"
        if ratio > allowed:
            verdict = "REGRESSED" if gated_here else "regressed (ungated)"
            if gated_here:
                failures.append(name)
        elif not gated_here:
            verdict = "ok (ungated)"
        print(f"{name:42} {b:10.0f}ns {c:10.0f}ns {ratio:7.3f} {allowed:8.3f}"
              f"  {verdict}", file=out)
    return failures


def cmd_run(args):
    cmd = [
        args.binary,
        f"--benchmark_repetitions={args.repetitions}",
        "--benchmark_report_aggregates_only=false",
        "--benchmark_format=json",
        f"--benchmark_out={args.out}",
        "--benchmark_out_format=json",
    ]
    res = subprocess.run(cmd, stdout=subprocess.DEVNULL)
    if res.returncode != 0:
        print(f"bench_gate: {args.binary} exited {res.returncode}",
              file=sys.stderr)
        return res.returncode
    doc = load(args.out)
    if not is_release(doc):
        print(f"bench_gate: refusing to keep {args.out}: {args.binary} is "
              "not a Release build (context.bm_build_type != Release). "
              "Benchmark baselines must come from build-bench/ "
              "(scripts/check.sh --bench-regen).", file=sys.stderr)
        return 1
    print(f"ok  {args.binary} -> {args.out} (Release, "
          f"{args.repetitions} repetitions)")
    return 0


def host_stamp(doc):
    ctx = doc.get("context", {})
    return ctx.get("host_name"), ctx.get("num_cpus")


def report_hosts(baseline_doc, current_doc, out=sys.stdout):
    """Prints both host stamps; warns when the baseline came from another
    host (the verdicts below are unchanged, only labelled)."""
    base, cur = host_stamp(baseline_doc), host_stamp(current_doc)
    print(f"baseline host: host_name={base[0]} num_cpus={base[1]}", file=out)
    print(f"current host:  host_name={cur[0]} num_cpus={cur[1]}", file=out)
    if base != cur:
        print("WARNING: baselines from another host — ratios mix host and "
              "code differences", file=out)


def cmd_check(args):
    baseline = load(args.baseline)
    current = load(args.current)
    if not is_release(current):
        print("bench_gate: current run is not from a Release build; "
              "refusing to compare.", file=sys.stderr)
        return 1
    gated = GATED_BENCHMARKS.get(args.gate_set or args.baseline.split("/")[-1],
                                 [])
    if not gated:
        print(f"bench_gate: no gated benchmark list for {args.baseline}",
              file=sys.stderr)
        return 2
    report_hosts(baseline, current)
    failures = compare(baseline, current, gated)
    if failures:
        print(f"bench_gate: FAIL — {len(failures)} gated regression(s): "
              f"{failures}", file=sys.stderr)
        return 1
    print("bench_gate: all gated benchmarks within threshold")
    return 0


def cmd_validate(args):
    doc = load(args.file)
    if not is_release(doc):
        print(f"bench_gate: {args.file} did not come from a Release build",
              file=sys.stderr)
        return 1
    print(f"ok  {args.file} is a Release-build baseline")
    return 0


def cmd_selftest(args):
    baseline = load(args.baseline)
    gated = GATED_BENCHMARKS.get(args.baseline.split("/")[-1], [])
    if not gated:
        print(f"bench_gate selftest: no gated list for {args.baseline}",
              file=sys.stderr)
        return 2
    names = {r.get("run_name", r.get("name")) for r in baseline["benchmarks"]}
    victims = [n for n in gated if n in names]
    if not victims:
        print("bench_gate selftest: baseline has none of the gated "
              "benchmarks", file=sys.stderr)
        return 2

    # An identical run must pass (mark it Release for the comparison).
    clean = json.loads(json.dumps(baseline))
    clean.setdefault("context", {})["bm_build_type"] = "Release"
    if compare(baseline, clean, gated, out=open("/dev/null", "w")):
        print("bench_gate selftest: FAIL — identical run was flagged",
              file=sys.stderr)
        return 1

    # Slowing one gated benchmark past its own noise-aware threshold must
    # trip the gate. The factor is derived from the victim's measured cv
    # (allowed ratio + 10 points of headroom) so the selftest stays
    # meaningful on noisy machines where a fixed 25% could sit inside the
    # widened threshold. cv aggregate rows are left untouched: a uniformly
    # slowed run has the same relative spread, and scaling them would
    # inflate the very margin the synthetic regression must beat.
    victim = victims[0]
    _, vcv = medians_and_cv(baseline).get(victim, (0.0, None))
    noise = vcv if vcv else NOISE_FALLBACK
    factor = 1.0 + BASE_THRESHOLD + NOISE_CV_MULT * noise + 0.10
    slowed = json.loads(json.dumps(clean))
    for row in slowed["benchmarks"]:
        if row.get("run_name", row.get("name")) == victim \
                and row.get("aggregate_name") != "cv":
            row["cpu_time"] = float(row["cpu_time"]) * factor
            row["real_time"] = float(row.get("real_time", 0)) * factor
    failures = compare(baseline, slowed, gated, out=open("/dev/null", "w"))
    if victim not in failures:
        print(f"bench_gate selftest: FAIL — {factor:.2f}x slowdown of "
              f"{victim} was not flagged", file=sys.stderr)
        return 1
    print(f"ok  bench_gate selftest ({args.baseline}: identical run passes, "
          f"{factor:.2f}x slowdown of {victim} trips the gate)")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    r = sub.add_parser("run", help="run a bench binary to aggregate JSON")
    r.add_argument("binary")
    r.add_argument("out")
    r.add_argument("--repetitions", type=int, default=REPETITIONS)
    r.set_defaults(fn=cmd_run)

    c = sub.add_parser("check", help="compare current vs baseline")
    c.add_argument("current")
    c.add_argument("--baseline", required=True)
    c.add_argument("--gate-set", default=None,
                   help="key into the gated-benchmark table "
                        "(default: baseline filename)")
    c.set_defaults(fn=cmd_check)

    v = sub.add_parser("validate", help="assert a JSON is Release-built")
    v.add_argument("file")
    v.set_defaults(fn=cmd_validate)

    s = sub.add_parser("selftest", help="prove the gate trips on a slowdown")
    s.add_argument("baseline")
    s.set_defaults(fn=cmd_selftest)

    args = p.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
