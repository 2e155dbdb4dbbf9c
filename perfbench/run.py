#!/usr/bin/env python3
"""End-to-end benchmark of barrier-mimd: experiment sweeps (bmrun), served
schedules (bmserve) and native execution (exec::execute), with per-layer
attribution from a traced in-process replay. See perfbench/README.md.

    python3 perfbench/run.py --workload sched_grid --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --selftest            # open-loop stall self-test
    python3 perfbench/run.py --compare A.json B.json

Run from the repository root. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; every line before it is the
human-readable report (host/build stamp, every metric with unit and sample
count, fail_frac, the per-layer self-time table).
"""
import argparse
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(REPO, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
WORK = os.path.join(BUILD, "work")

WORKLOADS = ("sched_grid", "sim_replay", "serve_mix", "exec_native")
BMRUN_SETS = {
    "sched_grid": ["headline", "fig17", "insertion_compare", "stress_megadag"],
    "sim_replay": ["control_flow", "conventional_mimd"],
}
SERVE_RATE = 5000          # offered requests/s, a third of the cold-path knee
CACHE_ENTRIES = 1024       # bmserve cache bound: cold inserts churn the LRU
SETUP_REPEATS = 3

E2E_UNITS = {
    "setup_s": "s", "serial_s": "s", "parallel_s": "s", "peak_rss_mb": "MB",
    "barrier_frac": "ratio",
    "synth_hit_p50_us": "us", "synth_hit_p99_us": "us",
    "source_hit_p50_us": "us", "source_hit_p99_us": "us",
    "cold_p50_us": "us", "cold_p99_us": "us",
    "exec_central_p50_us": "us", "exec_tree_p50_us": "us", "exec_p99_us": "us",
}
# Span layers: the src/ modules the replays call into, plus "bench" for the
# replay's own glue (input generation, result checks, root spans).
LAYERS = ("codegen", "opt", "graph", "sched", "sim", "cfg", "verify", "vliw",
          "serve", "serialize", "exec", "ir", "mimd", "bench")
# The seven phases of bmserve's `stats v1` verb.
SERVER_PHASES = ("queue_wait", "fingerprint", "cache_lookup", "cold_schedule",
                 "verify", "serialize", "write_back")
LAYER_UNITS = {
    **{f"{l}.self_ms": "ms" for l in LAYERS},
    "codegen.tuples": "count", "opt.tuples_removed": "count",
    "graph.edges": "count", "graph.ns_per_edge": "ns",
    "sched.us_per_schedule": "us", "sched.barriers_inserted": "count",
    "sched.barriers_final": "count", "sched.merges": "count",
    "sched.repair_barriers": "count", "sched.repair_share": "ratio",
    "sim.runs": "count", "sim.ns_per_run": "ns",
    "sim.mean_completion_cycles": "cycles",
    "cfg.schedule_ms": "ms", "cfg.run_ms": "ms", "verify.errors": "count",
    "serve.fingerprint_p50_us": "us", "serve.cache_lookup_p50_us": "us",
    "serve.synthesize_p50_us": "us", "serve.compile_source_p50_us": "us",
    "serve.schedule_p50_us": "us", "serve.rewrite_p50_us": "us",
    "serve.hit_ratio": "ratio", "serve.evictions": "count",
    **{f"server.{ph}_p50_us": "us" for ph in SERVER_PHASES},
    "net.overhead_p50_us": "us", "loadgen.late_p99_us": "us",
    "loadgen.late_max_us": "us", "loadgen.backlog_max": "count",
    "exec.lower_us": "us", "exec.timing_edges": "count",
    "exec.inner_p50_us": "us", "exec.spawn_p50_us": "us",
    "exec.spins_per_run": "count", "exec.yields_per_run": "count",
    "harness.speedup": "x", "harness.serial_fraction": "ratio",
    "trace.overhead_frac": "ratio", "trace.unattributed_frac": "ratio",
    "trace.replay_coverage": "ratio",
}


class BenchError(Exception):
    pass


def log(msg=""):
    print(msg, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def pes():
    """PEs executed natively: 4, capped at nproc."""
    return min(4, nproc())


def host_stamp():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": nproc(), "cpu_model": model, "machine": platform.machine()}


# -- build ---------------------------------------------------------------------

def build():
    """Configures (once) and builds the Release tree; returns the build stamp."""
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        raise BenchError("no src/ tree next to perfbench/: nothing to build")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_checked(["cmake", "-S", BENCH_DIR, "-B", BUILD, *gen,
                     "-DCMAKE_BUILD_TYPE=Release"])
    run_checked(["cmake", "--build", BUILD, "-j", str(nproc()), "--target",
                 "bmrun", "bmserve", "bmbench", "trace_check"])
    stamp = bmbench(["stamp"])
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        cache_type = next((l.split("=", 1)[1].strip() for l in f
                           if l.startswith("CMAKE_BUILD_TYPE:")), "")
    if cache_type != "Release" or stamp["build_type"] != "Release" \
            or stamp["ndebug"] != 1:
        raise BenchError("refusing to measure a non-Release build "
                         f"(CMAKE_BUILD_TYPE={cache_type!r})")
    return stamp


def run_checked(cmd):
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stdout[-4000:] + out.stderr[-4000:])
        raise BenchError(f"command failed ({out.returncode}): {' '.join(cmd)}")


def wait_child(proc, timeout=170):
    """Reaps `proc` and returns its rusage; kills it after `timeout` s. The
    wait blocks, so the benchmark takes no CPU from the child meanwhile."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode == -signal.SIGKILL:
        raise BenchError(f"{proc.args[0]} timed out or was killed")
    return usage


# -- host speed ------------------------------------------------------------------
#
# The host is shared: other tenants slow each vCPU by up to 1.5x in spells of
# a few to tens of milliseconds, and the share of time spent slow drifts over
# minutes. Every child process a run spawns is preceded by a short probe, a
# fixed pure-Python loop that runs no code under test, so a run's probes sample
# the host's state all through it. normalize() scales the run's timings by the
# probes' mean against PROBE_REF_S, which removes the drift between runs.

PROBE_ITERS = 20000    # loop iterations of one probe sample
PROBE_SAMPLES = 4      # samples per spawned child
PROBE_REF_S = 0.00125  # a sample's mean time on the reference 4-core VM
PROBES = []            # this run's probe samples, in seconds


def probe():
    for _ in range(PROBE_SAMPLES):
        t0 = time.perf_counter()
        x = 0
        for i in range(PROBE_ITERS):
            x += i * i
        PROBES.append(time.perf_counter() - t0)


def host_factor():
    """PROBE_REF_S over the mean probe sample, its slowest 5% left out: a
    single sample that lost its CPU to another process says nothing about
    the host's speed."""
    v = sorted(PROBES)[:max(1, len(PROBES) * 19 // 20)]
    return PROBE_REF_S / statistics.mean(v)


def spawn(cmd, timeout=170):
    """Runs `cmd` with its output in files under the build tree; returns
    (exit code, stdout, stderr, wall seconds, peak RSS MiB)."""
    paths = [os.path.join(BUILD, f"child.{s}") for s in ("out", "err")]
    probe()
    with open(paths[0], "w+b") as out, open(paths[1], "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err,
                                cwd=WORK if os.path.isdir(WORK) else None)
        usage = wait_child(proc, timeout)
        wall = time.perf_counter() - t0
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read().decode(errors="replace"),
                err.read().decode(errors="replace"), wall,
                usage.ru_maxrss / 1024.0)


def bmbench(args, rss=None):
    """Runs one bmbench subcommand and returns its JSON result; with `rss`
    (a dict), also records the child's peak RSS in MiB under "peak_mb"."""
    rc, out, err, _, peak = spawn([os.path.join(BUILD, "bmbench"), *args])
    if rss is not None:
        rss["peak_mb"] = peak
    if rc != 0:
        sys.stderr.write(err[-4000:])
        raise BenchError(f"bmbench {args[0]} failed ({rc})")
    return json.loads(out.strip().splitlines()[-1])


# -- bmrun ---------------------------------------------------------------------

def bmrun(exps, jobs, base_seed, out_dir, verify=False):
    """One bmrun invocation: (wall seconds, peak RSS MiB, exit code)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [os.path.join(BUILD, "bmrun"), "run", *exps, "--jobs", str(jobs),
           "--base-seed", str(base_seed), "--out-dir", out_dir]
    if verify:
        cmd.append("--verify")
    rc, _, err, wall, peak = spawn(cmd)
    if rc != 0:
        sys.stderr.write(err[-2000:])
    return wall, peak, rc


def read_dir(path):
    return {n: open(os.path.join(path, n), "rb").read()
            for n in sorted(os.listdir(path))}


def pooled_barrier_frac(artifacts):
    barriers = syncs = 0.0
    for name, data in artifacts.items():
        if name.endswith(".json"):
            m = json.loads(data).get("metrics", {})
            barriers += m.get("obs.sched.barriers_final", 0)
            syncs += m.get("obs.sched.implied_syncs", 0)
    return barriers / syncs if syncs else 0.0


# -- bmserve -------------------------------------------------------------------

class Server:
    """A bmserve on a Unix socket inside the work directory."""

    def __init__(self, workers):
        self.sock = "bm.sock"
        path = os.path.join(WORK, self.sock)
        if os.path.exists(path):
            os.unlink(path)
        self.err = open(os.path.join(BUILD, "bmserve.err"), "wb")
        self.proc = subprocess.Popen(
            [os.path.join(BUILD, "bmserve"), "--socket", self.sock,
             "--workers", str(workers), "--max-queue", "4096",
             "--cache-entries", str(CACHE_ENTRIES), "--quiet"],
            cwd=WORK, stdout=subprocess.DEVNULL, stderr=self.err)
        deadline = time.monotonic() + 20
        while True:
            if self.proc.poll() is not None:
                raise BenchError("bmserve exited during start-up")
            try:
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                    s.connect(path)
                break
            except OSError:
                if time.monotonic() > deadline:
                    self.stop()
                    raise BenchError("bmserve did not start listening")
                time.sleep(0.002)

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGCONT)
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.err.close()
        return self.proc.returncode


# -- measurement ---------------------------------------------------------------
#
# A run is a set-up, then rounds until --seconds are spent. A round is one unit
# of the workload's own work followed by short slices of the surfaces it does
# not own (every workload reports every end-to-end metric). Interleaving
# spreads every metric's samples over the whole window, so a burst of noise
# from the shared host touches a minority of each metric's samples.

ROUND = {  # seconds of each slice per round
    "bmrun": {"serve": 1.0, "exec": 0.5},
    "serve_mix": {"serve": 1.5, "exec": 0.25},
    "exec_native": {"serve": 0.5, "exec": 1.0},
}
TRACE_SERVE_S = 4.0  # the traced round's serve slice
BATCH = 320   # cold requests per serve_mix closed batch
BATCHES = 3   # closed batches per serve_mix round, at each connection count
CHUNK = 200   # samples per chunk of the chunked quantiles


def chunked(values, q):
    """Median over consecutive chunks of at least CHUNK samples of each
    chunk's q-quantile. A chunk covers about a tenth of a second of one
    serve class's traffic; at q = 0.99 it has two samples beyond its
    quantile. A stall of the shared host lands in few chunks, so the median
    reports the tail of a typical stretch of traffic and the stall shows in
    the maxima and loadgen.late_* instead."""
    k = max(1, len(values) // CHUNK)
    return statistics.median(
        quantile(values[c * len(values) // k:(c + 1) * len(values) // k], q)
        for c in range(k))


def quantile(values, q):
    """Nearest-rank quantile."""
    v = sorted(values)
    return v[max(0, min(len(v) - 1, int(-(-q * len(v) // 1)) - 1))]


class Run:
    """Samples and operation counts of one benchmark run."""

    def __init__(self):
        self.values = {}    # metric -> reported value
        self.counts = {}    # metric -> sample count behind the value
        self.raw = {}       # sample stream -> samples, in time order
        self.attempted = 0
        self.failed = 0
        self.info = {}

    def ops(self, attempted, failed):
        self.attempted += int(attempted)
        self.failed += int(failed)

    def add(self, stream, samples):
        self.raw.setdefault(stream, []).extend(samples)

    def median(self, name, stream):
        self.set(name, statistics.median(self.raw[stream]), len(self.raw[stream]))

    def set(self, name, value, n):
        self.values[name] = value
        self.counts[name] = n


class Surfaces:
    """The serve and exec slices of a run, and the numbers they report."""

    def __init__(self, r, seed, n, srv):
        self.r, self.seed, self.n, self.srv = r, seed, n, srv
        self.sent = 0          # requests of the stream sent so far
        self.lg_last = None
        self.ex_last = None
        self.exec_peak_mb = 0.0

    def serve(self, seconds):
        lg = bmbench(["loadgen", "--socket", self.srv.sock, "--seed", str(self.seed),
                      "--rate", str(SERVE_RATE), "--seconds", str(seconds),
                      "--conns", str(self.n), "--offset", str(self.sent)])
        self.sent += int(lg["attempted"])
        r = self.r
        r.ops(lg["attempted"], lg["failed"])
        for cls in ("synth_hit", "source_hit", "cold"):
            r.add(cls, lg[f"lat_{cls}"])
        r.add("late", lg["late"])
        r.add("backlog_max", [lg["backlog_max"]])
        r.add("bf_sum", [lg["barrier_frac_sum"]])
        r.add("bf_n", [lg["barrier_frac_n"]])
        self.lg_last = lg

    def exec(self, seconds, setups=1):
        rss = {}
        ex = bmbench(["exec", "--seed", str(self.seed), "--seconds", str(seconds),
                      "--procs", str(pes()), "--setups", str(setups)], rss=rss)
        r = self.r
        r.ops(ex["attempted"], ex["failed"])
        r.add("exec_central", ex["calls_us"][0::2])
        r.add("exec_tree", ex["calls_us"][1::2])
        r.add("exec_all", ex["calls_us"])
        for k in ("setup_s", "serial_s", "parallel_s"):
            r.add(f"exec_{k}", ex[k])
        for k in ("inner_p50_us", "spawn_p50_us", "spins_per_run", "yields_per_run"):
            r.add(f"exec_{k}", [ex[k]])
        self.exec_peak_mb = max(self.exec_peak_mb, rss["peak_mb"])
        self.ex_last = ex

    def finish(self):
        """Turns the slices' samples into the serve and exec metrics."""
        r = self.r
        for cls in ("synth_hit", "source_hit", "cold"):
            v = r.raw[cls]
            r.set(f"{cls}_p50_us", chunked(v, 0.5), len(v))
            r.set(f"{cls}_p99_us", chunked(v, 0.99), len(v))
        for name, stream, q in (("exec_central_p50_us", "exec_central", 0.5),
                                ("exec_tree_p50_us", "exec_tree", 0.5),
                                ("exec_p99_us", "exec_all", 0.99)):
            v = r.raw[stream]
            r.set(name, chunked(v, q), len(v))


def base_seed(seed, rnd=0):
    """bmrun --base-seed of a round. Each round runs new inputs, so a run's
    figure draws on several draws of the programs (control_flow's work
    varies by about 20% between draws)."""
    return 1990 + 100 * seed + rnd


def bmrun_round(r, exps, base, n):
    """The set at --jobs 1 and at --jobs nproc, one bmrun per experiment, so
    each experiment's time has a median of its own. Both runs of an
    experiment must exit 0 and write byte-identical artifacts. Round 0's
    artifacts give barrier_frac."""
    round_arts = {}
    for exp in exps:
        arts = []
        for jobs, stream in ((1, "serial_s"), (n, "parallel_s")):
            out = os.path.join(WORK, f"run{jobs}")
            wall, peak, rc = bmrun([exp], jobs, base, out)
            r.add(f"{stream}/{exp}", [wall])
            r.add("rss", [peak])
            arts.append(read_dir(out) if rc == 0 else None)
            r.ops(1, rc != 0)
        r.ops(1, arts[0] is None or arts[0] != arts[1])
        round_arts.update(arts[0] or {})
    r.info.setdefault("artifacts", round_arts)


def set_wall(r, exps, stream):
    """A bmrun set's wall time: the sum of its experiments' medians."""
    r.set(stream, sum(statistics.median(r.raw[f"{stream}/{e}"]) for e in exps),
          len(r.raw[f"{stream}/{exps[0]}"]))


def measure(workload, seed, seconds, trace=False):
    """Every end-to-end metric, with tracing off. `trace` runs one round and
    a single set-up: the traced run needs only the programs' own figures."""
    n = nproc()
    r = Run()
    PROBES.clear()
    repeats = 1 if trace else SETUP_REPEATS
    kind = "bmrun" if workload in BMRUN_SETS else workload
    srv = None
    try:
        if kind == "bmrun":
            # Set-up is the --verify pass over round 0's inputs; its repeats
            # must also write byte-identical artifacts.
            exps = BMRUN_SETS[workload]
            first = None
            for _ in range(repeats):
                out = os.path.join(WORK, "verify")
                wall, _, rc = bmrun(exps, n, base_seed(seed), out, verify=True)
                r.add("setup_s", [wall])
                arts = read_dir(out) if rc == 0 else None
                first = first or arts
                r.ops(2, (rc != 0) + (arts is None or arts != first))
            r.median("setup_s", "setup_s")
        for _ in range(repeats if kind == "serve_mix" else 1):
            if srv is not None:
                srv.stop()
            srv, wall, warm = serve_setup(seed, n)
            r.add("serve_setup_s", [wall])
            r.ops(warm["attempted"], warm["failed"])
        sf = Surfaces(r, seed, n, srv)
        slices = ROUND[kind]

        deadline = time.monotonic() + seconds
        rounds = batches = 0
        while True:
            t0 = time.monotonic()
            if kind == "bmrun":
                bmrun_round(r, exps, base_seed(seed, rounds), n)
            # The slice's loadgen reads the server's since-boot `stats v1`
            # histograms. In the traced round they must hold the slice's own
            # stream, so serve_mix runs its closed batches after the slice,
            # and the slice is long enough that the 128 warm-up requests
            # before it are under 1% of the histograms' samples.
            sf.serve(TRACE_SERVE_S if trace else slices["serve"])
            if kind == "serve_mix":
                for k in range(BATCHES):
                    for conns, stream in ((1, "serial_s"), (n, "parallel_s")):
                        b = bmbench(["batch", "--socket", srv.sock, "--seed", str(seed),
                                     "--count", str(BATCH), "--conns", str(conns),
                                     "--cold-base", str(5000000 + 100000 * batches)])
                        batches += 1
                        r.add(stream, [b["wall_s"]])
                        r.ops(b["attempted"], b["failed"])
            own_setup = kind == "exec_native" and rounds == 0
            sf.exec(slices["exec"], setups=repeats if own_setup else 1)
            rounds += 1
            if trace or time.monotonic() + (time.monotonic() - t0) > deadline:
                break
        r.info["rounds"] = rounds
        sf.finish()
        if kind == "bmrun":
            set_wall(r, exps, "serial_s")
            set_wall(r, exps, "parallel_s")
            r.set("peak_rss_mb", max(r.raw["rss"]), len(r.raw["rss"]))
            r.set("barrier_frac", pooled_barrier_frac(r.info["artifacts"] or {}), rounds)
            r.info["artifacts"] = sorted(r.info["artifacts"] or {})
        elif kind == "serve_mix":
            r.median("setup_s", "serve_setup_s")
            r.median("serial_s", "serial_s")
            r.median("parallel_s", "parallel_s")
            r.set("peak_rss_mb", srv.peak_rss_mb(), 1)
            r.set("barrier_frac", sum(r.raw["bf_sum"]) / sum(r.raw["bf_n"]),
                  int(sum(r.raw["bf_n"])))
        else:
            r.median("setup_s", "exec_setup_s")
            r.median("serial_s", "exec_serial_s")
            r.median("parallel_s", "exec_parallel_s")
            r.set("peak_rss_mb", sf.exec_peak_mb, rounds)
            r.set("barrier_frac", sf.ex_last["barrier_frac"], int(sf.ex_last["corpus"]))
        r.info["surfaces"] = sf
        normalize(r)
    finally:
        if srv is not None and srv.stop() != 0:
            r.ops(1, 1)
    missing = [m for m in E2E_UNITS if m not in r.values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return r


def normalize(r):
    """Scales every timing by host_factor() (see "host speed" above)."""
    factor = host_factor()
    r.info["host"] = {"probes": len(PROBES), "factor": factor}
    for name, unit in E2E_UNITS.items():
        if unit in ("s", "us"):
            r.values[name] *= factor


def serve_setup(seed, workers):
    """Starts a server and warms its cache with the hot set."""
    t0 = time.perf_counter()
    srv = Server(workers)
    try:
        warm = bmbench(["warm", "--socket", srv.sock, "--seed", str(seed)])
    except Exception:
        srv.stop()
        raise
    return srv, time.perf_counter() - t0, warm


# -- traced run ----------------------------------------------------------------

# The pipelines a workload's traced run replays. BENCHMARK.json declares only
# the two bmrun workloads, so each also replays the pipeline of a workload
# that is only run by hand, and every layer is attributed on a declared one.
REPLAYS = {"sched_grid": ("sched_grid", "serve_mix"),
           "sim_replay": ("sim_replay", "exec_native"),
           "serve_mix": ("serve_mix",), "exec_native": ("exec_native",)}


def replays(workload, seed, base, traced):
    """The workload's replays, summed; "walls" keeps each replay's wall."""
    total = {"failed": 0, "wall_ms": 0.0, "spans": 0, "unattributed_ms": 0.0,
             "cfg.schedule_ms": 0.0, "cfg.run_ms": 0.0, "self_ms": {},
             "counts": {}, "walls": {}, "trace_ok": True}
    for name in REPLAYS[workload]:
        res = replay(name, seed, base, traced)
        total["walls"][name] = res["wall_ms"]
        total["trace_ok"] &= res.get("trace_ok", True)
        for k, v in res.items():
            if k in ("self_ms", "counts"):
                for key, x in v.items():
                    total[k][key] = total[k].get(key, 0.0) + x
            elif k.endswith("_p50_us"):   # only the serve replay has them
                total[k] = max(total.get(k, 0.0), v)
            elif k in total and k not in ("walls", "trace_ok"):
                total[k] += v
    return total


def replay(workload, seed, base, traced):
    """One in-process replay. Traced, it writes the Perfetto file and checks
    it with trace_check; the result's "trace_ok" says whether it passed."""
    args = ["replay", "--workload", workload, "--seed", str(seed),
            "--base-seed", str(base), "--procs", str(pes()),
            "--cache-entries", str(CACHE_ENTRIES)]
    if not traced:
        return bmbench(args)
    os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
    path = os.path.join(BUILD, "traces", f"{workload}.perfetto.json")
    res = bmbench(args + ["--trace-file", path])
    rc, _, err, _, _ = spawn([os.path.join(BUILD, "trace_check"), path])
    if rc != 0:
        sys.stderr.write(err[-2000:])
    res["trace_ok"] = rc == 0
    return res


def trace_run(workload, seed, seconds):
    """--trace 1: one round of the workload with tracing off, for the numbers
    the programs report, then the in-process replay untraced and traced."""
    n = nproc()
    r = measure(workload, seed, seconds, trace=True)
    sf = r.info["surfaces"]
    own_serve = "serve_mix" in REPLAYS[workload]
    own_exec = "exec_native" in REPLAYS[workload]
    plain = replays(workload, seed, base_seed(seed), False)
    traced = replays(workload, seed, base_seed(seed), True)
    r.ops(3, plain["failed"] + traced["failed"] + (not traced["trace_ok"]))

    c = traced["counts"]
    self_ms = traced["self_ms"]
    wall = traced["wall_ms"]
    layer = {}

    def put(name, value):
        layer[name] = float(value)

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    for l in LAYERS:
        put(f"{l}.self_ms", self_ms.get(l, 0.0))
    put("codegen.tuples", c.get("codegen.tuples", 0))
    put("opt.tuples_removed", c.get("opt.tuples_removed", 0))
    put("graph.edges", c.get("graph.edges", 0))
    put("graph.ns_per_edge", per(self_ms.get("graph", 0.0), c.get("graph.edges", 0), 1e6))
    put("sched.us_per_schedule",
        per(self_ms.get("sched", 0.0), c.get("sched.schedules", 0), 1e3))
    for k in ("barriers_inserted", "barriers_final", "merges", "repair_barriers"):
        put(f"sched.{k}", c.get(f"sched.{k}", 0))
    put("sched.repair_share", per(c.get("sched.repair_barriers", 0),
                                  c.get("sched.barriers_inserted", 0) +
                                  c.get("sched.repair_barriers", 0)))
    put("sim.runs", c.get("sim.runs", 0))
    put("sim.ns_per_run", per(self_ms.get("sim", 0.0), c.get("sim.runs", 0), 1e6))
    put("sim.mean_completion_cycles",
        per(c.get("sim.completion_sum", 0), c.get("sim.completion_n", 0)))
    put("cfg.schedule_ms", traced["cfg.schedule_ms"])
    put("cfg.run_ms", traced["cfg.run_ms"])
    put("verify.errors", c.get("verify.errors", 0))
    for k in ("fingerprint", "cache_lookup", "synthesize", "compile_source",
              "schedule", "rewrite"):
        put(f"serve.{k}_p50_us", traced[f"serve.{k}_p50_us"])
    put("serve.hit_ratio", per(c.get("serve.hits", 0),
                               c.get("serve.hits", 0) + c.get("serve.misses", 0)))
    put("serve.evictions", c.get("serve.evictions", 0))
    lg = sf.lg_last
    for ph in SERVER_PHASES:
        put(f"server.{ph}_p50_us", lg[f"server_{ph}_p50_us"] if own_serve else 0.0)
    if own_serve:
        every = r.raw["synth_hit"] + r.raw["source_hit"] + r.raw["cold"]
        put("net.overhead_p50_us", quantile(every, 0.5) - lg["server_p50_us"])
        put("loadgen.late_p99_us", quantile(r.raw["late"], 0.99))
        put("loadgen.late_max_us", max(r.raw["late"]))
        put("loadgen.backlog_max", max(r.raw["backlog_max"]))
    else:
        for k in ("net.overhead_p50_us", "loadgen.late_p99_us",
                  "loadgen.late_max_us", "loadgen.backlog_max"):
            put(k, 0.0)
    ex = sf.ex_last
    for k in ("lower_us", "timing_edges", "inner_p50_us", "spawn_p50_us",
              "spins_per_run", "yields_per_run"):
        put(f"exec.{k}", ex[k] if own_exec else 0.0)
    serial, par = r.values["serial_s"], r.values["parallel_s"]
    speedup = serial / par
    put("harness.speedup", speedup)
    put("harness.serial_fraction", (n / speedup - 1) / (n - 1) if n > 1 else 1.0)
    put("trace.overhead_frac", wall / plain["wall_ms"] - 1.0)
    put("trace.unattributed_frac", traced["unattributed_ms"] / wall)
    # How much of bmrun's wall time the replay explains (bmrun workloads).
    put("trace.replay_coverage",
        plain["walls"][workload] / 1e3 / serial if workload in BMRUN_SETS else 0.0)

    r.info["self_ms"] = self_ms
    r.info["unattributed_ms"] = traced["unattributed_ms"]
    r.info["traced_wall_ms"] = wall
    r.info["spans"] = traced["spans"]
    return r, layer


# -- reporting -----------------------------------------------------------------

def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report_e2e(r):
    h = r.info["host"]
    log(f"host speed: {h['probes']} probe samples; timings scaled by "
        f"{h['factor']:.4f} to the reference VM")
    log(f"{'metric':<22} {'value':>14} {'unit':<6} {'n':>7}")
    for name, unit in E2E_UNITS.items():
        log(f"{name:<22} {fmt(r.values[name]):>14} {unit:<6} {r.counts[name]:>7}")
    log(f"{'fail_frac':<22} {fmt(r.failed / max(1, r.attempted)):>14} "
        f"{'ratio':<6} {r.attempted:>7}")


def report_layers(r, layer):
    wall = r.info["traced_wall_ms"]
    log(f"per-layer self time over the traced replay ({r.info['spans']} spans):")
    total = 0.0
    for l in LAYERS:
        ms = r.info["self_ms"].get(l, 0.0)
        total += ms
        if ms:
            log(f"  {l:<12} {ms:12.3f} ms {100 * ms / wall:6.2f}%")
    un = r.info["unattributed_ms"]
    log(f"  {'unattributed':<12} {un:12.3f} ms {100 * un / wall:6.2f}%")
    log(f"  {'sum':<12} {total + un:12.3f} ms  (traced wall {wall:.3f} ms)")
    for name in sorted(layer):
        log(f"{name:<32} {fmt(layer[name])}")


def save(workload, seed, trace, stamp, r, metrics):
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    path = os.path.join(BUILD, "results", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as f:
        json.dump({"workload": workload, "seed": seed, "trace": trace,
                   "host": host_stamp(), "build": stamp, "metrics": metrics,
                   "samples": r.counts, "attempted": r.attempted,
                   "failed": r.failed}, f, indent=1, default=str)
    return path


def compare(a_path, b_path):
    a, b = (json.load(open(p)) for p in (a_path, b_path))
    if a["host"] != b["host"] or a["build"] != b["build"]:
        log(f"refusing to compare: host/build differ\n  {a['host']} {a['build']}"
            f"\n  {b['host']} {b['build']}")
        return 2
    for name in sorted(set(a["metrics"]) & set(b["metrics"])):
        va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
        ratio = vb / va if va else float("nan")
        log(f"{name:<32} {fmt(va):>14} {fmt(vb):>14} {ratio:8.3f}x")
    return 0


def selftest(seed):
    """Stalls the server with SIGSTOP for 100 ms mid-window: the stall must
    show in latency measured from due time and in the generator's lateness,
    and a control window without the stall must show neither."""
    n = nproc()
    ok = True
    results = {}
    for stall in (False, True):
        srv, _, _ = serve_setup(seed, n)
        try:
            extra = ["--stall-pid", str(srv.proc.pid), "--stall-at", "1.0",
                     "--stall-ms", "100"] if stall else []
            lg = bmbench(["loadgen", "--socket", srv.sock, "--seed", str(seed),
                          "--rate", str(SERVE_RATE), "--seconds", "2",
                          "--conns", str(n), *extra])
        finally:
            srv.stop()
        lat = lg["lat_synth_hit"] + lg["lat_source_hit"] + lg["lat_cold"]
        res = {"max_us": max(lat), "late_p99_us": quantile(lg["late"], 0.99),
               "late_max_us": max(lg["late"]), "backlog_max": lg["backlog_max"]}
        log(f"{'stalled' if stall else 'control'}: max latency "
            f"{res['max_us']:.0f} us, late p99 {res['late_p99_us']:.0f} us, "
            f"late max {res['late_max_us']:.0f} us, backlog max "
            f"{res['backlog_max']:.0f}, failed {lg['failed']:.0f}")
        results[stall] = res
        ok &= lg["failed"] == 0
    stalled, control = results[True], results[False]
    ok &= stalled["max_us"] >= 90e3 and stalled["late_max_us"] >= 50e3 \
        and stalled["backlog_max"] > 0
    ok &= control["max_us"] < 90e3 \
        and control["late_max_us"] < stalled["late_max_us"] / 2
    log("selftest: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar="RESULT")
    args = ap.parse_args()
    # A terminated run unwinds, so `finally` blocks stop the servers it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.compare:
        return compare(*args.compare)
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    try:
        stamp = build()
        os.makedirs(WORK, exist_ok=True)
        host = host_stamp()
        log(f"host: nproc={host['nproc']} cpu={host['cpu_model']!r} | build: "
            f"{stamp['compiler']} {stamp['build_type']} BM_OBS={stamp['bm_obs']}")
        if args.selftest:
            return selftest(args.seed)
        log(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
            f"trace {args.trace}")
        if args.trace:
            r, layer = trace_run(args.workload, args.seed, args.seconds)
            report_layers(r, layer)
            metrics = {k: {"value": layer[k], "unit": u}
                       for k, u in LAYER_UNITS.items()}
        else:
            r = measure(args.workload, args.seed, args.seconds)
            report_e2e(r)
            metrics = {k: {"value": r.values[k], "unit": u}
                       for k, u in E2E_UNITS.items()}
        log(f"result file: {save(args.workload, args.seed, args.trace, stamp, r, metrics)}")
    except (BenchError, OSError) as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 1
    print(json.dumps({"correct": r.failed == 0, "attempted": max(1, r.attempted),
                      "failed": r.failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
