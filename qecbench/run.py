#!/usr/bin/env python3
"""The veriqec benchmark: tracked workloads, end-to-end and per-layer metrics.

One run of one workload:

    python3 qecbench/run.py --workload s9_verify --seed 1 --seconds 28 --trace 0

builds a fresh Release tree of the checked-out sources (under
$CARGO_TARGET_DIR, default .bench_build), measures the workload for the given
number of seconds, checks every verdict against a hand-written answer and
prints one JSON object as the last stdout line:

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

`attempted`/`failed` count every launch of the workload binary (failed_runs):
a wrong verdict, a missing or rejected certificate, a crash, an unexpected
exit code or a launch past the time limit all count as failed.

--trace 0 reports the end-to-end metrics (tracing off, medians over the
run's launches); --trace 1 makes one traced launch plus its untraced bases
and reports the per-layer metrics (see README.md). --all runs every workload
interleaved for several rounds and prints a table. --smoke swaps in small
inputs so the whole pipeline runs in seconds (the benchmark's own tests use
it, together with --plant, which plants a failure the oracle must catch).
"""

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# A run must end within 180 s; keep every launch inside this envelope.
RUN_LIMIT_S = 165.0
# Set-up-only launches per untraced run (cheap; set-up time is their median
# together with the set-up part of every full launch).
SETUP_PROBES = 6


@dataclass
class Workload:
    kind: str  # verify | proof | distance | loopback
    code: str
    max_errors: int = 0
    # The hand-written answer every launch is checked against.
    expect: dict = field(default_factory=dict)


# Why each workload is tracked is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "s9_verify": Workload("verify", "surface9", 4, {"verified": True}),
    "s9_proof": Workload("proof", "surface9", 4,
                         {"verified": True, "proof_ok": True}),
    "t1f_distance": Workload("distance", "tanner1-full", 0, {"distance": 4}),
    "s9_loopback2": Workload("loopback", "surface9", 4, {"verified": True}),
}

# --smoke: the same pipeline on inputs that take about a second at most.
SMOKE = {
    "s9_verify": Workload("verify", "surface5", 2, {"verified": True}),
    "s9_proof": Workload("proof", "surface5", 2,
                         {"verified": True, "proof_ok": True}),
    "t1f_distance": Workload("distance", "tanner1", 0, {"distance": 4}),
    "s9_loopback2": Workload("loopback", "surface5", 2, {"verified": True}),
}

# The metric catalogue (names and units) is BENCHMARK.json's. A per-layer
# metric of a layer the workload does not run reads 0.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# The exact counters a fingerprint compares.
FINGERPRINT_KEYS = ("conflicts", "propagations", "cubes", "solver_calls")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# -- Build --------------------------------------------------------------------


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build():
    """Configures (once) and builds the Release tree; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit("qecbench: veriqec sources not found in %s" % ROOT)
    out = build_dir() / "qecbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit("qecbench: build failed: %s" % " ".join(cmd))
    return out


def provenance(out):
    """nproc, compiler, build type and the identity of the measured sources."""
    cache = (out / "CMakeCache.txt").read_text(errors="replace").splitlines()
    entries = dict(line.split("=", 1) for line in cache
                   if "=" in line and ":" in line.split("=", 1)[0])
    entries = {k.split(":")[0]: v for k, v in entries.items()}
    cxx = entries.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([cxx, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = cxx
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "compiler": version,
            "build_type": entries.get("CMAKE_BUILD_TYPE", "?"),
            "commit": commit, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version()}


# -- One launch ---------------------------------------------------------------


@dataclass
class Launch:
    ok: bool
    reason: str = ""
    data: dict = field(default_factory=dict)
    wall_s: float = 0.0
    setup_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0


def wait_with_rusage(proc, timeout):
    """Reaps proc with its own resource usage; kills it past timeout."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return False, usage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return True, usage
        time.sleep(0.004)


def launch(exe, wl, solver_seed, timeout, extra=()):
    scratch = build_dir() / "qecbench-run"
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe / "qecbench"), "--kind", wl.kind, "--code", wl.code,
           "--max-errors", str(wl.max_errors),
           "--solver-seed", str(solver_seed), *extra]
    out_path, err_path = scratch / "child.out", scratch / "child.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
        try:
            timed_out, usage = wait_with_rusage(proc, max(1.0, timeout))
        except BaseException:
            # Interrupted (SIGTERM, Ctrl-C): leave no orphan behind.
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        wall = time.monotonic() - start
    res = Launch(ok=False, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                 rss_mb=usage.ru_maxrss / 1024.0)
    if timed_out:
        res.reason = "past the time limit (%.0f s)" % timeout
        return res
    if proc.returncode != 0:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
        res.reason = "exit code %d %s" % (proc.returncode, " ".join(tail))
        return res
    lines = out_path.read_text(errors="replace").strip().splitlines()
    try:
        res.data = json.loads(lines[-1])
    except (IndexError, ValueError):
        res.reason = "no result line"
        return res
    res.setup_s = res.data["setup_done_mono"] - start
    res.ok = True
    return res


def check_verdict(res, wl, expect):
    """The oracle: marks res failed unless it matches expect."""
    if not res.ok:
        return res
    d = res.data
    if not d.get("structural_ok") or d.get("aborted"):
        res.ok, res.reason = False, "no verdict: %s" % d.get("error", "aborted")
        return res
    for key, want in expect.items():
        if d.get(key) != want:
            res.ok = False
            res.reason = "%s is %r, expected %r" % (key, d.get(key), want)
            return res
    if wl.kind == "proof" and not d.get("proof_bytes"):
        res.ok, res.reason = False, "verdict carries no certificate"
    return res


def fingerprint_of(d):
    return {k: d.get(k, 0) for k in FINGERPRINT_KEYS}


def recorded_fingerprint(name, smoke, solver_seed):
    if solver_seed != 0:
        return None
    table = json.loads((BENCH_DIR / "fingerprints.json").read_text())
    return table["smoke" if smoke else "workloads"].get(name)


# -- Untraced run (end-to-end metrics) ----------------------------------------


class Run:
    """Launch bookkeeping shared by the untraced and traced runs."""

    def __init__(self, args):
        self.args = args
        self.smoke = args.smoke
        self.exe = args.exe
        self.start = time.monotonic()
        self.attempted = 0
        self.failures = []
        self.fingerprints = []

    def remaining(self):
        return RUN_LIMIT_S - (time.monotonic() - self.start)

    def go(self, name, wl, expect=None, extra=(), setup_only=False):
        self.attempted += 1
        flags = list(extra) + (["--setup-only"] if setup_only else [])
        res = launch(self.exe, wl, self.args.solver_seed, self.remaining(),
                     flags)
        if not setup_only:
            check_verdict(res, wl, wl.expect if expect is None else expect)
            if res.ok:
                self.fingerprints.append(fingerprint_of(res.data))
        if not res.ok:
            self.failures.append("%s: %s" % (name, res.reason))
            log("qecbench: %s FAILED: %s" % (name, res.reason))
        elif not setup_only:
            log("qecbench: %s setup %.4f s verdict %.4f s cpu %.3f s "
                "rss %.1f MB conflicts %d" % (
                    name, res.setup_s, res.data["verdict_s"], res.cpu_s,
                    res.rss_mb, res.data["conflicts"]))
        return res

    def fingerprint_match(self, name):
        """True when every launch reproduced the recorded counters (false
        too when none are recorded for this seed and input)."""
        want = recorded_fingerprint(name, self.smoke, self.args.solver_seed)
        return bool(want) and bool(self.fingerprints) and all(
            f == want for f in self.fingerprints)

    def result(self, metrics):
        return {"correct": not self.failures, "attempted": self.attempted,
                "failed": len(self.failures), "metrics": metrics}


def run_untraced(args, name, wl, expect):
    run = Run(args)
    rng = random.Random(args.seed)
    setups, iters = [], []
    probes_left = SETUP_PROBES
    last_wall = probe_wall = 0.0

    def probe():
        nonlocal probes_left, probe_wall
        probes_left -= 1
        p = run.go(name, wl, setup_only=True)
        probe_wall = p.wall_s
        if p.ok:
            setups.append(p.setup_s)

    while True:
        # Stop before the next full launch (and the probes still owed)
        # would overrun --seconds; at least one full launch always runs.
        elapsed = time.monotonic() - run.start
        needed = 1.1 * last_wall + probes_left * probe_wall
        if last_wall and (elapsed + needed > args.seconds
                      or run.remaining() < 1.5 * last_wall):
            break
        # The seed interleaves set-up probes between full launches.
        for _ in range(min(probes_left, rng.randint(1, 3))):
            probe()
        r = run.go(name, wl, expect)
        last_wall = r.wall_s
        if r.ok:
            iters.append(r)
            setups.append(r.setup_s)
        elif "time limit" in r.reason:
            break
    while probes_left:
        probe()

    def med(values):
        return statistics.median(values) if values else 0.0

    values = {"setup_s": med(setups),
              "verdict_s": med([r.data["verdict_s"] for r in iters]),
              "cpu_s": med([r.cpu_s for r in iters]),
              "peak_rss_mb": med([r.rss_mb for r in iters])}
    match = run.fingerprint_match(name)
    fp = run.fingerprints[0] if run.fingerprints else {}
    print("%s: %s | failed_runs %d/%d | fingerprint %s %s" % (
        name, " | ".join("%s %.6g %s" % (k, v, END_TO_END_UNITS[k])
                         for k, v in values.items()),
        len(run.failures), run.attempted,
        "match" if match else "MISMATCH", json.dumps(fp)))
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
               for k, v in values.items()}
    return run.result(metrics)


# -- Traced run (per-layer metrics) -------------------------------------------

# Which layer each span's self time belongs to. cube_solve's self time is
# the solver's search (propagate/analyze/decide) outside the spanned
# reduce_db/arena_gc/gauss_elim internals; the bench.* spans are the
# benchmark's own, around its calls into the library.
LAYER_OF_SPAN = {
    "vc_gen": "vcgen", "gf2_preprocess": "smt", "cnf_encode": "smt",
    "cube_enumerate": "engine", "cube_solve": "sat", "reduce_db": "sat",
    "arena_gc": "sat", "gauss_elim": "sat", "proof_assemble": "proof",
    "bench.proof_check": "proof", "wire_encode": "dist", "wire_decode": "dist",
}

def span_self_times(events):
    """Self time of every complete event: its duration minus the part of it
    its directly nested children (same thread) cover. Returns
    (event, self_us) pairs."""
    by_tid = {}
    for i, e in enumerate(events):
        by_tid.setdefault(e["tid"], []).append((i, e))
    out = []
    for evs in by_tid.values():
        # A span is recorded when it closes, so of two spans with equal
        # start and duration the later-recorded one encloses the other.
        evs = [e for _, e in sorted(evs, key=lambda p: (p[1]["ts"],
                                                        -p[1]["dur"], -p[0]))]
        stack, selfs = [], {}
        for e in evs:
            while stack and stack[-1]["ts"] + stack[-1]["dur"] <= e["ts"]:
                stack.pop()
            if stack:
                selfs[id(stack[-1])] -= e["dur"]
            selfs[id(e)] = e["dur"]
            stack.append(e)
        out.extend((e, max(0, selfs[id(e)])) for e in evs)
    return out


def trace_layers(trace_path, kind):
    """Per-layer numbers from one traced launch's Chrome trace."""
    with open(trace_path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    verdict = next(e for e in events if e["name"] == "bench.verdict")
    w0, w1 = verdict["ts"], verdict["ts"] + verdict["dur"]
    inside = [e for e in events if w0 <= e["ts"] and e["ts"] + e["dur"] <= w1]
    self_by_name, layer_self = {}, {}
    for e, s in span_self_times(inside):
        self_by_name[e["name"]] = self_by_name.get(e["name"], 0) + s
        layer = LAYER_OF_SPAN.get(e["name"])
        if layer:
            layer_self[layer] = layer_self.get(layer, 0) + s
    # What the library's spans explain, before any inference below.
    spanned = sum(layer_self.values())
    if kind == "distance":
        # The search loop has no span of its own: the verifier call's self
        # time is the solver's search.
        search = self_by_name.get("bench.verdict", 0)
        layer_self["sat"] = layer_self.get("sat", 0) + search
    else:
        search = self_by_name.get("cube_solve", 0)

    cubes = [e for e in inside if e["name"] == "cube_solve"]
    m = {"sat.search_s": search / 1e6}
    verdict_s = verdict["dur"] / 1e6
    m["obs.verdict_traced_s"] = verdict_s
    for name, metric in (("vc_gen", "vcgen.vc_gen_s"),
                         ("cube_enumerate", "engine.cube_enumerate_s"),
                         ("reduce_db", "sat.reduce_db_s"),
                         ("arena_gc", "sat.arena_gc_s"),
                         ("gauss_elim", "sat.gauss_s")):
        m[metric] = self_by_name.get(name, 0) / 1e6
    m["smt.encode_s"] = (self_by_name.get("gf2_preprocess", 0)
                         + self_by_name.get("cnf_encode", 0)) / 1e6
    for layer in ("sat", "proof", "dist"):
        m[layer + ".self_s"] = layer_self.get(layer, 0) / 1e6
    m["sat.reduce_db_share"] = m["sat.reduce_db_s"] / verdict_s
    m["obs.attributed_share"] = spanned / 1e6 / verdict_s
    if cubes:
        durs = sorted(e["dur"] for e in cubes)
        total = sum(durs)
        tail = max(1, len(durs) // 100)
        m["engine.cube_p50_us"] = float(statistics.median(durs))
        m["engine.cube_p99_us"] = float(durs[min(len(durs) - 1,
                                                 (len(durs) * 99) // 100)])
        m["engine.cube_max_us"] = float(durs[-1])
        m["engine.tail1pct_share"] = sum(durs[-tail:]) / total if total else 0
        # Solve window: first cube start to last cube end. Slots are the
        # threads that ran cubes (loopback workers all number theirs 0).
        s0 = min(e["ts"] for e in cubes)
        s1 = max(e["ts"] + e["dur"] for e in cubes)
        busy = {}
        for e in cubes:
            busy[e["tid"]] = busy.get(e["tid"], 0) + e["dur"]
        mean_busy = sum(busy.values()) / len(busy)
        window = max(1, s1 - s0)
        m["engine.slot_busy_share"] = mean_busy / window
        m["engine.dispatch_s"] = (window - mean_busy) / 1e6
    return m


def run_traced(args, name, wl, expect):
    run = Run(args)
    scratch = build_dir() / "qecbench-run"
    trace_path = scratch / ("%s.trace.json" % name)
    cert_path = scratch / ("%s.proof" % name)
    m = {k: 0.0 for k in PER_LAYER_UNITS}

    # Untraced bases: the overhead ratios need them, and the timing-sensitive
    # layer numbers (wire frame, proof check) come from them.
    wire = ["--wire-frame"] if wl.kind == "loopback" else []
    base = run.go(name, wl, expect, extra=wire)
    plain_solve = None
    if wl.kind == "proof":
        plain = Workload("verify", wl.code, wl.max_errors, {"verified": True})
        plain_solve = run.go(name + "/no-proof", plain)
    traced = run.go(name, wl, expect,
                    extra=["--trace-out", str(trace_path)]
                    + (["--proof-out", str(cert_path)]
                       if wl.kind == "proof" else []))

    if wl.kind == "proof" and traced.ok:
        if args.plant == "bad-cert":
            corrupt_certificate(cert_path)
        check = subprocess.run([str(run.exe / "veriqec-check"), "-q",
                                str(cert_path)], capture_output=True,
                               text=True, timeout=max(1, run.remaining()))
        m["proof.standalone_ok"] = 1.0 if check.returncode == 0 else 0.0
        if check.returncode != 0:
            run.failures.append("%s: veriqec-check rejected the certificate "
                                "(exit %d) %s" % (name, check.returncode,
                                                  check.stdout.strip()))
            log("qecbench: " + run.failures[-1])
    cert_path.unlink(missing_ok=True)

    if traced.ok:
        d = traced.data
        m.update(trace_layers(trace_path, wl.kind))
        m["qec.code_build_s"] = d["code_build_s"]
        m["verifier.scenario_build_s"] = d.get("scenario_build_s", 0.0)
        m["verifier.fleet_start_s"] = d.get("fleet_start_s", 0.0)
        for key in ("cnf_vars", "cnf_clauses", "rows_kept", "vars_eliminated"):
            m["smt." + key] = d[key]
        for key in ("conflicts", "decisions", "propagations", "learned",
                    "restarts", "solver_calls", "compactions", "wasted_bytes",
                    "xor_propagations", "xor_eliminations"):
            m["sat." + key] = d[key]
        solver_busy = (m["sat.self_s"] if wl.kind == "distance" else
                       m["sat.search_s"] + m["sat.reduce_db_s"]
                       + m["sat.arena_gc_s"] + m["sat.gauss_s"])
        m["sat.props_per_s"] = d["propagations"] / max(solver_busy, 1e-9)
        if wl.kind != "distance":
            for key in ("cubes", "cubes_solved", "cubes_pruned_core",
                        "cubes_pruned_gf2"):
                m["engine." + key] = d[key]
            m["engine.prune_ratio"] = (
                (d["cubes_pruned_core"] + d["cubes_pruned_gf2"]) / d["cubes"])
    trace_path.unlink(missing_ok=True)

    if base.ok and traced.ok:
        b = base.data
        m["obs.trace_overhead"] = (traced.data["verdict_s"] / b["verdict_s"]
                                   - 1)
        if wl.kind == "proof":
            m["proof.cert_bytes"] = b["proof_bytes"]
            m["proof.check_s"] = b["check_s"]
            for key in ("additions", "deletions", "conclusions"):
                m["proof." + key] = b["proof_" + key]
            if plain_solve and plain_solve.ok:
                base_s = plain_solve.data["solve_s"]
                m["proof.log_base_s"] = base_s
                m["proof.log_overhead"] = b["solve_s"] / base_s - 1
        if wl.kind == "loopback":
            m["dist.problem_frame_bytes"] = b["frame_bytes"]
            m["dist.encode_s"] = b["frame_encode_s"]
            m["dist.decode_s"] = b["frame_decode_s"]
            for key in ("batches_stolen", "batches_requeued",
                        "core_broadcasts", "heartbeats"):
                m["dist." + key] = b[key]
            single = recorded_fingerprint("s9_verify", run.smoke,
                                          args.solver_seed)
            if single:
                m["dist.work_ratio"] = b["conflicts"] / single["conflicts"]
    m["fingerprint.match"] = 1.0 if run.fingerprint_match(name) else 0.0
    metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
               for k, v in m.items()}
    return run.result(metrics)


def corrupt_certificate(path):
    """Replaces the first derived clause with the empty clause: a claim of
    unsatisfiability that nothing justifies, which the checker must reject."""
    lines = path.read_bytes().split(b"\n")
    first = next(i for i, line in enumerate(lines) if line.startswith(b"a "))
    lines[first] = b"a 0"
    path.write_bytes(b"\n".join(lines))


# -- Entry points -------------------------------------------------------------


def run_one(args, name):
    table = SMOKE if args.smoke else WORKLOADS
    wl = table[name]
    expect = dict(wl.expect)
    if args.plant == "wrong-answer":
        key = next(iter(expect))
        expect[key] = (not expect[key] if isinstance(expect[key], bool)
                       else expect[key] + 1)
    return (run_traced if args.trace else run_untraced)(args, name, wl,
                                                        expect)


def run_all(args):
    """Every workload, interleaved, for --rounds rounds; one row per run and
    the median and quartile spread of each end-to-end metric."""
    names = list(WORKLOADS)
    rows = {n: [] for n in names}
    for r in range(args.rounds):
        args.seed = args.seed_base + r
        order = names[r % len(names):] + names[:r % len(names)]
        for name in order:
            res = run_one(args, name)
            rows[name].append(res)
            print(json.dumps({"workload": name, "seed": args.seed, **res}),
                  flush=True)
    print("%-14s %-12s %12s %9s  %s" % ("workload", "metric", "median",
                                        "iqr/med", "failed_runs"))
    all_ok = True
    for name in names:
        failed = sum(res["failed"] for res in rows[name])
        attempted = sum(res["attempted"] for res in rows[name])
        all_ok &= failed == 0
        for metric in END_TO_END_UNITS:
            vals = [res["metrics"][metric]["value"] for res in rows[name]]
            med = statistics.median(vals)
            spread = 0.0
            if len(vals) >= 2:
                q = statistics.quantiles(vals, n=4)
                spread = (q[2] - q[0]) / med if med else 0.0
            print("%-14s %-12s %12.6g %9.4f  %d/%d" % (
                name, metric, med, spread, failed, attempted))
    return 0 if all_ok else 1


def main():
    # Turn SIGTERM into an exception so a running launch is reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help="interleaves set-up probes between launches")
    p.add_argument("--seconds", type=float, default=28,
                   help="measuring time of one run (BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--solver-seed", type=int, default=0,
                   help="VerifyOptions::RandomSeed of every launch; "
                        "fingerprints are recorded for 0 only")
    p.add_argument("--smoke", action="store_true",
                   help="small inputs: the whole pipeline in seconds")
    p.add_argument("--plant", choices=("wrong-answer", "bad-cert"),
                   help="self-test: plant a failure the oracle must count")
    p.add_argument("--all", action="store_true",
                   help="run every workload interleaved, --rounds times")
    p.add_argument("--rounds", type=int, default=1)
    args = p.parse_args()
    if not args.all and not args.workload:
        p.error("--workload or --all is required")

    args.exe = build()
    print("provenance: " + json.dumps(provenance(args.exe)), flush=True)
    if args.all:
        args.seed_base = args.seed
        return run_all(args)
    print(json.dumps(run_one(args, args.workload)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
