"""Benchmark of psghost: cold CLI commands and a warm inverse-solver session.

    python3 perfbench/run.py --workload report|verify|inverse --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; psghost is imported from ./src.

--trace 0 measures one workload for about S seconds and prints the
end-to-end metrics setup_s, wall_s and peak_rss_mb.  Operations run in whole
rounds, one process at a time, started by spawn.py, with their order
rotated each round so that a drift in machine speed affects every operation
alike.  wall_s is the sum of the per-operation medians, scaled by the run's
speed factor from a calibration timed before every operation.  --trace 1
instead runs the layer suite once (the same for every workload, with inputs
from the seed) and prints the per-layer metrics.  Every output is checked
against refgf, which shares no code with psghost.  The last line of standard
output is the JSON result; the line before it holds the per-operation
details, also written under perfbench/out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import refgf

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
OUT = HERE / "out"

REPORT_FIELDS = ("13", "23", "2^4", "3^2")
VERIFY_FIELDS = ("11", "13", "2^3")
VERIFY_SUITES = ("pencils", "complements", "vandermonde",
                 "union_counterexample", "elim")
ELIM_TRACE_P = 13
STREAM_FIELD = "13"
STREAM_QUERIES = 1000      # queries per solve_stream operation
TRACE_QUERIES = 200        # queries in the traced inverse chain
WALK_FIELDS = ("5", "7")
WALK_LIMIT = 1000
VANDERMONDE_SAMPLES = 200  # random multisets per traced verify chain
MUL_REPS = 60              # passes over all q^2 products at q = 27
SESSION_SETUP_PROBES = 4   # plus the session's own start
# refgf.calibrate() runs before every operation, on the core the operations
# use.  CALIB_S is its median time on the reference machine; the run's
# speed factor CALIB_S / median(calibration times) scales setup_s and wall_s
# to that machine's speed, so that a drift of the machine's speed between
# runs cancels.
CALIB_S = 0.15
OP_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def quartiles(xs) -> dict:
    xs = sorted(xs)
    if len(xs) == 1:
        q1 = med = q3 = xs[0]
    else:
        q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"n": len(xs), "median": med, "q1": q1, "q3": q3}


class Spawner:
    """spawn.py, the small process that starts and times every measured child.

    Its answers carry the highest peak resident set of the children so far.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawn.py")], text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(),
            cwd=ROOT)
        self.maxrss_kb = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def run(self, argv, ready=False, timeout=OP_TIMEOUT_S) -> dict:
        self.proc.stdin.write(json.dumps(
            {"argv": argv, "ready": ready, "timeout": timeout}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("spawn.py ended early")
        result = json.loads(line)
        self.maxrss_kb = result["maxrss_kb"]
        return result

    def time_to_ready(self, argv, timeout=OP_TIMEOUT_S) -> tuple[float, str]:
        """Seconds until argv prints "ready", and the rest of its output."""
        result = self.run(argv, ready=True, timeout=timeout)
        if result["seconds"] is None or result["returncode"]:
            raise BenchError(f"{argv} failed (exit {result['returncode']}): "
                             f"{result['stderr']}")
        return result["seconds"], result["stdout"]


CLI_PROBE = [sys.executable, "-c", "import psghost.cli; print('ready')"]


def psghost_cli(*args) -> list[str]:
    return [sys.executable, "-m", "psghost.cli", *args]


def timed(fn, *args) -> float:
    t0 = perf_counter()
    fn(*args)
    return perf_counter() - t0


def pin_to_one_core() -> None:
    """Run this process and its children on one core, so that the
    calibration and the operations meet the same contention."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})




# -- reference data ----------------------------------------------------

class Ref:
    """Reference arithmetic for one field; incidence and rank on first use."""

    def __init__(self, q_text: str):
        self.q_text = q_text
        p, h = refgf.parse_order(q_text)
        self.F = refgf.GF(p, h)
        self.p, self.h, self.q = p, h, p**h
        self.n = self.q**2 + self.q + 1
        self.N = self.q * (self.q + 1) // 2
        self.M = refgf.point_image_matrix(self.F)
        self._incidence = None
        self._rank = None

    @property
    def incidence(self):
        if self._incidence is None:
            self._incidence = refgf.incidence(self.F)
        return self._incidence

    @property
    def rank(self):
        if self._rank is None:
            self._rank = refgf.rank_mod_p(self.M, self.p)
        return self._rank

    def power_sum(self, mult) -> list[int]:
        return refgf.power_sum(self.F, self.M, mult)

    def random_plain_sets(self, rng, k) -> np.ndarray:
        return rng.integers(0, 2, size=(k, self.n))

    def poly_text(self, mult) -> str:
        return refgf.poly_text(self.q_text, self.q, self.power_sum(mult))


# -- checks: each returns None when the output is right, else the fault --

def check_report(ref: Ref, text: str):
    d = json.loads(text)
    if (d["q"], d["p"], d["h"]) != (ref.q, ref.p, ref.h):
        return f"field {d['q']} {d['p']} {d['h']}"
    rank, e = d["rank"], d["exponent"]
    if rank + e != ref.n:
        return f"rank {rank} + exponent {e} != {ref.n}"
    want = ref.N if ref.h == 1 else ref.rank
    if rank != want:
        return f"rank {rank} != reference {want}"
    if len(d["kernel_basis"]) != e:
        return f"{len(d['kernel_basis'])} basis rows, exponent {e}"
    B = np.array([refgf.mset_vector(ref.F, t) for t in d["kernel_basis"]],
                 dtype=np.int64).reshape(e, ref.n)
    leads = [int(np.nonzero(row)[0][0]) if row.any() else -1 for row in B]
    if -1 in leads or len(set(leads)) != e or any(
            B[k, j] != 1 for k, j in enumerate(leads)):
        return "kernel basis lacks distinct leading ones"
    if (B @ ref.M % ref.p).any():
        return "a kernel basis row has a nonzero power sum"
    if e and not refgf.in_row_span(B, ref.incidence.T, ref.p).all():
        return "a line is outside the span of the kernel basis"
    return None


def exit_fault(returncode: int, stderr: str):
    return f"exit {returncode}: {stderr}"


def check_verify(returncode: int, stdout: str):
    want = [f"{s}: pass" for s in VERIFY_SUITES]
    if returncode != 0 or stdout.splitlines() != want:
        return f"exit {returncode}: {stdout[:200]!r}"
    return None


def check_elim_trace(p: int, text: str):
    blocks = [b for b in text.split("# step ") if b.strip()]
    if [int(b.split("\n", 1)[0]) for b in blocks] != list(range(p - 1)):
        return f"expected steps 0..{p - 2}"
    header, *rows = blocks[1].split("\n", 1)[1].strip().splitlines()
    cols = []
    for label in header.split(",")[1:]:
        lam, mu = label.removeprefix("b^").split("c^")
        cols.append((int(lam), int(mu)))
    if sorted(cols) != sorted((l, m) for m in range(p - 2)
                              for l in range(p - 2 - m)):
        return "step 1 columns"
    seen = set()
    for row in rows:
        label, *vals = row.split(",")
        _, b, c = label.split(")")[0].lstrip("(").split(";")
        b, c = int(b), int(c)
        seen.add((b, c))
        for (lam, mu), v in zip(cols, vals):
            want = b**lam * (c**mu - 1) if c >= 2 else b**lam
            if int(v) != want:
                return f"step 1 row (1,{b},{c}) col b^{lam}c^{mu}: {v} != {want}"
    if seen != {(b, c) for c in range(1, p - 1) for b in range(1, p - c)}:
        return "step 1 rows"
    return None


def check_particular(ref: Ref, target, text, exponent):
    if text is None:
        return "no particular solution"
    if exponent != ref.N + 1:
        return f"coset exponent {exponent} != {ref.N + 1}"
    if ref.power_sum(refgf.mset_vector(ref.F, text)) != target:
        return "particular solution has another power sum"
    return None


def check_walk(ref: Ref, target, texts):
    if len(texts) > WALK_LIMIT:
        return f"{len(texts)} sets over the limit {WALK_LIMIT}"
    for t in texts:
        v = refgf.mset_vector(ref.F, t)
        if any(m > 1 for m in v):
            return "a returned set is not 0/1"
        if ref.power_sum(v) != target:
            return "a returned set has another power sum"
    return None


class Checker:
    """Counts failed operations; an identical output is checked once."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self._seen: dict = {}

    def record(self, key, fn, *args):
        self.attempted += 1
        h = hashlib.sha256(repr((key, args)).encode()).hexdigest()
        if h not in self._seen:
            try:
                self._seen[h] = fn(*args)
            except (ValueError, KeyError, IndexError, TypeError) as e:
                self._seen[h] = f"unparsable output: {e!r}"
        fault = self._seen[h]
        if fault is not None:
            self.failed += 1
            if len(self.wrong) < 20:
                self.wrong.append(f"{key}: {fault}")


# -- workloads -----------------------------------------------------------

def rounds(ops, seconds, run_op):
    """Run whole rounds until the next one would end after `seconds`."""
    start, last, n = perf_counter(), 0.0, 0
    while n == 0 or perf_counter() - start + last <= seconds:
        t_round = perf_counter()
        k = n % len(ops)
        for op in ops[k:] + ops[:k]:
            run_op(op)
        last = perf_counter() - t_round
        n += 1
    return n


def measure_cli(sp, ops, seconds):
    """Interleaved rounds of commands and set-up probes.

    Two CLI start probes run in every round, between the commands, so that
    the set-up samples are spread over the run like the commands are.
    Returns the set-up samples, the number of rounds, and the times and
    outputs of every command.
    """
    times = {name: [] for name, _ in ops}
    times["calib"] = []
    outputs = {name: [] for name, _ in ops}
    setup = []
    half = len(ops) // 2
    probe = ("setup", CLI_PROBE)
    schedule = ops[:half] + [probe] + ops[half:] + [probe]

    def run_op(op):
        name, argv = op
        times["calib"].append(timed(refgf.calibrate))
        if op is probe:
            setup.append(sp.time_to_ready(argv)[0])
            return
        result = sp.run(argv)
        times[name].append(result["seconds"])
        outputs[name].append((result["returncode"], result["stdout"],
                              result["stderr"]))
    n = rounds(schedule, seconds, run_op)
    return setup, n, times, outputs


def workload_report(seed, seconds, checker, sp):
    ops = [(f"report_q{q}",
            psghost_cli("ghost-report", "--field", q, "--format", "json"))
           for q in REPORT_FIELDS]
    setup, n, times, outputs = measure_cli(sp, ops, seconds)
    for q in REPORT_FIELDS:
        ref = Ref(q)
        for code, out, err in outputs[f"report_q{q}"]:
            if code != 0:
                checker.record(f"report_q{q}", exit_fault, code, err)
            else:
                checker.record(f"report_q{q}", check_report, ref, out)
    return setup, n, times, {}


def workload_verify(seed, seconds, checker, sp):
    ops = [(f"verify_q{q}", psghost_cli("verify", "--suite", "all", "--field",
                                        q, "--seed", str(seed)))
           for q in VERIFY_FIELDS]
    ops.append((f"elim_trace_p{ELIM_TRACE_P}",
                psghost_cli("elim-trace", "--field", str(ELIM_TRACE_P))))
    setup, n, times, outputs = measure_cli(sp, ops, seconds)
    for name, results in outputs.items():
        for code, out, err in results:
            if name.startswith("verify_"):
                checker.record(name, check_verify, code, out)
            elif code != 0:
                checker.record(name, exit_fault, code, err)
            else:
                checker.record(name, check_elim_trace, ELIM_TRACE_P, out)
    return setup, n, times, {}


def inverse_inputs(seed, n_queries):
    """Query texts and targets at q=13, walk targets at q=5 and q=7."""
    rng = np.random.default_rng(seed)
    ref = Ref(STREAM_FIELD)
    sets = ref.random_plain_sets(rng, n_queries)
    targets = [ref.power_sum(v) for v in sets]
    queries = [refgf.poly_text(STREAM_FIELD, ref.q, t) for t in targets]
    walks = []
    for q in WALK_FIELDS:
        wref = Ref(q)
        v = wref.random_plain_sets(rng, 1)[0]
        walks.append({"field": q, "ref": wref, "target": wref.power_sum(v),
                      "text": wref.poly_text(v)})
    return ref, targets, queries, walks


def write_job(name, job) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"job-{name}-{os.getpid()}.json"
    path.write_text(json.dumps(job))
    return path


def workload_inverse(seed, seconds, checker, sp):
    ref, targets, queries, walks = inverse_inputs(seed, STREAM_QUERIES)
    session = [sys.executable, str(HERE / "session.py")]
    # Half the probes run before the session and half after it, so that the
    # set-up samples span the run.
    probe = session + ["--warm-only"]
    setup = [sp.time_to_ready(probe)[0]
             for _ in range(SESSION_SETUP_PROBES // 2)]
    job = write_job("inverse", {
        "stream_field": STREAM_FIELD, "queries": queries, "limit": WALK_LIMIT,
        "walks": [{"field": w["field"], "text": w["text"]} for w in walks],
        "seconds": seconds})
    try:
        elapsed, rest = sp.time_to_ready(session + [str(job)],
                                         timeout=seconds + OP_TIMEOUT_S)
        setup.append(elapsed)
    finally:
        job.unlink()
    setup += [sp.time_to_ready(probe)[0]
              for _ in range(SESSION_SETUP_PROBES // 2)]
    times, walk_sets = {}, {}
    results = [json.loads(line) for line in rest.splitlines()]
    for result in results:
        for name, dts in result["times"].items():
            times.setdefault(name, []).extend(dts)
        outputs = result["outputs"]
        for k, (text, exponent) in enumerate(outputs["solve_stream"]):
            checker.record("solve", check_particular, ref, targets[k], text,
                           exponent)
        for w in walks:
            name = f"walk_q{w['field']}"
            checker.record(name, check_walk, w["ref"], w["target"],
                           outputs[name])
            walk_sets.setdefault(name, []).append(len(outputs[name]))
    return setup, len(results), times, {"walk_sets_found": walk_sets}


WORKLOADS = {"report": workload_report, "verify": workload_verify,
             "inverse": workload_inverse}


def measure(workload, seed, seconds):
    checker = Checker()
    pin_to_one_core()
    with Spawner() as sp:
        # Unmeasured start: compiles psghost's bytecode in a fresh checkout.
        sp.time_to_ready(CLI_PROBE)
        setup, n_rounds, times, extra = WORKLOADS[workload](seed, seconds,
                                                             checker, sp)
    peak_kb = sp.maxrss_kb
    speed = CALIB_S / statistics.median(times["calib"])
    raw_setup = statistics.median(setup)
    raw_wall = sum(statistics.median(t) for name, t in times.items()
                   if name != "calib")
    metrics = {
        "setup_s": (raw_setup * speed, "s"),
        "wall_s": (raw_wall * speed, "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    details = {"rounds": n_rounds, "speed_factor": speed,
               "raw_setup_s": raw_setup, "raw_wall_s": raw_wall,
               "setup_samples": setup,
               "ops": {k: quartiles(v) for k, v in times.items()}, **extra}
    return checker, metrics, details


# -- traced layer suite ----------------------------------------------------

def suite_chains():
    chains = [("report", q) for q in REPORT_FIELDS]
    chains += [("verify", q) for q in VERIFY_FIELDS]
    chains.append(("elim-trace", str(ELIM_TRACE_P)))
    chains.append(("inverse", STREAM_FIELD))
    chains += [("walk", q) for q in WALK_FIELDS]
    chains.append(("field", "3^3"))
    return chains


def trace(seed, checker):
    ref13, targets, queries, walks = inverse_inputs(seed, TRACE_QUERIES)
    rng = np.random.default_rng(seed + 1)
    multisets, ghosts = {}, {}
    for q in VERIFY_FIELDS:
        ref = Ref(q)
        rand = rng.integers(0, ref.p, size=(VANDERMONDE_SAMPLES, ref.n))
        lines = ref.incidence.T[:ref.q + 1]
        vecs = np.vstack([rand, lines])
        multisets[q] = vecs.tolist()
        ghosts[q] = [not (v @ ref.M % ref.p).any() for v in vecs]
    job = write_job("trace", {
        "queries": queries, "limit": WALK_LIMIT, "mul_reps": MUL_REPS,
        "walks": {w["field"]: w["text"] for w in walks},
        "multisets": multisets})
    runs = []
    try:
        for chain, field in suite_chains():
            t0 = perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "layers.py"), chain, field,
                 str(job)], capture_output=True, env=child_env(), cwd=ROOT,
                timeout=OP_TIMEOUT_S)
            wall = perf_counter() - t0
            if proc.returncode:
                checker.record(f"{chain}_q{field}", exit_fault,
                               proc.returncode, proc.stderr.decode()[-300:])
                continue
            runs.append({"chain": chain, "field": field, "wall_s": wall,
                         **json.loads(proc.stdout)})
    finally:
        job.unlink()
    for run in runs:
        chain, field, out = run["chain"], run["field"], run["out"]
        key = f"{chain}_q{field}"
        if chain == "report":
            checker.record(key, check_report, Ref(field), out["json"])
        elif chain == "verify":
            checker.record(key, check_traced_verify, ghosts[field], out)
        elif chain == "elim-trace":
            checker.record(key, check_elim_trace, int(field), out["csv"])
        elif chain == "inverse":
            for k, (text, exponent) in enumerate(out["stream"]):
                checker.record(key, check_particular, ref13, targets[k], text,
                               exponent)
        elif chain == "walk":
            w = next(w for w in walks if w["field"] == field)
            checker.record(key, check_walk, w["ref"], w["target"], out["sets"])
        else:
            checker.record(key, check_products, out["products"])
    return runs


def check_traced_verify(ghosts, out):
    if out["is_ghost"] != ghosts:
        return "is_ghost disagrees with the reference power sums"
    if out["vandermonde"] != ghosts:
        return "vandermonde_check disagrees with the reference power sums"
    if out.get("elim_ok") is False:
        return "verify_procedure failed"
    return None


def check_products(n):
    return None if n > 0 else "no products counted"


def layer_metrics(runs):
    """Per-layer metrics from the spans of the suite's chains."""
    def spans(chains, name, top=False):
        for run in runs:
            if run["chain"] in chains:
                for sid, nm, parent, start, end in run["spans"]:
                    if nm == name and (parent is None or not top):
                        yield run, sid, end - start

    def total(chains, *names, top=False):
        return sum(d for n in names for _, _, d in spans(chains, n, top))

    def rate(chains, name, top=False):
        ds = [d for _, _, d in spans(chains, name, top)]
        return len(ds) / sum(ds)

    report_self = 0.0
    for run, sid, d in spans({"report"}, "ghost.ghost_report"):
        kernel = sum(s[4] - s[3] for s in run["spans"]
                     if s[2] == sid and s[1] == "linalg.left_kernel_basis")
        report_self += d - kernel
    field_run = next(r for r in runs if r["chain"] == "field")
    products = field_run["out"]["products"]
    every = {r["chain"] for r in runs}
    solver = {"inverse", "walk"}
    return {
        "cli.import_s": (statistics.median(
            d for _, _, d in spans(every, "cli.import")), "s"),
        "field.mul_per_s": (products / total({"field"}, "field.mul"), "1/s"),
        "plane.incidence_s": (total({"verify"}, "plane.incidence_matrix"), "s"),
        "plane.pencil_s": (total({"verify"}, "plane.pencil_lines",
                                 "plane.line_points", top=True), "s"),
        "poly.point_rows_s": (total({"report"}, "poly.point_image_rows",
                                    "poly.point_matrix_fp", top=True), "s"),
        "poly.parse_per_s": (rate({"inverse"}, "poly.poly_from_text"), "1/s"),
        "msets.from_vector_per_s": (rate(every, "msets.from_vector"), "1/s"),
        "msets.to_text_per_s": (rate(every, "msets.mset_to_text"), "1/s"),
        "linalg.left_kernel_s": (total({"report"}, "linalg.left_kernel_basis",
                                       top=True), "s"),
        "linalg.prefactor_s": (total(solver, "linalg.prefactor"), "s"),
        "linalg.solve_per_s": (rate({"inverse"}, "linalg.solve"), "1/s"),
        "ghost.report_self_s": (report_self, "s"),
        "ghost.is_ghost_per_s": (rate({"verify"}, "ghost.is_ghost", top=True),
                                 "1/s"),
        "ghost.vandermonde_per_s": (rate({"verify"}, "ghost.vandermonde_check",
                                         top=True), "1/s"),
        "tomo.solve_per_s": (rate({"inverse"}, "tomo.solve", top=True), "1/s"),
        "tomo.walk_s": (total({"walk"}, "tomo.enumerate_set_solutions"), "s"),
        "elim.verify_s": (total({"verify"}, "elim.verify_procedure"), "s"),
        "elim.trace_s": (total({"elim-trace"}, "elim.run_elimination",
                               "elim.to_csv"), "s"),
    }


def traced_inverse_wall(runs):
    """inverse/wall_s as the traced suite sees it, for the overhead figure.

    The traced stream's time per query, scaled to a solve_stream operation,
    plus the traced walks.
    """
    inv = next(r for r in runs if r["chain"] == "inverse")
    stream = sum(e - s for _, n, parent, s, e in inv["spans"]
                 if parent is None and n in (
                     "poly.poly_from_text", "tomo.solve", "msets.mset_to_text"))
    walks = sum(e - s for r in runs if r["chain"] == "walk"
                for _, n, _, s, e in r["spans"]
                if n == "tomo.enumerate_set_solutions")
    return stream / len(inv["out"]["stream"]) * STREAM_QUERIES + walks


# -- main --------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")
    if not (ROOT / "src" / "psghost" / "cli.py").is_file():
        print(f"error: no psghost sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.trace:
        checker = Checker()
        # Unmeasured start: compiles psghost's bytecode in a fresh checkout.
        subprocess.run(CLI_PROBE, capture_output=True, env=child_env(),
                       cwd=ROOT, timeout=OP_TIMEOUT_S, check=True)
        runs = trace(args.seed, checker)
        if checker.failed:
            metrics, details = {}, {}
        else:
            metrics = layer_metrics(runs)
            details = {"traced_inverse_wall_s": traced_inverse_wall(runs),
                       "chain_wall_s": {f"{r['chain']} {r['field']}": r["wall_s"]
                                        for r in runs}}
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(
            {"span_fields": ["id", "name", "parent", "start", "end"],
             "chains": [{k: r[k] for k in ("chain", "field", "wall_s", "spans")}
                        for r in runs]}))
        details["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        checker, metrics, details = measure(args.workload, args.seed,
                                            args.seconds)
    details.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   wrong=checker.wrong)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
     ).write_text(json.dumps(details, indent=1))
    print(json.dumps(details))
    print(json.dumps({
        "correct": not checker.wrong,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(1)
