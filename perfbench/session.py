"""Long-lived psghost library session: the inverse workload's operations.

    python3 perfbench/session.py --warm-only
    python3 perfbench/session.py JOB.json

Both forms import psghost, warm the caches of every session field
(ghost_report and the solver factorization), print "ready" and flush.
--warm-only then exits; that is one set-up sample.  With a job file the
session then runs whole rounds of the job's operations until the next round
would end after the job's "seconds", rotating the order of the operations
each round and timing refgf.calibrate() before each operation and between
chunks of the query stream, and prints one JSON line per round with its
timings and outputs.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from psghost import msets, poly, tomo
from psghost.field import FieldSpec
from psghost.ghost import ghost_report

import refgf

SESSION_FIELDS = ("13", "5", "7")


def warm() -> dict[str, FieldSpec]:
    specs = {}
    for text in SESSION_FIELDS:
        spec = FieldSpec.parse(text)
        ghost_report(spec)
        tomo.solve(poly.HomPoly.zero(spec))
        specs[text] = spec
    return specs


STREAM_CHUNKS = 4  # the stream is timed in chunks, calibrating in between


def timed_calibration(times) -> None:
    t = perf_counter()
    refgf.calibrate()
    times["calib"].append(perf_counter() - t)


def solve_stream(spec, queries, times):
    """Parse, solve and format every query; (particular text, exponent).

    The operation's time, the sum of its chunks' times, goes to
    times["solve_stream"]; a calibration runs between chunks.
    """
    out, seconds = [], 0.0
    size = -(-len(queries) // STREAM_CHUNKS)
    for start in range(0, len(queries), size):
        if start:
            timed_calibration(times)
        t = perf_counter()
        for text in queries[start:start + size]:
            coset = tomo.solve(poly.poly_from_text(text, spec))
            particular = coset.particular
            out.append((None if particular is None
                        else msets.mset_to_text(particular), coset.exponent))
        seconds += perf_counter() - t
    times["solve_stream"] = [seconds]
    return out


def walk(G, limit, name, times):
    """The bounded set walk, as `# mset` texts; its time goes to times[name]."""
    t = perf_counter()
    sols = tomo.enumerate_set_solutions(G, limit)
    times[name] = [perf_counter() - t]
    return [msets.mset_to_text(S) for S in sols]


def main(argv: list[str]) -> int:
    specs = warm()
    print("ready", flush=True)
    if argv[1] == "--warm-only":
        return 0
    with open(argv[1]) as f:
        job = json.load(f)
    stream_spec = specs[job["stream_field"]]
    ops = [("solve_stream",
            lambda times: solve_stream(stream_spec, job["queries"], times))]
    for w in job["walks"]:
        name = f"walk_q{w['field']}"
        G = poly.poly_from_text(w["text"], specs[w["field"]])
        ops.append((name, lambda times, G=G, name=name:
                    walk(G, job["limit"], name, times)))
    start, last, rounds = perf_counter(), 0.0, 0
    while rounds == 0 or perf_counter() - start + last <= job["seconds"]:
        t_round = perf_counter()
        times, outputs = {"calib": []}, {}
        k = rounds % len(ops)
        for name, fn in ops[k:] + ops[:k]:
            timed_calibration(times)
            outputs[name] = fn(times)
        last = perf_counter() - t_round
        rounds += 1
        # One line per round, so that memory does not grow with the rounds.
        print(json.dumps({"times": times, "outputs": outputs}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
