"""Command-line frontend.

Subcommands: psp, eval, ghost-report, solve, verify, elim-trace.
Exit codes: 0 success, 1 verification failure, 2 inconsistent solve,
3 input error (bad flags, unreadable or malformed input, an unwritable
--out file or stdout, a file header of the other kind or naming another
field than --field, a verify suite or an elim-trace asked for on a field
it does not cover), 4 internal error.  `elim-trace` writes each state as
it is made, so its errors may follow partial output.  Output is
deterministic given the same flags, `verify`'s --seed among them, apart
from the per-suite seconds in `verify --format json`.

Each command imports the modules it runs when it runs, so a cold process
loads only those: `elim-trace` runs without numpy, and only `solve`
loads `tomo`.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .field import FieldSpec

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INCONSISTENT = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4

# Largest p `elim-trace` accepts.  It prints every state of the interior
# block, one at a time, and its output grows about as p^5: 179 MiB of CSV
# at p = 37, 347 MiB at p = 41.
MAX_ELIM_TRACE_P = 37


class InputError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """Reports usage errors as input errors (exit 3), not argparse's exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _read(path):
    """The text of a file or of stdin ("-"): its bytes as strict UTF-8."""
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as f:
                data = f.read()
    except OSError as e:
        raise InputError(str(e)) from e
    return data.decode("utf-8")


def _write(path, text):
    """Write `text`, a string or strings written as they come."""
    chunks = (text,) if isinstance(text, str) else text
    if path is None or path == "-":
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except OSError as e:
            # What stdout still buffers goes nowhere, not into a second
            # error when the interpreter flushes it at exit.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise InputError(f"cannot write to stdout: {e}") from e
        return
    try:
        with open(path, "w") as f:
            f.writelines(chunks)
    except OSError as e:
        raise InputError(str(e)) from e


def _json_lines(chunks):
    """The pieces of a JSON document, then the newline that ends it."""
    yield from chunks
    yield "\n"


def _blocks(head, *groups):
    """`head`, then the texts of each group in turn, a blank line between
    any two texts."""
    yield head
    sep = ""
    for texts in groups:
        for text in texts:
            yield sep + text
            sep = "\n"


def _field(args) -> FieldSpec:
    try:
        return FieldSpec.parse(args.field)
    except ValueError as e:
        raise InputError(f"bad field {args.field!r}: {e}") from e


def cmd_psp(args) -> int:
    from . import msets, poly
    spec = _field(args)
    try:
        S = msets.mset_from_text(_read(args.infile), spec)
    except ValueError as e:
        raise InputError(str(e)) from e
    G = msets.phi(S)
    if args.format == "json":
        import json
        terms = {f"{i} {j}": c for i, j, c in poly.nonzero_terms(G)}
        _write(args.out, json.dumps({"q": str(spec), "terms": terms},
                                    indent=2) + "\n")
    else:
        _write(args.out, poly.poly_to_text(G))
    return EXIT_OK


def cmd_eval(args) -> int:
    from . import plane, poly
    spec = _field(args)
    try:
        G = poly.poly_from_text(_read(args.infile), spec)
    except ValueError as e:
        raise InputError(str(e)) from e
    if args.line is not None:
        try:
            poly.check_digits(args.line)
            uvw = args.line.split()
            if len(uvw) != 3:
                raise ValueError(f"expected 'u v w', got {args.line!r}")
            line = plane.ProjLine.from_encodings(spec, *map(int, uvw))
        except ValueError as e:
            raise InputError(f"bad line {args.line!r}: {e}") from e
        rows = [(str(line), poly.evaluate(G, line))]
        if args.format != "json":
            _write(args.out, f"{rows[0][1]}\n")
            return EXIT_OK
    else:
        T = plane.canonical_triples(spec)
        rows = zip(map(" ".join, T.astype(str)),
                   poly.line_values(G, T).tolist())
    if args.format == "json":
        import json
        _write(args.out, json.dumps(
            {"q": str(spec), "values": {k: v for k, v in rows}},
            indent=2) + "\n")
    else:
        _write(args.out, "".join(f"{k} : {v}\n" for k, v in rows))
    return EXIT_OK


def cmd_ghost_report(args) -> int:
    from . import ghost
    spec = _field(args)
    report = ghost.ghost_report(spec)
    if args.format == "text":
        count = report.ghost_count() or f"{spec.p}^{report.ghost_exponent}"
        lines = [f"q = {spec.q} (p = {spec.p}, h = {spec.h})",
                 f"rank = {report.rank_phi}",
                 f"ghost exponent = {report.ghost_exponent}",
                 f"ghost count = {count}",
                 f"note: {report.note}"]
        _write(args.out, "\n".join(lines) + "\n")
    else:
        _write(args.out, _json_lines(report.json_chunks()))
    return EXIT_OK


def cmd_solve(args) -> int:
    from . import ghost, msets, poly, tomo
    spec = _field(args)
    if args.limit is not None and not args.sets:
        raise InputError("--limit bounds the set search; it needs --sets")
    limit = 1000 if args.limit is None else args.limit
    if limit <= 0:
        raise InputError(f"--limit must be positive, got {limit}")
    try:
        G = poly.poly_from_text(_read(args.infile), spec)
    except ValueError as e:
        raise InputError(str(e)) from e
    coset = tomo.solve(G)
    if coset.particular is None:
        _write(args.out, "inconsistent: polynomial not in the image\n")
        return EXIT_INCONSISTENT
    if args.sets:
        # One set beyond the limit tells a whole walk of exactly `limit`
        # sets from a cut one.
        sols = tomo.enumerate_set_solutions(G, limit + 1)
        complete = tomo.set_search_exhaustive(coset) and len(sols) <= limit
        sols = sols[:limit]
        texts = map(msets.mset_to_text, sols)
        if args.format == "json":
            _write(args.out, _json_lines(ghost.json_chunks(
                {"q": str(spec), "complete": complete}, "solutions", texts)))
        else:
            _write(args.out, _blocks(f"# {len(sols)} plain-set solutions, "
                                     f"complete: {str(complete).lower()}\n",
                                     texts))
        return EXIT_OK
    particular = msets.mset_to_text(coset.particular)
    kernel = msets.mset_texts(spec, coset.kernel)
    if args.format == "json":
        _write(args.out, _json_lines(ghost.json_chunks(
            {"q": str(spec), "particular": particular,
             "exponent": coset.exponent}, "kernel_basis", kernel)))
    else:
        _write(args.out, _blocks(
            f"# particular + {len(coset.kernel)} kernel basis elements "
            f"(coset size {spec.p}^{coset.exponent})\n", [particular], kernel))
    return EXIT_OK


# Each suite appends a message per failed check to `failures` and returns
# the number of multisets (or, for elim, closed-form cells) it checked.
# Suites whose claim lives on some fields only are listed in _off_field.

def _suite_pencils(spec, rng, failures):
    from . import ghost, plane
    n = spec.q**2 + spec.q + 1
    labels, stack = [], []
    for P in [plane.ProjPoint(spec, row) for row in (0, n // 2, n - 1)]:
        for lam in range(spec.p**(spec.h - 1) + 1):
            labels.append(f"partial pencil lam={lam} at {P}")
            stack.append(ghost.partial_pencil_ghost(P, lam, spec).mult)
        lam = 0
        while 1 <= spec.q - lam * spec.p:
            labels.append(f"punctured pencil lam={lam} at {P}")
            stack.append(ghost.punctured_pencil_ghost(P, lam, spec).mult)
            lam += 1
    for l in [plane.ProjLine(spec, row) for row in range(5)]:
        labels.append(f"line ghost {l}")
        stack.append(ghost.line_ghost(l, spec).mult)
    # each ghost by both characterizations: a zero power sum, and every
    # line meeting it in the same count mod p
    ok = (ghost.is_ghost_stack(spec, stack)
          & ghost.vandermonde_check_stack(spec, stack)).tolist()
    failures.extend(label for label, good in zip(labels, ok) if not good)
    return len(stack)


def _suite_complements(spec, rng, failures):
    # The full plane minus a basis element B, mod p.  ghost_report has
    # checked that each B is a ghost, and a power sum is linear in the
    # multiplicities, so each complement is a ghost iff the plane is one.
    from . import ghost
    k = len(ghost.ghost_report(spec).kernel)
    if not ghost.is_ghost_stack(spec, [[1] * (spec.q**2 + spec.q + 1)])[0]:
        failures.extend(["complement of a kernel basis element"] * k)
    return k


def _suite_vandermonde(spec, rng, failures):
    from . import ghost, msets
    V = msets.random_residues(rng, spec.p, (200, spec.q**2 + spec.q + 1))
    a = ghost.is_ghost_stack(spec, V).tolist()
    b = ghost.vandermonde_check_stack(spec, V).tolist()
    failures.extend(f"is_ghost {x} != vandermonde_check {y}"
                    for x, y in zip(a, b) if x != y)
    return len(V)


def _suite_union_counterexample(spec, rng, failures):
    from . import ghost, msets, plane, poly
    l1 = plane.ProjLine.from_encodings(spec, 1, 0, 0)  # X = 0
    l2 = plane.ProjLine.from_encodings(spec, 0, 0, 1)  # Z = 0
    pts = set(plane.line_points(l1, spec)) | set(plane.line_points(l2, spec))
    S = msets.PointMultiset.from_points(spec, pts)
    G = msets.phi(S)
    Y = poly.HomPoly.from_terms(spec, {(0, 1): 1})
    if G != Y or ghost.is_ghost(S):
        failures.append("set-union counterexample did not reproduce")
    return 1


def _suite_elim(spec, rng, failures):
    from . import elim
    report = elim.verify_procedure(spec.p)
    if not report.ok:
        failures.extend(report.discrepancies)
    return report.cells_checked


# Every suite by name, in the order `--suite all` runs them.
SUITES = {fn.__name__.removeprefix("_suite_"): fn
          for fn in (_suite_pencils, _suite_complements, _suite_vandermonde,
                     _suite_union_counterexample, _suite_elim)}


def _off_field(name, spec):
    """Why suite `name` has nothing to check over `spec`, or None."""
    if name == "union_counterexample" and spec.q != 2:
        return "the set-union counterexample lives at q = 2"
    if name == "elim" and (spec.h != 1 or spec.p < 3):
        return "the elimination proof exists for prime fields p >= 3 only"
    return None


def cmd_verify(args) -> int:
    import random
    import time
    spec = _field(args)
    if args.suite != "all" and (why := _off_field(args.suite, spec)):
        raise InputError(f"--suite {args.suite} at q = {spec}: {why}")
    rng = random.Random(args.seed)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failures: list[str] = []
    results = []
    for name in names:
        before = len(failures)
        t0 = time.perf_counter()
        # `--suite all` passes over a suite off its fields, checking nothing
        checked = (0 if _off_field(name, spec)
                   else SUITES[name](spec, rng, failures))
        results.append({
            "name": name,
            "status": "pass" if len(failures) == before else "FAIL",
            "checked": checked,
            "seconds": round(time.perf_counter() - t0, 6),
            "failures": failures[before:],
        })
    if args.format == "json":
        import json
        _write(args.out, json.dumps({"q": str(spec), "seed": args.seed,
                                     "suites": results}, indent=2) + "\n")
    else:
        report_lines = [f"{r['name']}: {r['status']}" for r in results]
        report_lines += [f"  {f}" for f in failures]
        _write(args.out, "\n".join(report_lines) + "\n")
    return EXIT_OK if not failures else EXIT_VERIFY_FAIL


def cmd_elim_trace(args) -> int:
    if args.format != "text":
        raise InputError(f"elim-trace writes CSV only, not --format "
                         f"{args.format}")
    spec = _field(args)
    if why := _off_field("elim", spec):
        raise InputError(f"elim-trace at q = {spec}: {why}")
    if spec.p > MAX_ELIM_TRACE_P:
        raise InputError(f"elim-trace: p = {spec.p} exceeds "
                         f"{MAX_ELIM_TRACE_P}, the largest trace it prints "
                         f"(output grows as p^5)")
    from . import elim
    _write(args.out, ((f"\n# step {s.n}\n" if s.n else "# step 0\n")
                      + s.to_csv() for s in elim.elimination_states(spec.p)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="psghost",
        description="Power sum polynomials and ghosts in PG(2,q)")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, infile=False):
        sp.add_argument("--field", required=True,
                        help='field order, e.g. "7" or "3^2"')
        sp.add_argument("--out", default=None, help="output file (default stdout)")
        sp.add_argument("--format", choices=["text", "json"],
                        default="text")
        if infile:
            sp.add_argument("--in", dest="infile", required=True,
                            help='input file ("-" for stdin)')

    sp = sub.add_parser("psp", help="power sum polynomial of a multiset file")
    common(sp, infile=True)
    sp.set_defaults(fn=cmd_psp)

    sp = sub.add_parser("eval", help="evaluate a polynomial file at lines")
    common(sp, infile=True)
    sp.add_argument("--line", default=None, help='"u v w" encodings')
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("ghost-report", help="rank, exponent, kernel basis")
    common(sp)
    sp.set_defaults(fn=cmd_ghost_report)

    sp = sub.add_parser("solve", help="all multisets with a given polynomial")
    common(sp, infile=True)
    sp.add_argument("--sets", action="store_true",
                    help="enumerate plain-set solutions")
    sp.add_argument("--limit", type=int, help="sets to print (default 1000)")
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("verify", help="run a verification suite")
    common(sp)
    sp.add_argument("--suite", default="all", choices=[*SUITES, "all"])
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("elim-trace", help="dump elimination step matrices")
    common(sp)
    sp.set_defaults(fn=cmd_elim_trace)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:
        print(f"error: internal: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


def run(argv=None) -> int:
    """Process entry point: `main`, then freeze the collector's heap.

    Once the answer is written the process only exits, and CPython's
    shutdown would otherwise run one cyclic collection over every object
    alive, numpy's import heap included (about 20 ms a command).  Frozen
    objects are skipped.  `main` stays free of this, so that in-process
    callers keep collecting their own garbage.
    """
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
