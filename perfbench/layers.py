"""One traced chain of psghost layer calls, run in a fresh process.

    python3 perfbench/layers.py CHAIN FIELD JOB.json

CHAIN is report, verify, elim-trace, inverse, walk or field.  The chain
imports psghost.cli, replaces the public functions of each module with
wrappers that record a span (id, name, parent, start, end) per call, and then
calls the layers in the order the matching command would, so that each span
finds the cached results of earlier layers in place and measures its own
work.  Calls that one psghost module makes into another through the module
attribute (ghost_report -> linalg.left_kernel_basis, tomo.solve ->
PrefactoredLeftSystem) become child spans.  Spans are kept in memory and
printed as one JSON line at the end, with the outputs the caller checks.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter


class Tracer:
    """In-memory spans: [id, name, parent id or None, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        rec = [len(self.spans), name, self._stack[-1] if self._stack else None,
               perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            return fn(*args, **kwargs)
        finally:
            rec[4] = perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr, name, static=False):
        orig = getattr(owner, attr)

        def traced(*args, **kwargs):
            return self.call(name, orig, *args, **kwargs)
        setattr(owner, attr, staticmethod(traced) if static else traced)


def install(tr: Tracer):
    from psghost import elim, ghost, linalg, msets, plane, poly, tomo
    public = {
        plane: ["enumerate_points", "enumerate_lines", "pencil_lines",
                "line_points", "incidence_matrix"],
        poly: ["point_image_rows", "point_matrix_fp", "poly_from_text"],
        msets: ["mset_to_text"],
        linalg: ["left_kernel_basis"],
        ghost: ["ghost_report", "is_ghost", "vandermonde_check"],
        tomo: ["solve", "enumerate_set_solutions"],
        elim: ["verify_procedure", "run_elimination"],
    }
    for mod, names in public.items():
        layer = mod.__name__.rsplit(".", 1)[1]
        for attr in names:
            tr.wrap(mod, attr, f"{layer}.{attr}")
    tr.wrap(linalg.PrefactoredLeftSystem, "solve", "linalg.solve")
    tr.wrap(linalg, "PrefactoredLeftSystem", "linalg.prefactor")
    tr.wrap(elim.StepState, "to_csv", "elim.to_csv")
    tr.wrap(msets.PointMultiset, "from_vector", "msets.from_vector",
            static=True)


def chain_report(tr, spec, job):
    from psghost import ghost, linalg, msets, plane, poly
    plane.enumerate_points(spec)
    poly.point_image_rows(spec)
    M = poly.point_matrix_fp(spec)
    linalg.left_kernel_basis(M, spec.p)
    report = ghost.ghost_report(spec)
    for S in report.kernel_basis:
        msets.mset_to_text(S)
    return {"json": tr.call("ghost.to_json", report.to_json)}


def chain_verify(tr, spec, job):
    from psghost import elim, ghost, plane, poly
    from psghost.msets import PointMultiset
    points = plane.enumerate_points(spec)
    plane.enumerate_lines(spec)
    for P in (points[0], points[len(points) // 2], points[-1]):
        for line in plane.pencil_lines(P, spec):
            plane.line_points(line, spec)
    poly.point_image_rows(spec)
    poly.point_matrix_fp(spec)
    ghost.ghost_report(spec)
    plane.incidence_matrix(spec)
    samples = [PointMultiset.from_vector(spec, v)
               for v in job["multisets"][str(spec)]]
    out = {"is_ghost": [ghost.is_ghost(S) for S in samples],
           "vandermonde": [ghost.vandermonde_check(S) for S in samples]}
    if spec.h == 1 and spec.p >= 3:
        out["elim_ok"] = elim.verify_procedure(spec.p).ok
    return out


def chain_elim_trace(tr, spec, job):
    from psghost import elim
    states = elim.run_elimination(spec.p)
    return {"csv": "\n".join(f"# step {s.n}\n{s.to_csv()}" for s in states)}


def _warm_solver(spec):
    from psghost import ghost, poly, tomo
    poly.point_image_rows(spec)
    poly.point_matrix_fp(spec)
    ghost.ghost_report(spec)
    tomo.solve(poly.HomPoly.zero(spec))


def chain_inverse(tr, spec, job):
    from psghost import msets, poly, tomo
    _warm_solver(spec)
    out = []
    for text in job["queries"]:
        coset = tomo.solve(poly.poly_from_text(text, spec))
        out.append([msets.mset_to_text(coset.particular), coset.exponent])
    return {"stream": out}


def chain_walk(tr, spec, job):
    from psghost import msets, poly, tomo
    _warm_solver(spec)
    G = poly.poly_from_text(job["walks"][str(spec)], spec)
    sols = tomo.enumerate_set_solutions(G, job["limit"])
    return {"sets": [msets.mset_to_text(S) for S in sols]}


def chain_field(tr, spec, job):
    els = spec.elements()

    def products():
        for _ in range(job["mul_reps"]):
            for a in els:
                for b in els:
                    a * b
        return job["mul_reps"] * len(els) ** 2
    return {"products": tr.call("field.mul", products)}


CHAINS = {"report": chain_report, "verify": chain_verify,
          "elim-trace": chain_elim_trace, "inverse": chain_inverse,
          "walk": chain_walk, "field": chain_field}


def main(argv: list[str]) -> int:
    chain, field, job_path = argv[1:4]
    with open(job_path) as f:
        job = json.load(f)
    tr = Tracer()
    tr.call("cli.import", importlib.import_module, "psghost.cli")
    install(tr)
    from psghost.field import FieldSpec
    out = CHAINS[chain](tr, FieldSpec.parse(field), job)
    print(json.dumps({"spans": tr.spans, "out": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
