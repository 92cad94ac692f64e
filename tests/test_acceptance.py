"""Acceptance suite: one test per criterion, printing a pass/fail line each.

All arithmetic is exact, so comparisons are exact equalities; the only
tolerances are the stated wall-clock budgets.
"""

import itertools
import random
import time

import numpy as np
import pytest

from psghost import elim, field, tomo
from psghost.field import FieldSpec
from psghost.ghost import (ghost_report, is_ghost, is_ghost_stack, line_ghost,
                           partial_pencil_ghost, punctured_pencil_ghost,
                           vandermonde_check_stack)
from psghost.linalg import mul_mod
from psghost.msets import (PointMultiset, complement, minverse, msum, phi,
                           random_residues)
from psghost.plane import (ProjLine, ProjPoint, canonical_triples,
                           enumerate_lines, enumerate_points, line_points)
from psghost.poly import HomPoly, line_values, power_sum

GF2 = FieldSpec(2)
Z2 = HomPoly.from_terms(GF2, {(1, 0): 1})
Y2 = HomPoly.from_terms(GF2, {(0, 1): 1})
ZERO2 = HomPoly.zero(GF2)


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def mset(spec, *encs):
    return PointMultiset.from_points(
        spec, [ProjPoint.from_encodings(spec, *e) for e in encs])


def best_of_5(check):
    """check()'s verdict on each of 5 runs, and the least wall time: one
    sample measures the machine's load as much as the code."""
    ok, best = True, float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        ok &= check()
        best = min(best, time.perf_counter() - t0)
    return ok, best


def warm(spec):
    # populate per-field caches and numpy dispatch before timing
    phi(PointMultiset.from_points(spec, []))


def test_criterion_1_fano_reproduction():
    warm(GF2)
    sets = [mset(GF2, (0, 0, 1)),
            mset(GF2, (1, 0, 1), (1, 0, 0)),
            mset(GF2, (1, 0, 0), (0, 1, 0), (1, 1, 1))]
    ok, elapsed = best_of_5(lambda: all(phi(S) == Z2 for S in sets))
    report("1 fano reproduction", ok and elapsed < 0.001)


def test_criterion_2_set_union_counterexample():
    warm(GF2)
    l1 = ProjLine.from_encodings(GF2, 1, 0, 0)
    l2 = ProjLine.from_encodings(GF2, 0, 0, 1)
    union = mset(GF2, (0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 0))
    ok, elapsed = best_of_5(lambda: (
        phi(union) == Y2
        and phi(PointMultiset.from_points(GF2, line_points(l1, GF2))) == ZERO2
        and phi(PointMultiset.from_points(GF2, line_points(l2, GF2))) == ZERO2))
    report("2 set-union counterexample", ok and elapsed < 0.001)


def test_criterion_3_rank_theorem():
    expected = {2: 3, 3: 6, 5: 15, 7: 28, 11: 66, 13: 91}
    t0 = time.perf_counter()
    ok = all(ghost_report(FieldSpec(p)).rank_phi == r
             for p, r in expected.items())
    elapsed = time.perf_counter() - t0
    report("3 rank theorem", ok and elapsed < 5.0)


def test_criterion_4_ghost_count_theorem():
    ok = all(ghost_report(FieldSpec(p)).ghost_exponent
             == p * (p + 1) // 2 + 1 for p in (2, 3, 5, 7, 11, 13))
    exhaustive = sum(is_ghost(PointMultiset(GF2, bits))
                     for bits in itertools.product((0, 1), repeat=7))
    report("4 ghost count theorem", ok and exhaustive == 16)


def test_criterion_5_example_replay_p7():
    t0 = time.perf_counter()
    states = elim.run_elimination(7)
    row = {(s.n, label): r for s in states
           for label, r in zip(s.row_labels, s.matrix)}
    anchors = (row[1, (1, 2)][-6:] == [3, 3, 3, 7, 7, 15]
               and row[2, (1, 3)][-6:] == [1, 1, 1, 6, 6, 25]
               and row[3, (1, 4)][-3:] == [1, 1, 10]
               and row[4, (1, 5)][-3:] == [0, 0, 1])
    # full cell-by-cell comparison against the closed forms
    cells_ok = True
    for state in states[1:]:
        cols = state.col_labels
        for (b, c), row in zip(state.row_labels, state.matrix):
            if c < state.n + 1:
                continue
            factor = elim.closed_form_factor(state.n, c, cols)
            for (lam, _), f, x in zip(cols, factor, row):
                if b**lam * f != x:
                    cells_ok = False
    elapsed = time.perf_counter() - t0
    report("5 example replay p=7", anchors and cells_ok and elapsed < 1.0)


def test_criterion_6_closed_form_vs_elimination():
    t0 = time.perf_counter()
    ok = all(elim.verify_procedure(p).ok for p in (3, 5, 7, 11, 13))
    elapsed = time.perf_counter() - t0
    report("6 closed form vs elimination", ok and elapsed < 60.0)


def line_value_digits(spec):
    """(n, h*n) matrix over F_p whose row P holds the base-p digits of
    line_values(power_sum(P), T) at every line of T = canonical_triples.
    Power sums and their values are F_p-linear in the multiplicities, so a
    stack times it mod p is zero in a row iff that row's power sum is zero
    at every line."""
    T = canonical_triples(spec)
    return np.stack([field.digits(spec, line_values(
        power_sum(PointMultiset(spec, e)), T)).ravel()
        for e in np.eye(len(T), dtype=np.uint8)])


def test_criterion_7_characterization_equivalence():
    # every plain set at q = 2 and q = 3, and 10 000 random multisets per
    # field drawn as rng.randrange(p) per entry, checked as one stack each
    stacks = [(GF2, np.array(list(itertools.product((0, 1), repeat=7)))),
              (FieldSpec(3),
               np.array(list(itertools.product((0, 1), repeat=13))))]
    for p, h in [(5, 1), (7, 1), (2, 3), (3, 2)]:
        spec = FieldSpec(p, h)
        n = spec.q**2 + spec.q + 1
        stacks.append((spec, random_residues(random.Random(1000 + spec.q), p,
                                             (10_000, n))))
    mismatches = 0
    for spec, V in stacks:
        a = is_ghost_stack(spec, V)
        at_lines = mul_mod(V, line_value_digits(spec), spec.p)
        mismatches += int(np.count_nonzero(
            (a != vandermonde_check_stack(spec, V))
            | (a != ~at_lines.any(axis=1))))
    report("7 characterization equivalence", mismatches == 0)


def test_criterion_8_constructor_theorems():
    failures = 0
    for p, h in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]:
        spec = FieldSpec(p, h)
        full = PointMultiset(spec, (1,) * (spec.q**2 + spec.q + 1))
        P = enumerate_points(spec)[0]
        ghosts = [line_ghost(enumerate_lines(spec)[0], spec)]
        for lam in range(p**(h - 1) + 1):
            ghosts.append(partial_pencil_ghost(P, lam, spec))
        lam = 0
        while spec.q - lam * p >= 1:
            ghosts.append(punctured_pencil_ghost(P, lam, spec))
            lam += 1
        for S in ghosts:
            if not is_ghost(S) or not is_ghost(complement(S, full)):
                failures += 1
    report("8 constructor theorems", failures == 0)


def test_criterion_9_inverse_round_trip():
    ok = True
    for p in (2, 3, 5, 7):
        spec = FieldSpec(p)
        n = spec.q**2 + spec.q + 1
        rng = random.Random(2000 + p)
        for k in range(1000):
            S = PointMultiset.from_vector(
                spec, [rng.randrange(p) for _ in range(n)])
            coset = tomo.solve(phi(S))
            if (coset.particular is None
                    or not is_ghost(msum(S, minverse(coset.particular)))):
                ok = False
                break
            if k % 100 == 0:
                # two coset samples differ by a ghost
                other = msum(coset.particular,
                             ghost_report(spec).kernel_basis[0])
                if not is_ghost(msum(S, minverse(other))):
                    ok = False
    brute = sum(1 for bits in itertools.product((0, 1), repeat=7)
                if phi(PointMultiset(GF2, bits)) == Z2)
    coset_filter = len(tomo.enumerate_set_solutions(Z2, 10_000))
    report("9 inverse round trip", ok and brute == coset_filter)


def test_criterion_10_h_greater_one_experiment():
    ok = True
    for p, h in [(2, 2), (2, 3), (3, 2)]:
        spec = FieldSpec(p, h)
        q = spec.q
        n = q * q + q + 1
        r = ghost_report(spec)
        d = r.rank_phi
        if not (0 < d <= min(n, h * q * (q + 1) // 2)):
            ok = False
        if r.ghost_exponent != n - d:
            ok = False
        if not all(is_ghost(S) for S in r.kernel_basis):
            ok = False
        if r.note != "computed, no literature value":
            ok = False
    report("10 h>1 experiment", ok)
