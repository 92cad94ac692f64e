import itertools
import json
import random

import numpy as np
import pytest

from psghost.field import FieldSpec
from psghost.ghost import (all_line_evaluations_zero, ghost_report, is_ghost,
                           line_ghost, partial_pencil_ghost,
                           punctured_pencil_ghost, vandermonde_check)
from psghost.msets import PointMultiset, complement, minverse, msum, phi
from psghost.plane import ProjLine, ProjPoint, enumerate_lines, enumerate_points
from psghost.poly import HomPoly, evaluate

GF2 = FieldSpec.of(2)

CONSTRUCTOR_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


def test_is_ghost_empty_and_full():
    assert is_ghost(PointMultiset.empty(GF2))
    assert is_ghost(PointMultiset.full_plane(GF2))


def test_single_point_not_ghost():
    S = PointMultiset.from_points(GF2, [ProjPoint.from_encodings(GF2, 0, 0, 1)])
    assert not is_ghost(S)


@pytest.mark.parametrize("p,h", CONSTRUCTOR_FIELDS)
def test_line_ghosts(p, h):
    spec = FieldSpec.of(p, h)
    for l in enumerate_lines(spec)[:: max(1, len(enumerate_lines(spec)) // 7)]:
        S = line_ghost(l, spec)
        assert S.size == spec.q + 1
        assert is_ghost(S)


@pytest.mark.parametrize("p,h", CONSTRUCTOR_FIELDS)
def test_partial_pencil_ghosts_all_legal_lambda(p, h):
    spec = FieldSpec.of(p, h)
    P = enumerate_points(spec)[0]
    for lam in range(p**(h - 1) + 1):
        S = partial_pencil_ghost(P, lam, spec)
        assert is_ghost(S)
    with pytest.raises(ValueError):
        partial_pencil_ghost(P, p**(h - 1) + 1, spec)


def test_partial_pencil_lambda0_is_line():
    S = partial_pencil_ghost(enumerate_points(GF2)[0], 0, GF2)
    assert S.size == 3


def test_partial_pencil_full_is_plane():
    spec = FieldSpec.of(3)
    S = partial_pencil_ghost(enumerate_points(spec)[0], 1, spec)
    assert S == PointMultiset.full_plane(spec)


@pytest.mark.parametrize("p,h", CONSTRUCTOR_FIELDS)
def test_punctured_pencil_ghosts(p, h):
    spec = FieldSpec.of(p, h)
    P = enumerate_points(spec)[1]
    lam = 0
    while spec.q - lam * p >= 1:
        S = punctured_pencil_ghost(P, lam, spec)
        assert is_ghost(S)
        assert S.multiplicity(P) == 0
        lam += 1


@pytest.mark.parametrize("p,h", CONSTRUCTOR_FIELDS)
def test_complements_of_constructed_ghosts(p, h):
    spec = FieldSpec.of(p, h)
    full = PointMultiset.full_plane(spec)
    P = enumerate_points(spec)[0]
    ghosts = [line_ghost(enumerate_lines(spec)[0], spec),
              partial_pencil_ghost(P, 0, spec),
              punctured_pencil_ghost(P, 0, spec)]
    for S in ghosts:
        assert is_ghost(complement(S, full))


def test_subgroup_closure():
    spec = FieldSpec.of(3)
    report = ghost_report(spec)
    for A, B in itertools.combinations(report.kernel_basis[:5], 2):
        assert is_ghost(msum(A, B))
    for A in report.kernel_basis:
        assert is_ghost(minverse(A))


def test_union_counterexample():
    # point-set union of the lines X=0 and Z=0 in PG(2,2) maps to Y
    l1 = ProjLine.from_encodings(GF2, 1, 0, 0)
    l2 = ProjLine.from_encodings(GF2, 0, 0, 1)
    from psghost.plane import line_points
    pts = set(line_points(l1, GF2)) | set(line_points(l2, GF2))
    assert {P.encodings() for P in pts} == {
        (0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 0)}
    S = PointMultiset.from_points(GF2, pts)
    assert phi(S) == HomPoly.from_terms(GF2, {(0, 1): 1})
    assert not is_ghost(S)
    assert is_ghost(line_ghost(l1, GF2)) and is_ghost(line_ghost(l2, GF2))


def test_vandermonde_check_examples():
    l = enumerate_lines(GF2)[0]
    assert vandermonde_check(line_ghost(l, GF2))
    spec3 = FieldSpec.of(3)
    single = PointMultiset.from_points(
        spec3, [ProjPoint.from_encodings(spec3, 0, 0, 1)])
    assert not vandermonde_check(single)


def test_vandermonde_matches_kernel_element_q5():
    spec = FieldSpec.of(5)
    report = ghost_report(spec)
    rng = random.Random(13)
    S = report.kernel_basis[rng.randrange(len(report.kernel_basis))]
    assert vandermonde_check(S)


def test_characterization_equivalence_exhaustive_q2():
    for bits in itertools.product((0, 1), repeat=7):
        S = PointMultiset(GF2, bits)
        a = is_ghost(S)
        assert a == vandermonde_check(S)
        assert a == all_line_evaluations_zero(S)
        # direct polynomial evaluation on all lines agrees
        G = phi(S)
        assert a == all(evaluate(G, l).is_zero() for l in enumerate_lines(GF2))


@pytest.mark.parametrize("p,h", [(5, 1), (7, 1), (2, 3), (3, 2)])
def test_characterization_equivalence_randomized(p, h):
    spec = FieldSpec.of(p, h)
    n = spec.q**2 + spec.q + 1
    rng = random.Random(17)
    report = ghost_report(spec)
    samples = [PointMultiset.from_vector(spec, [rng.randrange(p) for _ in range(n)])
               for _ in range(50)]
    samples += list(report.kernel_basis[:5])  # make sure ghosts are hit
    for S in samples:
        a = is_ghost(S)
        assert a == vandermonde_check(S)
        assert a == all_line_evaluations_zero(S)


def test_ghost_line_intersection_identity():
    # a ghost meets every line in |S| mod p points
    spec = FieldSpec.of(3)
    report = ghost_report(spec)
    from psghost.plane import line_points
    for S in report.kernel_basis[:4]:
        for l in enumerate_lines(spec):
            m = sum(S.multiplicity(P) for P in line_points(l, spec))
            assert m % 3 == S.size % 3


def test_ghost_report_p2():
    r = ghost_report(GF2)
    assert r.rank_phi == 3
    assert r.ghost_exponent == 4
    assert r.ghost_count() == 16
    assert len(r.kernel_basis) == 4


def test_ghost_report_p7():
    r = ghost_report(FieldSpec.of(7))
    assert r.rank_phi == 28
    assert r.ghost_exponent == 29


def test_ghost_report_h_greater_one_labeled():
    r = ghost_report(FieldSpec.of(2, 2))
    assert r.note == "computed, no literature value"
    assert 0 < r.rank_phi <= min(21, 2 * 10)
    assert r.ghost_exponent == 21 - r.rank_phi


def test_ghost_report_json():
    data = json.loads(ghost_report(GF2).to_json())
    assert data["rank"] == 3 and data["exponent"] == 4
    assert len(data["kernel_basis"]) == 4
    assert data["q"] == 2 and data["p"] == 2 and data["h"] == 1


def test_exhaustive_ghost_count_q2_all_multisets():
    count = sum(is_ghost(PointMultiset(GF2, bits))
                for bits in itertools.product((0, 1), repeat=7))
    assert count == 16


def test_ghost_report_rejects_a_basis_outside_the_kernel(monkeypatch):
    from psghost import linalg
    spec = FieldSpec.of(3)
    bad = np.zeros((1, spec.q**2 + spec.q + 1), dtype=np.int64)
    bad[0, 0] = 1  # a single point is not a ghost
    monkeypatch.setattr(linalg, "left_kernel_basis", lambda M, p: bad)
    ghost_report.cache_clear()
    try:
        with pytest.raises(ArithmeticError):
            ghost_report(spec)
    finally:
        ghost_report.cache_clear()
