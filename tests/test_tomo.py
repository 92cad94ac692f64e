import itertools
import random

import pytest

from psghost import tomo
from psghost.field import FieldSpec
from psghost.ghost import ghost_report, is_ghost
from psghost.msets import PointMultiset, minverse, msum, phi
from psghost.plane import ProjPoint, enumerate_lines, line_points
from psghost.poly import HomPoly

GF2 = FieldSpec.of(2)
Z2 = HomPoly.from_terms(GF2, {(1, 0): 1})


def mset(spec, *encs):
    return PointMultiset.from_points(
        spec, [ProjPoint.from_encodings(spec, *e) for e in encs])


def paper_example_sets():
    return [mset(GF2, (0, 0, 1)),
            mset(GF2, (1, 0, 1), (1, 0, 0)),
            mset(GF2, (1, 0, 0), (0, 1, 0), (1, 1, 1))]


def test_solve_q2_z_coset():
    coset = tomo.solve(Z2)
    assert coset.particular is not None
    assert phi(coset.particular) == Z2
    assert coset.exponent == 4
    for S in paper_example_sets():
        assert is_ghost(msum(S, minverse(coset.particular)))


def test_solve_zero_polynomial():
    coset = tomo.solve(HomPoly.zero(GF2))
    assert coset.particular == PointMultiset.empty(GF2)
    assert coset.exponent == 4
    assert coset.kernel is ghost_report(GF2).kernel
    for S in ghost_report(GF2).kernel_basis:
        assert is_ghost(S)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_solve_always_consistent_prime_field(p):
    spec = FieldSpec.of(p)
    n = spec.q**2 + spec.q + 1
    rng = random.Random(21)
    for _ in range(10):
        S = PointMultiset.from_vector(spec, [rng.randrange(p) for _ in range(n)])
        coset = tomo.solve(phi(S))
        assert coset.particular is not None
        assert is_ghost(msum(S, minverse(coset.particular)))


def test_coset_law_exhaustive_q2():
    sols = tomo.enumerate_set_solutions(Z2, 1000)
    for A, B in itertools.combinations(sols, 2):
        assert is_ghost(msum(A, minverse(B)))


def test_enumerate_q2_z_matches_brute_force():
    sols = tomo.enumerate_set_solutions(Z2, 1000)
    brute = [PointMultiset(GF2, bits)
             for bits in itertools.product((0, 1), repeat=7)
             if phi(PointMultiset(GF2, bits)) == Z2]
    assert sorted(S.mult.tolist() for S in sols) == sorted(
        S.mult.tolist() for S in brute)
    for S in paper_example_sets():
        assert S in sols


def test_enumerate_q2_ghosts():
    sols = tomo.enumerate_set_solutions(HomPoly.zero(GF2), 1000)
    assert PointMultiset.empty(GF2) in sols
    assert PointMultiset(GF2, (1,) * 7) in sols
    for l in enumerate_lines(GF2):
        assert PointMultiset.from_points(GF2, line_points(l, GF2)) in sols


def test_enumerate_round_trip_q3():
    spec = FieldSpec.of(3)
    rng = random.Random(23)
    pts = rng.sample(range(13), 4)
    S = PointMultiset.from_vector(spec, [1 if k in pts else 0 for k in range(13)])
    sols = tomo.enumerate_set_solutions(phi(S), 10000)
    assert S in sols


def test_enumerate_walk_round_trip_q5():
    spec = FieldSpec.of(5)
    # walk mode: the particular solution itself is found when it is a set
    S = PointMultiset.from_vector(
        spec, [0] * 31)
    sols = tomo.enumerate_set_solutions(phi(S), 1)
    assert len(sols) == 1
    assert is_ghost(sols[0])


def test_limit_takes_the_smallest_sets_of_a_walked_coset():
    # q = 2^2: the whole 2^12-element coset is walked, and every element is
    # a plain set, so a limit keeps the canonical first sets, not the first
    # ones the walk meets
    spec = FieldSpec.parse("2^2")
    rng = random.Random(4)
    S = PointMultiset.from_vector(spec, [rng.randrange(2) for _ in range(21)])
    every = tomo.enumerate_set_solutions(phi(S), 5000)
    assert len(every) == 4096 and S in every
    assert tomo.enumerate_set_solutions(phi(S), 1000) == every[:1000]


def test_enumerate_limit_validation():
    with pytest.raises(ValueError):
        tomo.enumerate_set_solutions(Z2, 0)


def test_verify_solution():
    S1, _, _ = paper_example_sets()
    assert phi(S1) == Z2
    assert phi(PointMultiset.empty(GF2)) != Z2
    l = enumerate_lines(GF2)[0]
    line = PointMultiset.from_points(GF2, line_points(l, GF2))
    assert phi(line) == HomPoly.zero(GF2)


def test_coset_law_q3_sampled():
    spec = FieldSpec.of(3)
    rng = random.Random(29)
    S = PointMultiset.from_vector(spec, [rng.randrange(3) for _ in range(13)])
    G = phi(S)
    coset = tomo.solve(G)
    assert is_ghost(msum(S, minverse(coset.particular)))
    # walk a few coset elements and confirm pairwise ghost differences
    others = [msum(coset.particular, K)
              for K in ghost_report(spec).kernel_basis[:4]]
    for A in others:
        assert phi(A) == G
        assert is_ghost(msum(A, minverse(S)))
