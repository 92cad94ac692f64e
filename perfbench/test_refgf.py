"""Tests of the benchmark's reference arithmetic.

Run from the repository root with `python3 -m pytest perfbench`.
"""

import itertools
import random

import numpy as np
import pytest

import refgf

FIELDS = [(2, 1), (5, 1), (13, 1), (2, 3), (2, 4), (3, 2), (3, 3)]


@pytest.mark.parametrize("p,h", FIELDS)
def test_tables_form_a_field(p, h):
    F = refgf.GF(p, h)
    q = F.q
    els = range(q)
    assert (F.add == F.add.T).all() and (F.mul == F.mul.T).all()
    assert (F.add[0] == np.arange(q)).all() and (F.mul[1] == np.arange(q)).all()
    assert (F.mul[0] == 0).all()
    for a in els:
        assert sorted(F.add[a]) == list(els)  # additive inverse exists
        if a:
            assert sorted(F.mul[a]) == list(els)  # multiplicative inverse
    rng = random.Random(p * 100 + h)
    for _ in range(300):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert F.add[F.add[a, b], c] == F.add[a, F.add[b, c]]
        assert F.mul[F.mul[a, b], c] == F.mul[a, F.mul[b, c]]
        assert F.mul[a, F.add[b, c]] == F.add[F.mul[a, b], F.mul[a, c]]
    # the multiplicative group is cyclic of order q-1: a^(q-1) = 1
    assert (F.pow[1:, q - 1] == 1).all()


def test_extension_modulus_root():
    """x (encoding p) is a root of the Conway modulus it was built from."""
    for (p, h), mod in refgf.CONWAY.items():
        F = refgf.GF(p, h)
        acc = 0
        for k, c in enumerate(mod):
            term = F.mul[c % p, F.pow[p, k]]
            acc = F.add[acc, term]
        assert acc == 0


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
def test_prime_point_image_rank(q):
    F = refgf.GF(q)
    M = refgf.point_image_matrix(F)
    assert M.shape == (q * q + q + 1, q * (q + 1) // 2)
    assert refgf.rank_mod_p(M, q) == q * (q + 1) // 2


@pytest.mark.parametrize("p,h", [(3, 1), (2, 3), (3, 2)])
def test_lines_have_zero_power_sum(p, h):
    F = refgf.GF(p, h)
    M = refgf.point_image_matrix(F)
    I = refgf.incidence(F)
    assert (I.sum(axis=0) == F.q + 1).all()
    assert not (I.T @ M % p).any()


def test_power_sum_matches_direct_sum():
    F = refgf.GF(3, 2)
    M = refgf.point_image_matrix(F)
    pts = refgf.points(F)
    rng = random.Random(7)
    mult = [rng.randrange(3) for _ in pts]
    direct = [0] * len(refgf.monomials(F.q))
    d = F.q - 1
    for (a, b, c), m in zip(pts, mult):
        for k, (i, j) in enumerate(refgf.monomials(F.q)):
            term = F.mul[F.pow[a, d - i - j], F.mul[F.pow[b, j], F.pow[c, i]]]
            term = F.mul[refgf.multinomial(d, i, j) % 3, term]
            for _ in range(m):
                direct[k] = F.add[direct[k], term]
    assert refgf.power_sum(F, M, mult) == [int(x) for x in direct]


def test_rank_and_span():
    p = 5
    B = np.array([[1, 2, 0, 3], [0, 0, 1, 4]])
    assert refgf.rank_mod_p(B, p) == 2
    V = np.array([(2 * B[0] + 3 * B[1]) % p, [0, 1, 0, 0]])
    assert refgf.in_row_span(B, V, p).tolist() == [True, False]
    assert refgf.rank_mod_p(np.vstack([B, V]), p) == 3


def test_text_round_trip():
    F = refgf.GF(2, 3)
    text = "# mset q=2^3\n0 0 1\n1 3 7 : 1\n0 1 5\n"
    mult = refgf.mset_vector(F, text)
    assert sum(mult) == 3 and mult[0] == 1
    with pytest.raises(ValueError):
        refgf.mset_vector(F, "2 0 0\n")
    coeffs = [0] * len(refgf.monomials(2))
    coeffs[1] = 1
    assert refgf.poly_text("2", 2, coeffs) == "# psp q=2\n0 1 1\n"
    assert list(itertools.islice(refgf.monomials(3), 3)) == [(0, 0), (0, 1), (0, 2)]
