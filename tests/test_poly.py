import random

import pytest

import numpy as np

from psghost import field
from psghost.field import FieldElement, FieldSpec, multinomial_int
from psghost.msets import (PointMultiset, mset_from_text, mset_to_text, msum,
                           phi)
from psghost.plane import (ProjLine, ProjPoint, canonical_triples,
                           enumerate_lines, enumerate_points, line_points)
from psghost.poly import (HomPoly, add_poly, evaluate, line_values,
                          monomial_indices, monomial_values, num_monomials,
                          point_image_rows, poly_from_text, poly_to_text,
                          power_sum)

GF2 = FieldSpec.of(2)


def mset(spec, *encs):
    return PointMultiset.from_points(
        spec, [ProjPoint.from_encodings(spec, *e) for e in encs])


def test_power_sum_fano_single_point():
    assert power_sum(mset(GF2, (0, 0, 1))) == HomPoly.from_terms(GF2, {(1, 0): 1})


def test_power_sum_fano_two_point_set():
    S2 = mset(GF2, (1, 0, 1), (1, 0, 0))
    assert power_sum(S2) == HomPoly.from_terms(GF2, {(1, 0): 1})


def test_power_sum_five_point_union():
    S = mset(GF2, (0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 0))
    assert power_sum(S) == HomPoly.from_terms(GF2, {(0, 1): 1})  # Y


def test_power_sum_empty():
    assert power_sum(PointMultiset.empty(GF2)).is_zero()


def test_evaluate_examples():
    Z = HomPoly.from_terms(GF2, {(1, 0): 1})
    assert evaluate(Z, ProjLine.from_encodings(GF2, 0, 0, 1)) == GF2.element(1)
    assert evaluate(Z, ProjLine.from_encodings(GF2, 1, 0, 0)) == GF2.element(0)


def test_evaluate_scaling_invariance():
    spec = FieldSpec.of(7)
    rng = random.Random(3)
    S = PointMultiset.from_vector(spec, [rng.randrange(7) for _ in range(57)])
    G = phi(S)
    u, v, w = spec.element(2), spec.element(5), spec.element(1)
    base = evaluate(G, (u, v, w))
    for lam in range(1, 7):
        s = spec.element(lam)
        assert evaluate(G, (s * u, s * v, s * w)) == base


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2)])
def test_line_count_identity_exhaustive_lines(p, h):
    """evaluate(G^S, line) = |S| - m in the prime subfield, all lines."""
    spec = FieldSpec.of(p, h)
    n = spec.q**2 + spec.q + 1
    rng = random.Random(7)
    msets_ = [PointMultiset.from_vector(spec, [rng.randrange(p) for _ in range(n)])
              for _ in range(5)]
    msets_.append(PointMultiset.empty(spec))
    msets_.append(PointMultiset(spec, (1,) * n))
    for S in msets_:
        G = phi(S)
        for l in enumerate_lines(spec):
            m = sum(S.multiplicity(P) for P in line_points(l, spec))
            assert evaluate(G, l) == spec.element((S.size - m) % p)


@pytest.mark.parametrize("p,h", [(5, 1), (7, 1), (2, 3), (3, 2)])
def test_line_count_identity_randomized(p, h):
    spec = FieldSpec.of(p, h)
    n = spec.q**2 + spec.q + 1
    rng = random.Random(11)
    for _ in range(3):
        S = PointMultiset.from_vector(spec, [rng.randrange(p) for _ in range(n)])
        G = phi(S)
        for l in rng.sample(list(enumerate_lines(spec)), 10):
            m = sum(S.multiplicity(P) for P in line_points(l, spec))
            assert evaluate(G, l) == spec.element((S.size - m) % p)


def test_additivity_disjoint_union():
    spec = FieldSpec.of(3)
    A = mset(spec, (0, 0, 1), (0, 1, 0))
    B = mset(spec, (1, 0, 0), (1, 1, 1))
    assert power_sum(msum(A, B)) == add_poly(power_sum(A), power_sum(B))


def test_add_negate():
    spec = FieldSpec.of(3)
    rng = random.Random(5)
    S = PointMultiset.from_vector(spec, [rng.randrange(3) for _ in range(13)])
    G = phi(S)
    zero = HomPoly.zero(spec)
    assert add_poly(G, zero) == G
    minus_G = HomPoly(spec, field.mul(spec, G.coeffs, spec.p - 1))
    assert add_poly(G, minus_G).is_zero()
    Z = HomPoly.from_terms(GF2, {(1, 0): 1})
    Y = HomPoly.from_terms(GF2, {(0, 1): 1})
    assert add_poly(Z, Y) == HomPoly.from_terms(GF2, {(1, 0): 1, (0, 1): 1})


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_coefficient_vector_length(p, h):
    spec = FieldSpec.of(p, h)
    q = spec.q
    assert num_monomials(spec) == q * (q + 1) // 2
    assert len(monomial_indices(spec)) == q * (q + 1) // 2


@pytest.mark.parametrize("p,h", [(2, 1), (5, 1), (3, 2)])
def test_power_sum_matches_direct_coefficient_formula(p, h):
    """Independent oracle: per-coefficient multinomial-and-powers formula."""
    spec = FieldSpec.of(p, h)
    rng = random.Random(31)
    n = spec.q**2 + spec.q + 1
    S = PointMultiset.from_vector(spec, [rng.randrange(p) for _ in range(n)])
    G = power_sum(S)
    d = spec.q - 1
    for i, j in rng.sample(list(monomial_indices(spec)),
                           min(8, num_monomials(spec))):
        acc = 0
        for P, m in zip(enumerate_points(spec), S.mult):
            if m:
                a, b, c = P.coords
                term = spec.element(multinomial_int(d, i, j) % p) * (
                    a**(d - i - j) * (b**j * c**i))
                # m < p acts through the prime subfield
                acc = field.add(spec, acc,
                                int(field.mul(spec, m, term.encoding)))
        assert G.coefficient(i, j) == spec.element(acc)


def test_poly_text_round_trip():
    spec = FieldSpec.of(3, 2)
    rng = random.Random(9)
    S = PointMultiset.from_vector(spec, [rng.randrange(3) for _ in range(91)])
    G = phi(S)
    assert poly_from_text(poly_to_text(G), spec) == G


def test_poly_text_parse_error_line_number():
    with pytest.raises(ValueError, match="line 2"):
        poly_from_text("# psp q=2\n0 garbage\n", GF2)


def test_poly_text_out_of_range_monomial_names_its_line():
    with pytest.raises(ValueError, match=r"line 2: monomial exponents "
                                         r"\(9, 9\) out of range"):
        poly_from_text("# psp q=7\n9 9 1\n", FieldSpec.of(7))


def test_a_file_of_the_other_kind_is_refused():
    # "1 2 3" would parse as the monomial (1, 2) with coefficient 3, and
    # "0 0 1" as the point (0, 0, 1)
    gf7 = FieldSpec.of(7)
    with pytest.raises(ValueError, match="# mset, but a # psp"):
        poly_from_text("# mset q=7\n1 2 3\n", gf7)
    with pytest.raises(ValueError, match="# psp, but a # mset"):
        mset_from_text("# psp q=7\n0 0 1\n", gf7)
    # headerless files still parse as their reader's kind
    assert poly_from_text("1 2 3\n", gf7).coefficient(1, 2) == gf7.element(3)
    assert mset_from_text("0 0 1\n", gf7).size == 1


def test_poly_text_repeated_monomial_is_an_error():
    # keeping the last of the two lines solved for another polynomial
    with pytest.raises(ValueError, match="line 3: monomial 0 0 repeated"):
        poly_from_text("# psp q=3\n0 0 1\n0 0 2\n", FieldSpec.of(3))


def test_monomial_values_zero_to_the_zero():
    # q = 4: monomials Z^i Y^j X^(3-i-j); 0^0 = 1 and 0^e = 0 for e > 0
    spec = FieldSpec.of(2, 2)
    pos = {ij: k for k, ij in enumerate(monomial_indices(spec))}
    V = monomial_values(spec, [[0, 0, 2], [2, 0, 0], [0, 0, 0]])
    assert V[0, pos[(3, 0)]] == 1  # 0^0 * 0^0 * 2^3 = 1 in GF(4)
    assert V[0, pos[(2, 0)]] == 0  # 0^1 * 0^0 * 2^2
    assert V[1, pos[(0, 0)]] == 1  # 2^3 * 0^0 * 0^0
    assert V[1, pos[(0, 1)]] == 0  # 2^2 * 0^1
    assert V[2].tolist() == [0] * num_monomials(spec)


def _term(spec, coeff, triple, i, j):
    a, b, c = (spec.element(x) for x in triple)
    return coeff * (a**(spec.q - 1 - i - j) * (b**j * c**i))


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3),
                                 (3, 2), (7, 1)])
def test_point_image_rows_match_per_entry_formula(p, h):
    # Multinomials vanish mod p at prime powers (C(3; 1, 1) = 6 at q = 4),
    # so the zero-coefficient branch is covered too.
    spec = FieldSpec.of(p, h)
    rows = point_image_rows(spec)
    for r, P in enumerate(enumerate_points(spec)):
        expected = [_term(spec,
                          spec.element(multinomial_int(spec.q - 1, i, j) % p),
                          P.encodings(), i, j).encoding
                    for i, j in monomial_indices(spec)]
        assert rows[r].tolist() == expected


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_monomial_values_match_per_entry_formula(p, h):
    spec = FieldSpec.of(p, h)
    rng = random.Random(p * 10 + h)
    T = [[rng.choice([0, 0, 1, rng.randrange(spec.q)]) for _ in range(3)]
         for _ in range(60)]
    coeffs = [rng.choice([0, 1, rng.randrange(spec.q)])
              for _ in monomial_indices(spec)]
    V = monomial_values(spec, T, coeffs)
    assert V.dtype == np.int64 and V.shape == (60, num_monomials(spec))
    for row, t in zip(V.tolist(), T):
        assert row == [_term(spec, spec.element(c), t, i, j).encoding
                       for c, (i, j) in zip(coeffs, monomial_indices(spec))]
    assert np.array_equal(monomial_values(spec, T),
                          monomial_values(spec, T, [1] * len(coeffs)))


GF7 = FieldSpec.of(7)
BIG = 10**30  # beyond int64


@pytest.mark.parametrize("text,message", [
    # a range fault before a syntax fault, and the other way round
    ("0 0 9\n0 0\n", "line 1: encoding 9 out of range for GF(7)"),
    ("0 0\n0 0 9\n", "line 1: expected 'i j coeff', got '0 0'"),
    ("1 x 2\n9 9 1\n",
     "line 1: invalid literal for int() with base 10: 'x'"),
    ("9 9 1\n1 x 2\n", r"line 1: monomial exponents (9, 9) out of range"),
    # a repeat before a bad header, a bad header before a repeat
    ("0 0 1\n0 0 2\n# psp q=5\n", "line 2: monomial 0 0 repeated"),
    ("0 0 1\n# psp q=5\n0 0 2\n",
     "header says q=5, but the field is GF(7)"),
    # within one line: exponents, then the repeat, then the encoding
    ("0 0 1\n0 0 9\n", "line 2: monomial 0 0 repeated"),
    ("0 0 1\n0 9 9\n", r"line 2: monomial exponents (0, 9) out of range"),
    ("1 1 7\n0 0 -1\n", "line 1: encoding 7 out of range for GF(7)"),
])
def test_poly_text_names_the_first_bad_line(text, message):
    with pytest.raises(ValueError) as e:
        poly_from_text(text, GF7)
    assert str(e.value) == message


@pytest.mark.parametrize("text,message", [
    (f"0 0 1\n{BIG} 0 1\n",
     f"line 2: monomial exponents ({BIG}, 0) out of range"),
    (f"0 {-BIG} 1\n", f"line 1: monomial exponents (0, {-BIG}) out of range"),
    (f"0 0 {BIG}\n", f"line 1: encoding {BIG} out of range for GF(7)"),
    (f"0 0 {2**63}\n", f"line 1: encoding {2**63} out of range for GF(7)"),
    (f"0 0 {-2**63 - 1}\n",
     f"line 1: encoding {-2**63 - 1} out of range for GF(7)"),
    # sums of two fields must not wrap round in int64 either
    (f"{2**62} {2**62} 1\n",
     f"line 1: monomial exponents ({2**62}, {2**62}) out of range"),
])
def test_poly_text_values_beyond_int64_are_out_of_range(text, message):
    with pytest.raises(ValueError) as e:
        poly_from_text(text, GF7)
    assert str(e.value) == message


@pytest.mark.parametrize("coeffs,message", [
    (np.zeros(5, dtype=np.int64), r"got shape \(5,\) of int64"),
    (np.zeros((6, 1), dtype=np.int64), r"got shape \(6, 1\) of int64"),
    (np.zeros(6), r"got shape \(6,\) of float64"),
    (np.zeros(6, dtype=bool), r"got shape \(6,\) of bool"),
    ((GF7.element(0),) * 6, r"got shape \(6,\) of object"),
    ([0, 0, 0, 0, 0, 3], r"must lie in \[0, 3\)"),
    ([0, -1, 0, 0, 0, 0], r"must lie in \[0, 3\)"),
    (np.array([0, 0, 0, 0, 0, 2**64 - 1], dtype=np.uint64),
     r"must lie in \[0, 3\)"),
])
def test_hompoly_checks_its_coefficients(coeffs, message):
    with pytest.raises(ValueError, match=message):
        HomPoly(FieldSpec.of(3), coeffs)


def test_hompoly_holds_a_read_only_copy():
    spec = FieldSpec.of(3)
    given = np.array([0, 1, 2, 0, 1, 2], dtype=np.uint8)
    G = HomPoly(spec, given)
    assert G.coeffs.dtype == np.int64 and not G.coeffs.flags.writeable
    with pytest.raises(ValueError):
        G.coeffs[0] = 1
    given[0] = 2  # the caller's array is not the stored one
    assert G.coeffs[0] == 0 and given.flags.writeable
    assert G == HomPoly(spec, [0, 1, 2, 0, 1, 2])
    assert G != HomPoly(spec, [0, 1, 2, 0, 1, 1])
    assert G != HomPoly(FieldSpec.of(2, 2), [0] * 10)
    assert G != given.tolist()
    with pytest.raises(TypeError):
        hash(G)


def test_bulk_paths_build_no_field_elements(monkeypatch, tmp_path, capsys):
    from psghost import cli, tomo
    spec = FieldSpec.of(7)
    rng = random.Random(4)
    S = PointMultiset.from_vector(spec, [rng.randrange(7) for _ in range(57)])
    mset_text = mset_to_text(S)
    psp_text = poly_to_text(power_sum(S))
    f = tmp_path / "s.mset"
    f.write_text(mset_text)
    made = []
    init = FieldElement.__init__

    def counting(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(FieldElement, "__init__", counting)
    G = poly_from_text(psp_text, spec)
    assert mset_from_text(mset_text, spec) == S
    assert power_sum(S) == G
    line_values(G, canonical_triples(spec))
    assert poly_to_text(G) == psp_text
    tomo.solve(G)
    for fmt in ("text", "json"):
        assert cli.main(["psp", "--field", "7", "--in", str(f),
                         "--format", fmt]) == 0
    capsys.readouterr()
    assert made == []


def test_evaluate_refuses_the_all_zero_triple():
    G = HomPoly.from_terms(GF2, {(1, 0): 1})
    z = GF2.element(0)
    with pytest.raises(ValueError,
                       match="projective coordinates cannot be all zero"):
        evaluate(G, (z, z, z))


def test_power_sum_casts_no_copy_of_the_point_matrix():
    # an int64 vector times the uint8 matrix casts all of it to int64 first
    import tracemalloc
    from psghost.poly import point_matrix_fp
    spec = FieldSpec.parse("2^5")
    n = spec.q**2 + spec.q + 1
    S = PointMultiset.from_vector(spec, [k % 3 == 0 for k in range(n)])
    power_sum(S)  # builds the cached point matrix and field tables
    tracemalloc.start()
    try:
        power_sum(S)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < point_matrix_fp(spec).nbytes
