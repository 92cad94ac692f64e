import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psghost.field import FieldSpec
from psghost.msets import (PointMultiset, complement, minverse, mset_from_text,
                           mset_to_text, msum, phi, random_residues)
from psghost.plane import ProjPoint, enumerate_points, line_points, ProjLine
from psghost.poly import add_poly

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)


def single(spec, enc, m=1):
    mult = [0] * (spec.q**2 + spec.q + 1)
    from psghost.plane import point_row
    P = ProjPoint.from_encodings(spec, *enc)
    mult[point_row(spec, P)] = m % spec.p
    return PointMultiset(spec, tuple(mult))


def empty(spec):
    return PointMultiset.from_points(spec, [])


def test_msum_characteristic_two():
    S = single(GF2, (0, 0, 1))
    assert msum(S, S) == empty(GF2)


def test_msum_identity():
    S = single(GF3, (1, 0, 2), 2)
    assert msum(S, empty(GF3)) == S


def test_msum_wraps_mod_p():
    A = single(GF3, (0, 0, 1), 2)
    assert msum(A, A) == single(GF3, (0, 0, 1), 1)  # 4 mod 3


def test_minverse():
    assert minverse(single(GF2, (1, 1, 1))) == single(GF2, (1, 1, 1))
    gf5 = FieldSpec(5)
    assert minverse(single(gf5, (0, 0, 1), 2)) == single(gf5, (0, 0, 1), 3)
    assert minverse(empty(GF3)) == empty(GF3)


def test_complement():
    full = PointMultiset(GF2, (1,) * 7)
    line = PointMultiset.from_points(
        GF2, line_points(ProjLine.from_encodings(GF2, 1, 0, 0), GF2))
    affine = complement(line, full)
    assert affine.mult.sum() == 4
    assert complement(empty(GF2), full) == full
    assert complement(full, full) == empty(GF2)


def test_complement_containment_error():
    with pytest.raises(ValueError):
        complement(single(GF3, (0, 0, 1), 2), single(GF3, (0, 0, 1), 1))


def test_group_operations_refuse_another_field():
    A, B = empty(GF2), empty(GF3)
    for op in (msum, complement):
        with pytest.raises(ValueError, match="field mismatch"):
            op(A, B)
        with pytest.raises(ValueError, match="field mismatch"):
            op(B, A)


def test_phi_identity_and_example():
    assert not phi(empty(GF2)).coeffs.any()
    from psghost.poly import HomPoly
    assert phi(single(GF2, (0, 0, 1))) == HomPoly.from_terms(GF2, {(1, 0): 1})


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_phi_homomorphism_q3(data):
    n = 13
    vec = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    A = PointMultiset(GF3, tuple(data.draw(vec)))
    B = PointMultiset(GF3, tuple(data.draw(vec)))
    assert phi(msum(A, B)) == add_poly(phi(A), phi(B))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_group_axioms_q3(data):
    n = 13
    vec = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    A = PointMultiset(GF3, tuple(data.draw(vec)))
    B = PointMultiset(GF3, tuple(data.draw(vec)))
    C = PointMultiset(GF3, tuple(data.draw(vec)))
    assert msum(msum(A, B), C) == msum(A, msum(B, C))
    assert msum(A, B) == msum(B, A)
    assert msum(A, minverse(A)) == empty(GF3)
    # every non-identity element has order p
    acc = A
    for _ in range(2):
        acc = msum(acc, A)
    assert acc == empty(GF3)


def test_group_order_formula():
    for p, h in [(2, 1), (3, 1), (2, 2)]:
        spec = FieldSpec(p, h)
        q = spec.q
        # |p^PG(2,q)| = p^(q^2+q+1), as a formula
        assert p**(q * q + q + 1) == p**len(empty(spec).mult)
    # exhaustive at q = 2: 128 distinct multisets
    all_sets = {PointMultiset(GF2, bits).mult.tobytes()
                for bits in itertools.product((0, 1), repeat=7)}
    assert len(all_sets) == 128


def test_size_reporting():
    S = single(GF3, (0, 0, 1), 2)
    assert S.mult.sum() == 2
    full = PointMultiset(GF3, (1,) * 13)
    assert full.mult.sum() == 13 and full.mult.sum() % 3 == 1


def test_text_round_trip():
    spec = FieldSpec(5)
    rng = random.Random(2)
    S = PointMultiset.from_vector(spec, [rng.randrange(5) for _ in range(31)])
    assert mset_from_text(mset_to_text(S), spec) == S


def test_text_plain_set_omits_multiplicity():
    S = single(GF2, (0, 0, 1))
    text = mset_to_text(S)
    assert ":" not in text.splitlines()[1]
    assert mset_from_text("0 0 1\n", GF2) == S


def test_text_parse_error_line_number():
    with pytest.raises(ValueError, match="line 2"):
        mset_from_text("# mset q=2\n0 0\n", GF2)


def test_from_vector_reduces_exactly():
    n = 13
    vec = [2**64 + 3, -1, 2**63, -(2**70) - 1] + [5] * (n - 4)
    expected = [v % 3 for v in vec]
    for given in (vec, np.array(vec, dtype=object)):
        assert PointMultiset.from_vector(GF3, given).mult.tolist() == expected
    arr = np.array([-1, 2**62, -(2**63), 2**63 - 1] + [7] * (n - 4),
                   dtype=np.int64)
    for given in (arr, arr.astype(np.uint64)):
        assert PointMultiset.from_vector(GF3, given).mult.tolist() == [
            int(v) % 3 for v in given]


@pytest.mark.parametrize("vec,entry", [
    (np.array([1.5, 2.7] + [0.0] * 11), "1.5"),       # was read as [1, 2, ...]
    ([Fraction(7, 2)] + [0] * 12, "Fraction(7, 2)"),  # was read as 0
    ([0] * 12 + [2.0], "2.0"),
    ([2**70, 0.5] + [0] * 11, "0.5"),
])
def test_from_vector_refuses_non_integers(vec, entry):
    with pytest.raises(ValueError) as e:
        PointMultiset.from_vector(GF3, vec)
    assert str(e.value) == f"entry {entry} is not an integer"


def test_multiplicities_out_of_range_rejected():
    for bad in (-1, 3):
        with pytest.raises(ValueError, match="multiplicities"):
            PointMultiset(GF3, (0,) * 12 + (bad,))
        with pytest.raises(ValueError, match="multiplicities"):
            PointMultiset(GF3, (bad,) + (1,) * 12)


def _text_reference(S):
    pts = enumerate_points(S.spec)
    lines = [f"# mset q={S.spec}"]
    for k, m in enumerate(S.mult):
        if m:
            lines.append(str(pts[k]) if m == 1 else f"{pts[k]} : {m}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("field", ["2", "3", "2^2", "5", "7", "2^3", "3^2",
                                   "13", "23", "2^4"])
def test_text_matches_per_point_reference(field):
    spec = FieldSpec.parse(field)
    rng = random.Random(field)
    n = spec.q**2 + spec.q + 1
    for S in (empty(spec), PointMultiset(spec, (1,) * n),
              PointMultiset.from_vector(
                  spec, [rng.randrange(spec.p) for _ in range(n)])):
        assert mset_to_text(S) == _text_reference(S)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 31])
def test_random_residues_equal_the_randrange_stream(p):
    for seed in (0, 1, 7, 11, 1000 + p):
        for shape in [(40, p * p + p + 1), (3, 5), (1, 1), (0, 4), (9,)]:
            fast, slow = random.Random(seed), random.Random(seed)
            got = random_residues(fast, p, shape)
            want = np.array([slow.randrange(p) for _ in range(int(np.prod(shape)))],
                            dtype=np.int64).reshape(shape)
            assert got.dtype == np.int64 and got.shape == want.shape
            assert np.array_equal(got, want), (seed, shape)
            # the same number of words was taken
            assert fast.getstate() == slow.getstate()


def test_random_residues_reject_p_beyond_32_bits():
    for p in (1, 2**32 + 15):
        with pytest.raises(ValueError):
            random_residues(random.Random(0), p, (2, 2))


GF7 = FieldSpec(7)
BIG = 10**30  # beyond int64
SPELL = ("integers are written in the digits 0-9, each with an optional "
         "leading '-'")


@pytest.mark.parametrize("text,message", [
    # a range fault before a syntax fault, and the other way round
    ("0 0 9\n0 0\n", "line 1: encoding 9 out of range for GF(7)"),
    ("0 0\n0 0 9\n", "line 1: expected 'a b c [: m]', got '0 0'"),
    ("0 0 0\n1 2 3 : x\n", "line 1: projective coordinates cannot be all "
                           "zero"),
    ("1 2 3 : x\n0 0 0\n", "line 1: bad multiplicity ' x'"),
    ("0 1 2\n0 x 1\n0 0 0\n",
     "line 2: invalid literal for int() with base 10: 'x'"),
    # a zero triple before a bad header, a bad header before a zero triple
    ("0 0 1\n0 0 0\n# mset q=5\n",
     "line 2: projective coordinates cannot be all zero"),
    ("0 0 1\n# psp q=7\n0 0 0\n",
     "line 2: header says # psp, but a # mset file is expected"),
    ("# psp q=7\n0 0 1\n",
     "line 1: header says # psp, but a # mset file is expected"),
    ("# comment\n# mset q=3^2\n0 0 0\n",
     "line 2: header says q=3^2, but the field is GF(7)"),
    # within one line: the multiplicity, the fields, each coordinate in
    # turn, then the zero triple
    ("0 0 0 : x\n", "line 1: bad multiplicity ' x'"),
    ("0 0 : 1\n", "line 1: expected 'a b c [: m]', got '0 0 : 1'"),
    ("0 8 9\n", "line 1: encoding 8 out of range for GF(7)"),
    ("0 0 -1\n", "line 1: encoding -1 out of range for GF(7)"),
    # int() reads these; a data line takes ASCII digits and "-" only
    ("0 0 1\n0 1_0 1\n", f"line 2: {SPELL}"),
    ("0 0 1 : +2\n", f"line 1: {SPELL}"),
    ("0 1 \u0663\n", f"line 1: {SPELL}"),
    # a "#" line whose first word is mset or psp, in any case, is a header;
    # these were read as comments, so a file saying GF(5) was read as GF(7)
    ("0 0 1\n# mset q= 5\n0 1 3\n",
     "line 2: malformed header '# mset q= 5', expected '# mset q=<p^h>'"),
    ("# mset q = 5\n", "line 1: malformed header '# mset q = 5', expected "
                       "'# mset q=<p^h>'"),
    ("# MSET q=5\n",
     "line 1: malformed header '# MSET q=5', expected '# mset q=<p^h>'"),
    ("# mset\n",
     "line 1: malformed header '# mset', expected '# mset q=<p^h>'"),
    ("#  PSP q=7\n",
     "line 1: malformed header '#  PSP q=7', expected '# mset q=<p^h>'"),
])
def test_mset_text_names_the_first_bad_line(text, message):
    with pytest.raises(ValueError) as e:
        mset_from_text(text, GF7)
    assert str(e.value) == message


@pytest.mark.parametrize("comment", ["#", "# mset: notes", "# msetq=7",
                                     "#mset-like", "# a mset q=5"])
def test_mset_other_hash_lines_are_comments(comment):
    assert mset_from_text(f"{comment}\n0 1 3\n", GF7) == mset_from_text(
        "0 1 3\n", GF7)


@pytest.mark.parametrize("text,message", [
    (f"0 0 1\n{BIG} 0 1\n", f"line 2: encoding {BIG} out of range for GF(7)"),
    (f"1 {-BIG} 0\n", f"line 1: encoding {-BIG} out of range for GF(7)"),
    (f"1 2 {2**63}\n", f"line 1: encoding {2**63} out of range for GF(7)"),
    (f"0 0 1 : x{BIG}\n", f"line 1: bad multiplicity ' x{BIG}'"),
])
def test_mset_text_values_beyond_int64_are_out_of_range(text, message):
    with pytest.raises(ValueError) as e:
        mset_from_text(text, GF7)
    assert str(e.value) == message


def test_mset_text_multiplicities_beyond_int64_reduce_exactly():
    # every nonzero multiple of a triple is the same point
    text = (f"0 0 1 : {BIG}\n0 0 3 : {-BIG}\n1 2 3 : {2**64 + 1}\n"
            f"2 4 6 : {2**63}\n1 2 3\n")
    S = mset_from_text(text, GF7)
    P, Q = (ProjPoint.from_encodings(GF7, *t) for t in [(0, 0, 1), (1, 2, 3)])
    assert S.mult[P.row] == 0
    assert S.mult[Q.row] == (2**64 + 1 + 2**63 + 1) % 7
    assert S.mult.sum() == S.mult[Q.row]


def test_minverse_of_unsigned_multiplicities():
    # -1 in uint8 is 255, and 255 % 3 = 0; the inverse of 1 mod 3 is 2
    assert minverse(single(GF3, (0, 0, 1), 1)) == single(GF3, (0, 0, 1), 2)
    S = PointMultiset(GF3, [0, 1, 2] * 4 + [1])
    assert minverse(S).mult.tolist() == [0, 2, 1] * 4 + [2]
    assert msum(S, minverse(S)) == empty(GF3)


def test_mult_is_a_read_only_copy():
    given = np.array([1, 0, 2] * 4 + [1], dtype=np.int64)
    S = PointMultiset(GF3, given)
    assert S.mult.dtype == np.uint8 and not S.mult.flags.writeable
    with pytest.raises(ValueError):
        S.mult[0] = 2
    given[0] = 2  # the caller's array is not the stored one
    assert S.mult[enumerate_points(GF3)[0].row] == 1
    assert S == PointMultiset(GF3, [1, 0, 2] * 4 + [1])
    assert S != PointMultiset(GF3, given)
    assert S != PointMultiset(FieldSpec(2, 2), [0] * 21)
    assert S != given.tolist()
    with pytest.raises(TypeError):
        hash(S)


@pytest.mark.parametrize("mult", [
    [0] * 12,                                   # wrong length
    [[0] * 13],                                 # not one vector
    [0.0] * 13,                                 # not integers
    [0] * 12 + [2**70],                         # beyond int64
])
def test_multiplicity_vectors_are_checked_by_one_validator(mult):
    with pytest.raises(ValueError, match="multiplicity"):
        PointMultiset(GF3, mult)
