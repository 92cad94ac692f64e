import itertools
import json
import random

import numpy as np
import pytest

import schoolbook
from psghost.field import FieldSpec
from psghost.ghost import (ghost_report, is_ghost, is_ghost_stack,
                           line_ghost, partial_pencil_ghost,
                           punctured_pencil_ghost, vandermonde_check,
                           vandermonde_check_stack)
from psghost.linalg import block_entries, mul_mod
from psghost.msets import PointMultiset, complement, minverse, msum, phi
from psghost.plane import (ProjLine, ProjPoint, canonical_triples,
                           enumerate_lines, enumerate_points,
                           incidence_matrix, line_points)
from psghost.poly import (HomPoly, evaluate, line_values, point_matrix_fp,
                          power_sum)

GF2 = FieldSpec(2)

CONSTRUCTOR_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


def zero_on_every_line(S):
    """The power sum of S is zero at every line (the line-sum identity)."""
    return not line_values(power_sum(S), canonical_triples(S.spec)).any()


def test_is_ghost_empty_and_full():
    assert is_ghost(PointMultiset.from_points(GF2, []))
    assert is_ghost(PointMultiset(GF2, (1,) * 7))


def test_single_point_not_ghost():
    S = PointMultiset.from_points(GF2, [ProjPoint.from_encodings(GF2, 0, 0, 1)])
    assert not is_ghost(S)


@pytest.mark.parametrize("p,h", CONSTRUCTOR_FIELDS)
def test_line_ghosts(p, h):
    spec = FieldSpec(p, h)
    for l in enumerate_lines(spec)[:: max(1, len(enumerate_lines(spec)) // 7)]:
        S = line_ghost(l, spec)
        assert S.mult.sum() == spec.q + 1
        assert is_ghost(S)


@pytest.mark.parametrize("p,h", CONSTRUCTOR_FIELDS)
def test_partial_pencil_ghosts_all_legal_lambda(p, h):
    spec = FieldSpec(p, h)
    P = enumerate_points(spec)[0]
    for lam in range(p**(h - 1) + 1):
        S = partial_pencil_ghost(P, lam, spec)
        assert is_ghost(S)
    with pytest.raises(ValueError):
        partial_pencil_ghost(P, p**(h - 1) + 1, spec)


def test_punctured_pencil_lambda_out_of_range():
    # q - lam*p lines must number 1 to q + 1
    spec = FieldSpec(3, 2)
    P = enumerate_points(spec)[5]
    # 3 lines
    assert punctured_pencil_ghost(P, 2, spec).mult.sum() == 3 * spec.q
    for lam in (-1, 3):
        message = rf"lambda = {lam} out of range for GF\(3\^2\)"
        with pytest.raises(ValueError, match=message):
            punctured_pencil_ghost(P, lam, spec)


def test_partial_pencil_lambda0_is_line():
    S = partial_pencil_ghost(enumerate_points(GF2)[0], 0, GF2)
    assert S.mult.sum() == 3


def test_partial_pencil_full_is_plane():
    spec = FieldSpec(3)
    S = partial_pencil_ghost(enumerate_points(spec)[0], 1, spec)
    assert S == PointMultiset(spec, (1,) * 13)


@pytest.mark.parametrize("p,h", CONSTRUCTOR_FIELDS)
def test_punctured_pencil_ghosts(p, h):
    spec = FieldSpec(p, h)
    P = enumerate_points(spec)[1]
    lam = 0
    while spec.q - lam * p >= 1:
        S = punctured_pencil_ghost(P, lam, spec)
        assert is_ghost(S)
        assert S.mult[P.row] == 0
        lam += 1


@pytest.mark.parametrize("p,h", CONSTRUCTOR_FIELDS)
def test_complements_of_constructed_ghosts(p, h):
    spec = FieldSpec(p, h)
    full = PointMultiset(spec, (1,) * (spec.q**2 + spec.q + 1))
    P = enumerate_points(spec)[0]
    ghosts = [line_ghost(enumerate_lines(spec)[0], spec),
              partial_pencil_ghost(P, 0, spec),
              punctured_pencil_ghost(P, 0, spec)]
    for S in ghosts:
        assert is_ghost(complement(S, full))


def test_subgroup_closure():
    spec = FieldSpec(3)
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
    spec3 = FieldSpec(3)
    single = PointMultiset.from_points(
        spec3, [ProjPoint.from_encodings(spec3, 0, 0, 1)])
    assert not vandermonde_check(single)


def test_vandermonde_matches_kernel_element_q5():
    spec = FieldSpec(5)
    report = ghost_report(spec)
    rng = random.Random(13)
    S = report.kernel_basis[rng.randrange(len(report.kernel_basis))]
    assert vandermonde_check(S)


def test_characterization_equivalence_exhaustive_q2():
    for bits in itertools.product((0, 1), repeat=7):
        S = PointMultiset(GF2, bits)
        a = is_ghost(S)
        assert a == vandermonde_check(S)
        assert a == zero_on_every_line(S)
        # direct polynomial evaluation on all lines agrees
        G = phi(S)
        assert a == all(evaluate(G, l) == 0 for l in enumerate_lines(GF2))


@pytest.mark.parametrize("p,h", [(5, 1), (7, 1), (2, 3), (3, 2)])
def test_characterization_equivalence_randomized(p, h):
    spec = FieldSpec(p, h)
    n = spec.q**2 + spec.q + 1
    rng = random.Random(17)
    report = ghost_report(spec)
    samples = [PointMultiset.from_vector(spec, [rng.randrange(p) for _ in range(n)])
               for _ in range(50)]
    samples += list(report.kernel_basis[:5])  # make sure ghosts are hit
    for S in samples:
        a = is_ghost(S)
        assert a == vandermonde_check(S)
        assert a == zero_on_every_line(S)


def test_ghost_line_intersection_identity():
    # a ghost meets every line in |S| mod p points
    spec = FieldSpec(3)
    report = ghost_report(spec)
    from psghost.plane import line_points
    for S in report.kernel_basis[:4]:
        for l in enumerate_lines(spec):
            m = S.mult[[P.row for P in line_points(l, spec)]].sum()
            assert m % 3 == S.mult.sum() % 3


def test_ghost_report_p2():
    r = ghost_report(GF2)
    assert r.rank_phi == 3
    assert r.ghost_exponent == 4
    assert r.ghost_count() == 16
    assert len(r.kernel_basis) == 4


def test_ghost_report_p7():
    r = ghost_report(FieldSpec(7))
    assert r.rank_phi == 28
    assert r.ghost_exponent == 29


def test_ghost_report_h_greater_one_labeled():
    r = ghost_report(FieldSpec(2, 2))
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
    spec = FieldSpec(3)
    bad = np.zeros((1, spec.q**2 + spec.q + 1), dtype=np.int64)
    bad[0, 0] = 1  # a single point is not a ghost
    monkeypatch.setattr(linalg, "left_kernel_basis", lambda M, p: bad)
    ghost_report.cache_clear()
    try:
        with pytest.raises(ArithmeticError):
            ghost_report(spec)
    finally:
        ghost_report.cache_clear()


def _basis_variants(B, p):
    """Four corruptions of a reduced echelon kernel basis B: all but the
    last stay in the kernel."""
    B = B.astype(np.int64)
    leads = (B != 0).argmax(axis=1)
    doubled, mixed, broken = B.copy(), B.copy(), B.copy()
    doubled[1] = 2 * B[1] % p               # lead entry 2
    mixed[0] = (B[0] + B[1]) % p            # nonzero at row 1's lead
    free = np.setdiff1d(np.arange(B.shape[1]), leads)
    broken[0, free[-1]] = (B[0, free[-1]] + 1) % p  # a non-lead entry
    return {"repeated row": np.insert(B, 2, B[1], axis=0),
            "lead entry 2": doubled, "nonzero at another lead": mixed,
            "non-lead entry": broken}


@pytest.mark.parametrize("field", ["3", "3^2"])
@pytest.mark.parametrize("how", ["repeated row", "lead entry 2",
                                 "nonzero at another lead", "non-lead entry"])
def test_ghost_report_rejects_a_basis_that_is_not_reduced(monkeypatch,
                                                          field, how):
    # B @ M = 0 alone accepted a repeated row: at q = 3 it read rank 5 and
    # exponent 8 where the truth is 6 and 7
    from psghost import linalg
    spec = FieldSpec.parse(field)
    bad = _basis_variants(ghost_report(spec).kernel, spec.p)[how]
    monkeypatch.setattr(linalg, "left_kernel_basis", lambda M, p: bad)
    ghost_report.cache_clear()
    try:
        with pytest.raises(ArithmeticError):
            ghost_report(spec)
    finally:
        ghost_report.cache_clear()


# Random residue matrices by field; at 3^2, 91 x 182 leaves a ragged last
# block each way.
RESIDUE_SHAPES = {"3^2": (91, 182), "61": (500, 300)}


def _product_operands(caller, spec, m):
    """(V, matrix) as the caller passes them to mul_mod."""
    if caller == "ghost_report":
        B = ghost_report(spec).kernel
        rest = np.ones(B.shape[1], dtype=bool)
        rest[(B != 0).argmax(axis=1)] = False
        return B[:, rest], point_matrix_fp(spec)[rest]
    rng = np.random.default_rng(spec.q)
    matrix = {"is_ghost_stack": point_matrix_fp,
              "vandermonde_check_stack": incidence_matrix,
              "residues": lambda spec: rng.integers(0, spec.p,
                                                    RESIDUE_SHAPES[str(spec)]),
              }[caller](spec)
    return rng.integers(0, spec.p, (m, matrix.shape[0])), matrix


@pytest.mark.parametrize("caller,field,m", [
    ("is_ghost_stack", "5", 3), ("is_ghost_stack", "23", 70),
    ("vandermonde_check_stack", "5", 3),
    ("vandermonde_check_stack", "13", 100),
    ("ghost_report", "5", None), ("ghost_report", "23", None),
    ("residues", "3^2", 100), ("residues", "61", 70)])
def test_rows_congruent_matches_int64_product(caller, field, m):
    # mul_mod, on the operands and in the blocks of each caller, equals the
    # int64 product mod p in every entry of every block
    spec = FieldSpec.parse(field)
    p = spec.p
    V, matrix = _product_operands(caller, spec, m)
    n, width = matrix.shape
    cols = min(width, block_entries(matrix.size) // n)
    rows = block_entries(matrix.size) // max(n, cols)
    if spec.q == 5:  # one block
        assert width == cols and len(V) <= rows
    else:  # several blocks each way, the last one ragged
        assert width > cols and width % cols
        assert len(V) > rows and len(V) % rows
    want = V.astype(np.int64) @ matrix.astype(np.int64) % p
    got = mul_mod(V, matrix, p)
    assert got.dtype == np.min_scalar_type(p - 1)
    assert got.tolist() == want.tolist()


STACK_PREDICATES = [is_ghost_stack, vandermonde_check_stack]


def _loop_reference(spec, S):
    """The three characterizations of one multiset, by loops over lines."""
    G = phi(S)
    lines = enumerate_lines(spec)
    meets = [S.mult[[P.row for P in line_points(l, spec)]].sum() % spec.p
             for l in lines]
    return (not G.coeffs.any(),
            all(m == S.mult.sum() % spec.p for m in meets),
            all(evaluate(G, l) == 0 for l in lines))


def _mixed_stack(spec):
    """Lines, pencils, kernel rows and their complements, random multisets,
    the empty and the full plane, as an (m, n) int64 stack."""
    P = enumerate_points(spec)[1]
    rows = [line_ghost(l, spec).mult for l in enumerate_lines(spec)[:3]]
    rows += [partial_pencil_ghost(P, lam, spec).mult
             for lam in range(spec.p**(spec.h - 1) + 1)]
    rows += [punctured_pencil_ghost(P, lam, spec).mult
             for lam in range(spec.q // spec.p)]
    kernel = [S.mult for S in ghost_report(spec).kernel_basis[:4]]
    rows += kernel
    rows += [(1 - v.astype(np.int64)) % spec.p for v in kernel]
    rng = random.Random(spec.q)
    n = spec.q**2 + spec.q + 1
    rows += [tuple(rng.randrange(spec.p) for _ in range(n)) for _ in range(8)]
    rows += [(0,) * n, (1,) * n]
    rng.shuffle(rows)
    return np.array(rows, dtype=np.int64)


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2)])
def test_stack_predicates_match_loop_reference(p, h):
    spec = FieldSpec(p, h)
    V = _mixed_stack(spec)
    got = [pred(spec, V) for pred in STACK_PREDICATES]
    got.append(np.array([zero_on_every_line(PointMultiset(spec, v))
                         for v in V]))
    for a in got:
        assert a.dtype == np.bool_ and a.shape == (len(V),)
    want = np.array([_loop_reference(spec, PointMultiset(spec, tuple(v)))
                     for v in V.tolist()])
    assert np.array_equal(np.column_stack(got), want)
    assert want[:, 0].any() and not want[:, 0].all()  # both answers occur
    # the one-multiset forms agree row by row
    for v, row in zip(V.tolist(), want.tolist()):
        S = PointMultiset(spec, tuple(v))
        assert [is_ghost(S), vandermonde_check(S)] == row[:2]


def test_vandermonde_check_in_column_blocks_at_2_5():
    # the meets come in column blocks; the pair below is told from a
    # ghost only by columns 992 on, in the last blocks
    spec = FieldSpec.parse("2^5")
    q, n = spec.q, spec.q**2 + spec.q + 1
    rng = np.random.default_rng(32)
    rows = [rng.integers(0, 2, n) for _ in range(6)]
    rows += [line_ghost(l, spec).mult for l in enumerate_lines(spec)[::150]]
    # (1,b,0) with b = 1/v lies on the lines (1,v,w) and (0,0,1) only.  For
    # v = 30 and 31 those lines are columns 992 on, the second block, so
    # the first block sees every line meet this pair evenly.
    pair = np.zeros(n, dtype=np.int64)
    inv = schoolbook.tables(spec).inv
    for v in (30, 31):
        pair[1 + q + inv[v] * q] = 1
    assert not np.any(pair @ incidence_matrix(spec)[:, :992] % 2)
    rows.append(pair)
    V = np.array(rows, dtype=np.int64)
    got = vandermonde_check_stack(spec, V)
    assert np.array_equal(got, is_ghost_stack(spec, V))
    assert got.any() and not got[-1]


@pytest.mark.parametrize("pred", STACK_PREDICATES)
def test_stack_predicates_on_an_empty_stack(pred):
    spec = FieldSpec(3)
    out = pred(spec, np.zeros((0, 13), dtype=np.int64))
    assert out.shape == (0,) and out.dtype == np.bool_


@pytest.mark.parametrize("pred", STACK_PREDICATES)
def test_stack_predicates_reject_malformed_stacks(pred):
    spec = FieldSpec(3)
    for bad in (np.zeros(13, dtype=np.int64),          # not a stack
                np.zeros((2, 12), dtype=np.int64),     # wrong width
                np.zeros((2, 13)),                     # not integers
                np.full((2, 13), 3, dtype=np.int64),   # entry p
                np.full((2, 13), -1, dtype=np.int64)):
        with pytest.raises(ValueError):
            pred(spec, bad)


def test_product_mod_p_guard():
    # (p-1)^2 * n must stay below 2^53 for the float64 sums to be exact
    p = 2**26 + 1
    V = np.array([[p - 1]])
    assert mul_mod(V, np.array([[p - 1]]), p).tolist() == [[1]]
    with pytest.raises(ArithmeticError):
        mul_mod(np.array([[p - 1, p - 1]]), np.array([[p - 1], [p - 1]]), p)


def test_one_multiset_predicates_return_bool():
    spec = FieldSpec(3)
    for S in (PointMultiset(spec, (1,) * 13),
              PointMultiset.from_vector(spec, [1] + [0] * 12)):
        answers = [is_ghost(S), vandermonde_check(S)]
        assert all(type(a) is bool for a in answers)
        json.dumps(answers)


@pytest.mark.parametrize("texts", [[], ["# mset q=2\n0 0 1\n"],
                                   ["a\tb \"c\"\\", "é\n", ""]])
def test_json_chunks_equal_one_dumps(texts):
    from psghost.ghost import json_chunks
    members = {"q": "2", "count": None, "complete": True}
    assert "".join(json_chunks(members, "list", iter(texts))) == json.dumps(
        {**members, "list": texts}, indent=2)
