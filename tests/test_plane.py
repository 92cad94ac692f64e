import tracemalloc

import numpy as np
import pytest

import schoolbook
from psghost.field import FieldSpec
from psghost.plane import (ProjLine, ProjPoint, canonical_triples,
                           enumerate_lines, enumerate_points, incidence_matrix,
                           line_points, pencil_lines, point_row, point_rows)


def incident(P, line):
    """Reference incidence: u*a + v*b + w*c = 0, one schoolbook product
    at a time."""
    add, mul, _, _ = schoolbook.tables(P.spec)
    acc = 0
    for x, y in zip(P.encodings(), line.encodings()):
        acc = add[acc, mul[x, y]]
    return acc == 0


def incidence_reference(spec):
    """Reference incidence matrix: all (q^2+q+1)^2 dot products at once,
    on the schoolbook tables."""
    add, mul, _, _ = schoolbook.tables(spec)
    T = canonical_triples(spec)
    terms = [mul[T[:, None, k], T[None, :, k]] for k in range(3)]
    return (add[add[terms[0], terms[1]], terms[2]] == 0).astype(np.int64)


@pytest.mark.parametrize("q,p,h,count", [(2, 2, 1, 7), (3, 3, 1, 13),
                                         (7, 7, 1, 57)])
def test_point_counts(q, p, h, count):
    spec = FieldSpec(p, h)
    points = enumerate_points(spec)
    assert len(points) == count == q * q + q + 1
    assert len(set(points)) == count
    assert [point_row(spec, P) for P in points] == list(range(count))


def test_enumeration_order_q2():
    spec = FieldSpec(2)
    encs = [P.encodings() for P in enumerate_points(spec)]
    assert encs == [(0, 0, 1), (0, 1, 0), (0, 1, 1),
                    (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)]


def test_incident_examples():
    spec = FieldSpec(2)
    P = ProjPoint.from_encodings(spec, 0, 0, 1)
    assert incident(P, ProjLine.from_encodings(spec, 1, 0, 0))
    assert not incident(P, ProjLine.from_encodings(spec, 0, 0, 1))
    gf7 = FieldSpec(7)
    # 1*1 + 2*1 + 3*2 = 9 = 2 != 0 mod 7
    assert not incident(ProjPoint.from_encodings(gf7, 1, 2, 3),
                        ProjLine.from_encodings(gf7, 1, 1, 2))


def test_line_points_q2():
    spec = FieldSpec(2)
    pts = line_points(ProjLine.from_encodings(spec, 1, 0, 0), spec)
    assert {P.encodings() for P in pts} == {(0, 0, 1), (0, 1, 0), (0, 1, 1)}
    pts = line_points(ProjLine.from_encodings(spec, 0, 0, 1), spec)
    assert {P.encodings() for P in pts} == {(0, 1, 0), (1, 0, 0), (1, 1, 0)}


def test_line_sizes_q3():
    spec = FieldSpec(3)
    for l in enumerate_lines(spec):
        assert len(line_points(l, spec)) == 4


def test_pencil_q2():
    spec = FieldSpec(2)
    P = ProjPoint.from_encodings(spec, 0, 0, 1)
    assert len(pencil_lines(P, spec)) == 3


def test_pencil_q7_pairwise_meet_only_at_vertex():
    spec = FieldSpec(7)
    P = enumerate_points(spec)[10]
    pencil = pencil_lines(P, spec)
    assert len(pencil) == 8
    for i in range(len(pencil)):
        for j in range(i + 1, len(pencil)):
            common = set(line_points(pencil[i], spec)) & set(
                line_points(pencil[j], spec))
            assert common == {P}


def test_pencil_union_covers_plane_q4():
    spec = FieldSpec(2, 2)
    P = enumerate_points(spec)[3]
    pencil = pencil_lines(P, spec)
    assert len(pencil) == 5
    union = {Q for l in pencil for Q in line_points(l, spec)}
    assert len(union) == 21


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2)])
def test_incidence_invariants(p, h):
    spec = FieldSpec(p, h)
    q = spec.q
    inc = incidence_matrix(spec)
    n = q * q + q + 1
    assert inc.shape == (n, n)
    assert np.all(inc.sum(axis=0) == q + 1)  # points per line
    assert np.all(inc.sum(axis=1) == q + 1)  # lines per point
    # two distinct points lie on exactly one common line
    common = inc @ inc.T
    off_diag = common - np.diag(np.diag(common))
    assert np.all(off_diag + np.eye(n, dtype=np.int64) * (q + 1)
                  == np.where(np.eye(n) > 0, q + 1, 1))


def test_duality():
    for p, h in [(2, 1), (3, 1), (2, 2)]:
        spec = FieldSpec(p, h)
        pts = {P.encodings() for P in enumerate_points(spec)}
        lns = {l.encodings() for l in enumerate_lines(spec)}
        assert pts == lns


def test_normalization_idempotent():
    spec = FieldSpec(7)
    P = ProjPoint.from_encodings(spec, 1, 2, 3)
    assert P.encodings() == (1, 2, 3)
    mul = schoolbook.tables(spec).mul
    for lam in range(1, 7):
        Q = ProjPoint.from_encodings(
            spec, *(int(mul[lam, x]) for x in P.encodings()))
        assert Q == P and Q.encodings() == P.encodings()


def test_all_zero_rejected():
    # and each encoding is checked first, with the field's own message
    spec = FieldSpec(7)
    for t, message in [((0, 0, 0), "projective coordinates cannot be all "
                                   "zero"),
                       ((7, 0, 1), "encoding 7 out of range for GF(7)"),
                       ((0, 0, -1), "encoding -1 out of range for GF(7)")]:
        with pytest.raises(ValueError) as err:
            ProjPoint.from_encodings(spec, *t)
        assert str(err.value) == message
    with pytest.raises(TypeError):
        ProjPoint.from_encodings(spec, 1.0, 0, 0)


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2)])
def test_incidence_matrix_matches_scalar_incident(p, h):
    spec = FieldSpec(p, h)
    points = enumerate_points(spec)
    inc = incidence_matrix(spec)
    expected = [[int(incident(P, l)) for l in enumerate_lines(spec)]
                for P in points]
    assert np.array_equal(inc, expected)


def test_line_points_and_pencils_read_the_incidence_matrix():
    spec = FieldSpec(3, 2)
    points = enumerate_points(spec)
    for k in (0, 17, len(points) - 1):
        P = points[k]
        assert pencil_lines(P, spec) == [l for l in enumerate_lines(spec)
                                         if incident(P, l)]
        assert line_points(P, spec) == [Q for Q in points if incident(Q, P)]


def test_one_type_for_points_and_lines():
    spec = FieldSpec(2, 2)
    assert ProjLine is ProjPoint
    assert enumerate_lines is enumerate_points
    assert pencil_lines is line_points


@pytest.mark.parametrize("text", ["2", "3", "2^2", "5", "7", "2^3", "3^2",
                                  "11", "13", "2^4", "17", "19", "23", "5^2",
                                  "3^3"])
def test_incidence_matrix_matches_dot_product_reference(text):
    spec = FieldSpec.parse(text)
    inc = incidence_matrix(spec)
    assert inc.dtype == np.uint8 and not inc.flags.writeable
    assert np.array_equal(inc, incidence_reference(spec))
    assert np.array_equal(inc, inc.T)
    assert np.all(inc.sum(axis=0) == spec.q + 1)
    assert np.all(inc.sum(axis=1) == spec.q + 1)


def test_incidence_matrix_is_built_from_the_points_of_each_line():
    # all 993^2 int64 dot products at q = 31 peaked at 45 MiB; the q+1
    # points of each line and the uint8 matrix take about 3 MiB
    spec = FieldSpec(31)
    canonical_triples(spec), spec.exp
    tracemalloc.start()
    try:
        inc = incidence_matrix.__wrapped__(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(inc, incidence_matrix(spec))
    assert peak < 4 * 2**20


@pytest.mark.parametrize("text", ["2", "3", "2^2", "5", "7", "2^3", "3^2"])
def test_point_rows_of_every_multiple_of_every_triple(text):
    # against the object route: from_encodings divides by the first
    # nonzero coordinate, point_row reads the point's row
    spec = FieldSpec.parse(text)
    T = canonical_triples(spec)
    lam = np.arange(1, spec.q)[:, None, None]
    scaled = schoolbook.tables(spec).mul[T[None], lam]  # (q-1, n, 3)
    rows = point_rows(spec, scaled)
    assert rows.shape == (spec.q - 1, len(T))
    assert (rows == np.arange(len(T))).all()
    for t in scaled.reshape(-1, 3)[::7].tolist():
        assert point_rows(spec, [t]).tolist() == [
            point_row(spec, ProjPoint.from_encodings(spec, *t))]
    assert point_rows(spec, np.zeros((0, 3), dtype=np.int64)).shape == (0,)


def test_a_point_of_another_plane_is_a_value_error():
    from psghost.ghost import (line_ghost, partial_pencil_ghost,
                               punctured_pencil_ghost)
    from psghost.msets import PointMultiset
    spec = FieldSpec(7)
    foreign = ProjPoint.from_encodings(FieldSpec(5), 1, 2, 3)
    # a point is its row, so there is no unnormalized point to pass
    for row in (57, -1, 2.0):
        with pytest.raises(ValueError, match="is not a point of PG"):
            ProjPoint(spec, row)
    calls = [lambda P: PointMultiset.from_points(spec, [P]),
             lambda P: point_row(spec, P),
             lambda P: line_points(P, spec),
             lambda P: pencil_lines(P, spec),
             lambda P: line_ghost(P, spec),
             lambda P: partial_pencil_ghost(P, 0, spec),
             lambda P: punctured_pencil_ghost(P, 0, spec)]
    for call in calls:
        with pytest.raises(ValueError) as err:
            call(foreign)
        assert str(err.value) == ("point 1 2 3 is not a normalized point "
                                  "over GF(7)")


@pytest.mark.parametrize("text", ["2", "3", "2^2", "5", "7", "2^3", "3^2"])
def test_a_row_outside_the_plane_is_refused(text):
    spec = FieldSpec.parse(text)
    n = spec.q**2 + spec.q + 1
    for row in (n, -1, 1.0, "1", None):
        with pytest.raises(ValueError) as err:
            ProjPoint(spec, row)
        assert str(err.value) == (f"row {row!r} is not a point of "
                                  f"PG(2,{spec}): rows are the ints in "
                                  f"[0, {n})")
    assert ProjPoint(spec, np.int64(n - 1)) == ProjPoint(spec, n - 1)
    assert type(ProjPoint(spec, np.int64(n - 1)).row) is int


@pytest.mark.parametrize("text", ["2", "3", "2^2", "5", "7", "2^3", "3^2"])
def test_encodings_invert_the_row_formula(text):
    spec = FieldSpec.parse(text)
    T = canonical_triples(spec).tolist()
    assert [list(ProjPoint(spec, r).encodings()) for r in range(len(T))] == T
    assert [ProjPoint.from_encodings(spec, *t).row for t in T] == list(
        range(len(T)))
    assert [str(P) for P in enumerate_points(spec)] == [
        " ".join(map(str, t)) for t in T]

