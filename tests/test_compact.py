"""Compact residue arrays: the cached matrices and the ghost kernel are
read-only arrays of the smallest unsigned dtype, and every product over
them is taken in a wider dtype, so results equal int64 references even
where a uint8 sum would wrap (q = 13: 183 products up to 12^2 per sum).
"""

import random
import tracemalloc

import numpy as np
import pytest

from psghost import ghost, linalg, msets, poly, tomo
from psghost.cli import main
from psghost.field import FieldSpec
from psghost.msets import PointMultiset, mset_texts, mset_to_text
from psghost.plane import enumerate_points

GF13 = FieldSpec(13)


@pytest.mark.parametrize("field", ["13", "2^3", "3^2"])
def test_cached_arrays_are_read_only(field):
    # a caller's `M %= 2` on a cached array used to change every later
    # result over that field
    spec = FieldSpec.parse(field)
    for build in (poly.point_image_rows, poly.point_matrix_fp,
                  ghost.incidence_matrix):
        M = build(spec)
        before = M.copy()
        with pytest.raises(ValueError, match="read-only"):
            M %= 2
        with pytest.raises(ValueError, match="read-only"):
            M[0, 0] = 1
        assert np.array_equal(build(spec), before)
    with pytest.raises(ValueError, match="read-only"):
        ghost.ghost_report(spec).kernel[0] = 0


@pytest.mark.parametrize("field", ["13", "23", "2^4", "3^2"])
def test_report_arrays_are_residues_of_the_smallest_dtype(field):
    spec = FieldSpec.parse(field)
    M = poly.point_matrix_fp(spec)
    report = ghost.ghost_report(spec)
    assert M.dtype == report.kernel.dtype == np.uint8
    assert poly.point_image_rows(spec).dtype == np.uint8
    assert M.max() < spec.p and report.kernel.max() < spec.p
    assert report.kernel.shape == (report.ghost_exponent,
                                   spec.q**2 + spec.q + 1)
    rows = report.kernel.tolist()
    assert [list(S.mult) for S in report.kernel_basis] == rows


def _random_stack(spec, rows, seed):
    rng = random.Random(seed)
    n = spec.q**2 + spec.q + 1
    return np.array([[rng.randrange(spec.p) for _ in range(n)]
                     for _ in range(rows)], dtype=np.int64)


def test_power_sum_matches_int64_reference():
    M64 = poly.point_matrix_fp(GF13).astype(np.int64)
    for mult in _random_stack(GF13, 5, 1):
        G = poly.power_sum(PointMultiset.from_vector(GF13, mult))
        assert G.coeffs.tolist() == (mult @ M64 % 13).tolist()


def test_is_ghost_stack_matches_int64_reference():
    M64 = poly.point_matrix_fp(GF13).astype(np.int64)
    kernel = ghost.ghost_report(GF13).kernel
    V = np.vstack([_random_stack(GF13, 6, 2), kernel[:6],
                   (kernel[:6].astype(np.int64) * 12) % 13])
    want = ~(V @ M64 % 13).any(axis=1)
    assert want[6:].all() and not want[:6].any()
    for stack in (V, V.astype(np.uint8)):
        assert ghost.is_ghost_stack(GF13, stack).tolist() == want.tolist()


def test_prefactored_solve_matches_int64_reference():
    M = poly.point_matrix_fp(GF13)
    compact = linalg.PrefactoredLeftSystem(M, 13)
    wide = linalg.PrefactoredLeftSystem(M.astype(np.int64), 13)
    for x0 in _random_stack(GF13, 5, 3):
        t = x0 @ M.astype(np.int64) % 13
        x = compact.solve(t)
        assert np.array_equal(x, wide.solve(t))
        assert np.array_equal(x @ M.astype(np.int64) % 13, t)


def test_exhaustive_set_search_matches_int64_reference():
    # the coset walk against a filter over all 2^n subsets
    for q, mult in [(2, [1, 0, 1, 1, 0, 0, 1]),
                    (3, [1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 1, 0, 0])]:
        spec = FieldSpec(q)
        M64 = poly.point_matrix_fp(spec).astype(np.int64)
        S = PointMultiset.from_vector(spec, mult)
        n = len(mult)
        target = np.array(S.mult) @ M64 % q
        bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
        hits = bits[(bits @ M64 % q == target).all(1)]
        want = sorted(map(tuple, hits.tolist()))
        got = tomo.enumerate_set_solutions(poly.power_sum(S), 10**4)
        assert [tuple(T.mult.tolist()) for T in got] == want
        assert tuple(S.mult.tolist()) in want


def _reference_text(spec, mult):
    """The `# mset` text of one row, point by point."""
    pts = enumerate_points(spec)
    lines = [f"# mset q={spec}"]
    lines += [str(pts[k]) if m == 1 else f"{pts[k]} : {m}"
              for k, m in enumerate(mult) if m]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("field", ["23", "2^4"])
def test_kernel_texts_equal_per_point_reference(field):
    spec = FieldSpec.parse(field)
    kernel = ghost.ghost_report(spec).kernel
    assert list(mset_texts(spec, kernel)) == [
        _reference_text(spec, row) for row in kernel.tolist()]
    n = spec.q**2 + spec.q + 1
    assert list(mset_texts(spec, np.zeros((0, n), dtype=np.uint8))) == []


def test_mset_texts_hold_no_index_of_the_whole_stack():
    # one np.flatnonzero over the whole kernel held an int64 index of all
    # its nonzeros while the texts were written: 344 KiB at 23, where the
    # texts peaked at 435 KiB (38 KiB row by row)
    spec = FieldSpec(23)
    kernel = ghost.ghost_report(spec).kernel
    msets._point_labels(spec)
    texts = mset_texts(spec, kernel)
    tracemalloc.start()
    try:
        for _ in texts:
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < np.count_nonzero(kernel) * 8 / 4


def test_mset_texts_of_a_stack_with_empty_rows():
    spec = FieldSpec(5)
    V = _random_stack(spec, 4, 4)
    V[[0, 2]] = 0
    V[3, -1] = 0
    want = [_reference_text(spec, row) for row in V.tolist()]
    assert list(mset_texts(spec, V)) == want
    assert want[0] == "# mset q=5\n"
    assert mset_to_text(PointMultiset.from_vector(spec, V[1])) == want[1]


def test_ghost_report_holds_compact_arrays(tmp_path):
    # int64 copies of the point matrix and the kernel, a PointMultiset per
    # kernel row and the whole JSON text peaked at 4.3 MiB here.
    spec = FieldSpec.parse("2^4")
    msets._point_labels(spec)
    for cached in (poly.point_image_rows, poly.point_matrix_fp,
                   ghost.ghost_report):
        cached.cache_clear()
    tracemalloc.start()
    try:
        assert main(["ghost-report", "--field", "2^4", "--format", "json",
                     "--out", str(tmp_path / "report.json")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_left_kernel_basis_updates_in_row_slices():
    # each pivot updated all its rows at once, through two temporaries the
    # size of the trailing block: 6.17 MiB against a 1.88 MiB work array
    M = poly.point_matrix_fp(FieldSpec(31))
    work = M.size * np.dtype(np.int32).itemsize
    tracemalloc.start()
    try:
        linalg.left_kernel_basis(M, 31)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * work


def test_rref_fills_its_work_array_in_blocks():
    # rref read a whole uint8 residue copy of M into its int32 work array;
    # it set the 13.31 MiB peak of left_kernel_basis at 2^5: the 10.64 MiB
    # work array plus 2.66 MiB of copy.  ncols=0 runs the fill alone.
    spec = FieldSpec.parse("2^5")
    M = poly.point_matrix_fp(spec)
    work = M.size * np.dtype(np.int32).itemsize
    tracemalloc.start()
    try:
        linalg.rref(M.T, spec.p, ncols=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < work + M.nbytes / 4


def test_is_ghost_stack_makes_no_float64_copy_of_the_point_matrix():
    # the whole point matrix in float64 is 8 times its uint8 size
    spec = FieldSpec.parse("3^3")
    M = poly.point_matrix_fp(spec)
    V = _random_stack(spec, 4, 27)
    tracemalloc.start()
    try:
        ghost.is_ghost_stack(spec, V)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * M.nbytes
