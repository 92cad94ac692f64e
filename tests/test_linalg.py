import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from psghost import elim, field, linalg
from psghost.field import FieldSpec, multinomial_int
from psghost.ghost import point_matrix_fp
from test_field import PRIME_POWERS


def test_rank_identity_and_zero():
    assert linalg.rank(np.eye(3, dtype=np.int64), 2) == 3
    assert linalg.rank(np.zeros((4, 5), dtype=np.int64), 3) == 0


def test_rank_point_image_matrix_p7():
    M = point_matrix_fp(FieldSpec(7))
    assert M.shape == (57, 28)
    assert linalg.rank(M, 7) == 28


def test_kernel_identity_empty():
    assert linalg.left_kernel_basis(np.eye(4, dtype=np.int64), 5).shape[0] == 0


def test_kernel_zero_matrix():
    B = linalg.left_kernel_basis(np.zeros((2, 2), dtype=np.int64), 3)
    assert B.shape == (2, 2)
    assert np.array_equal(B, np.eye(2, dtype=np.int64))


def test_kernel_point_image_matrix_q2():
    M = point_matrix_fp(FieldSpec(2))
    B = linalg.left_kernel_basis(M, 2)
    assert B.shape[0] == 4
    assert not np.any(B @ M % 2)


def test_kernel_deterministic_echelon():
    rng = random.Random(0)
    for _ in range(20):
        p = rng.choice([2, 3, 5])
        A = np.array([[rng.randrange(p) for _ in range(4)] for _ in range(6)])
        B1 = linalg.left_kernel_basis(A, p)
        B2 = linalg.left_kernel_basis(A.copy(), p)
        assert np.array_equal(B1, B2)
        # leading entries are ones at strictly increasing columns, and the
        # only nonzero entries in those columns (reduced echelon form)
        lead = [int(np.nonzero(row)[0][0]) for row in B1]
        assert lead == sorted(lead) and len(set(lead)) == len(lead)
        assert np.array_equal(B1[:, lead], np.eye(len(lead), dtype=np.int64))


def test_solve_zero_target():
    M = point_matrix_fp(FieldSpec(2))
    x = linalg.PrefactoredLeftSystem(M, 2).solve(np.zeros(3, dtype=np.int64))
    assert np.array_equal(x, np.zeros(7, dtype=np.int64))


def test_solve_target_z_q2():
    spec = FieldSpec(2)
    M = point_matrix_fp(spec)
    target = np.array([0, 0, 1], dtype=np.int64)  # coefficients of Z
    x = linalg.PrefactoredLeftSystem(M, 2).solve(target)
    assert x is not None
    assert np.array_equal(x @ M % 2, target)
    assert set(x.tolist()) <= {0, 1}


def test_solve_inconsistent_truncated():
    # rows with a = 0 have zero X-coefficient, so X is unreachable
    spec = FieldSpec(2)
    M = point_matrix_fp(spec)[:3]  # points (0,0,1), (0,1,0), (0,1,1)
    target = np.array([1, 0, 0], dtype=np.int64)  # coefficients of X
    assert linalg.PrefactoredLeftSystem(M, 2).solve(target) is None


# field.digits expands a matrix of encodings to prime-subfield coordinates:
# each GF(p^h) entry becomes its h coordinates.

def _expand(spec, rows):
    rows = np.asarray(rows)
    return field.digits(spec, rows).reshape(rows.shape[0], -1)


def test_expand_h1_identity():
    spec = FieldSpec(7)
    assert np.array_equal(_expand(spec, [[3, 5]]), [[3, 5]])


def test_expand_gf4():
    spec = FieldSpec(2, 2)
    assert np.array_equal(_expand(spec, [[2]]), [[0, 1]])  # x


def test_expand_gf9_shape():
    spec = FieldSpec(3, 2)
    out = _expand(spec, [[4, 7]])
    assert out.shape == (1, 4)


def test_expand_commutes_with_fp_row_operations():
    # F_p row operations before or after expansion give the same rank,
    # so the expanded rank is the F_p-dimension of the original row span.
    spec = FieldSpec(3, 2)
    rng = random.Random(4)
    rows = np.array([[rng.randrange(9) for _ in range(3)] for _ in range(5)])
    expanded = _expand(spec, rows)
    two = 2  # the prime-subfield scalar 2 has encoding 2
    mixed = np.vstack([
        rows,
        field.add(spec, field.mul(spec, two, rows[0]), rows[1]),
        field.mul(spec, two, rows[2]),
    ])
    assert linalg.rank(_expand(spec, mixed), 3) == linalg.rank(expanded, 3)


# A square integer matrix has full rank over F_p exactly when its
# determinant is nonzero mod p, the check of elim.verify_procedure; these
# determinants are 2, 0 and 4 over the integers.

def _det_nonzero_mod_p(M, p):
    return linalg.rank(M, p) == len(M)


def test_det_vandermonde():
    M = [[1, 1, 1], [1, 2, 4], [1, 3, 9]]
    assert not _det_nonzero_mod_p(M, 2)
    assert _det_nonzero_mod_p(M, 3) and _det_nonzero_mod_p(M, 5)


def test_det_singular():
    assert not any(_det_nonzero_mod_p([[1, 2], [1, 2]], p)
                   for p in (2, 3, 5, 7))


def test_det_ones_plus_identity():
    M = [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
    assert not _det_nonzero_mod_p(M, 2)
    assert _det_nonzero_mod_p(M, 3)


def test_rank_nullity_random():
    rng = random.Random(1)
    for _ in range(30):
        p = rng.choice([2, 3, 5, 7])
        rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
        A = np.array([[rng.randrange(p) for _ in range(cols)]
                      for _ in range(rows)])
        r = linalg.rank(A, p)
        B = linalg.left_kernel_basis(A, p)
        assert r + B.shape[0] == rows
        if B.shape[0]:
            assert not np.any(B @ A % p)


def _det_leibniz(A):
    n = len(A)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = (-1)**inversions
        for i in range(n):
            term *= A[i][perm[i]]
        total += term
    return total


def test_det_mod_p_vs_rank():
    rng = random.Random(2)
    for _ in range(30):
        p = rng.choice([2, 3, 5, 7])
        n = rng.randrange(1, 6)
        A = [[rng.randrange(-10, 10) for _ in range(n)] for _ in range(n)]
        full_rank = linalg.rank(np.array(A), p) == n
        assert (_det_leibniz(A) % p != 0) == full_rank


def test_solver_prefactored_matches_direct():
    spec = FieldSpec(3)
    M = point_matrix_fp(spec)
    solver = linalg.PrefactoredLeftSystem(M, 3)
    rng = random.Random(6)
    for _ in range(20):
        x0 = np.array([rng.randrange(3) for _ in range(M.shape[0])])
        t = x0 @ M % 3
        x = solver.solve(t)
        assert x is not None
        assert np.array_equal(x @ M % 3, t)


def test_rank_reduces_big_integers_exactly():
    # entries of the weighted image matrix at p = 17, the coefficients
    # C(p-1; i, j) * b^j * c^i of (X+bY+cZ)^(p-1), overflow int64
    p = 17
    weighted = [[multinomial_int(p - 1, i, j) * b**j * c**i
                 for (j, i) in elim.table2_labels(p)]
                for (b, c) in elim.table2_labels(p)]
    assert max(map(max, weighted)) >= 2**63
    assert linalg.rank(weighted, p) == 153
    # numpy reads this list as float64, rounding 2^63 + 1 to an even number
    assert linalg.rank([[2**63 + 1, 1], [1, 1]], 2) == 1


# -- reference elimination in Python integers ---------------------------

def _ref_rref(rows, p, ncols=None):
    """Reduced echelon form by textbook Gaussian elimination on lists of
    Python integers, pivoting on the first nonzero row at or below r."""
    A = [[x % p for x in row] for row in rows]
    pivots, r = [], 0
    for c in range(len(A[0]) if ncols is None else ncols):
        k = next((i for i in range(r, len(A)) if A[i][c]), None)
        if k is None:
            continue
        A[r], A[k] = A[k], A[r]
        inv = pow(A[r][c], -1, p)
        A[r] = [x * inv % p for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [(x - f * y) % p for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
        if r == len(A):
            break
    return A, pivots


def _ref_left_kernel(rows, p):
    """Reduced echelon basis of {x : x @ M = 0}, from the null space of M^T."""
    n = len(rows)
    R, pivots = _ref_rref([list(col) for col in zip(*rows)], p)
    basis = []
    for f in (j for j in range(n) if j not in pivots):
        x = [0] * n
        x[f] = 1
        for k, c in enumerate(pivots):
            x[c] = -R[k][f] % p
        basis.append(x)
    return _ref_rref(basis, p)[0] if basis else []


def _random_low_rank(rng, p, rows, cols):
    """A random matrix of rank at most min(rows, cols) - 1, with entries
    p - 1 made common so that products reach (p - 1)^2."""
    k = max(min(rows, cols) - 1, 1)
    X = [[rng.choice([0, 1, p - 1, rng.randrange(p)]) for _ in range(k)]
         for _ in range(rows)]
    Y = [[rng.choice([0, p - 1, rng.randrange(p)]) for _ in range(cols)]
         for _ in range(k)]
    return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*Y)]
            for row in X]


def _chain(p, k):
    """k pivot rows (e_i, p-1, 0) above one row (p-1, ..., p-1, 0, 1).

    Eliminating column i subtracts (p-1)^2 from the last row's entry in
    column k, so without reduction it reaches -k * (p-1)^2; its inverse
    then shows in column k+1 of the echelon form.
    """
    rows = [[int(c == i) for c in range(k)] + [p - 1, 0] for i in range(k)]
    return rows + [[p - 1] * k + [0, 1]]


def _admits(k, p):
    """Whether rref's bound admits an elimination of at most k pivots mod
    p: each pivot subtracts at most (p-1)^2 from an entry in [0, p-1]."""
    return k * (p - 1)**2 + p < 2**31


def _edge_primes(k):
    """The largest prime that _admits(k, .) and the next prime."""
    p = math.isqrt(2**31 // k) + 1
    while not (field.is_prime(p) and _admits(k, p)):
        p -= 1
    above = p + 1
    while not field.is_prime(above):
        above += 1
    return p, above


def _check_refused(A, p):
    """Each elimination of A mod p raises ArithmeticError."""
    for fn in (linalg.rank, linalg.rref, linalg.left_kernel_basis,
               linalg.PrefactoredLeftSystem):
        with pytest.raises(ArithmeticError):
            fn(np.array(A, dtype=np.int64), p)


def _solves(A, p, rng):
    """PrefactoredLeftSystem(A) solves x @ A = t for a reachable t."""
    x0 = [rng.randrange(p) for _ in A]
    t = [sum(x * a for x, a in zip(x0, col)) % p for col in zip(*A)]
    x = linalg.PrefactoredLeftSystem(np.array(A, dtype=np.int64), p).solve(t)
    return x is not None and [sum(int(x) * a for x, a in zip(x, col)) % p
                              for col in zip(*A)] == t


# 46337 is the largest prime with (p-1)^2 + p < 2^31, so the only one here
# that admits a pivot at all.  3037000493 is the largest prime with
# (p-1)^2 + p < 2^63, the bound of an int64 work array.
@pytest.mark.parametrize("p", [2, 3, 46337, 46349, 65521, 2**31 - 1,
                               3037000493])
def test_delayed_reduction_stays_in_range(p):
    for k in (1, 2, 3, 5):
        A = _chain(p, k)
        # k pivots with ncols=k, k+1 with every column
        for ncols, pivots in ((k, k), (None, k + 1)):
            if _admits(pivots, p):
                R, piv = linalg.rref(np.array(A, dtype=np.int64), p,
                                     ncols=ncols)
                assert (R.tolist(), piv) == _ref_rref(A, p, ncols=ncols)
            else:
                with pytest.raises(ArithmeticError):
                    linalg.rref(np.array(A, dtype=np.int64), p, ncols=ncols)
        if _admits(k + 1, p):
            assert linalg.rank(A, p) == len(_ref_rref(A, p)[1])
        else:
            _check_refused(A, p)


def test_delayed_reduction_bounds():
    # The primes above sit where the comment says they do.
    assert _edge_primes(1) == (46337, 46349)
    assert field.is_prime(3037000493) and field.is_prime(3037000507)
    assert not any(field.is_prime(n) for n in range(3037000494, 3037000507))
    assert 3037000493 + 3037000492**2 < 2**63 <= 3037000507 + 3037000506**2


@pytest.mark.parametrize("k", [1, 2, 3, 5, 13])
def test_elimination_at_the_exactness_bound(k):
    # At the largest prime the bound admits, _chain's last row reaches
    # -k * (p-1)^2 > -2^31 + p with ncols=k, and every elimination of a
    # matrix with k rows or k columns is exact; one prime up, each refuses.
    p, above = _edge_primes(k)
    A = _chain(p, k)
    R, piv = linalg.rref(np.array(A, dtype=np.int64), p, ncols=k)
    assert (R.tolist(), piv) == _ref_rref(A, p, ncols=k)
    with pytest.raises(ArithmeticError):
        linalg.rref(np.array(_chain(above, k), dtype=np.int64), above, ncols=k)
    rng = random.Random(k)
    for rows, cols in ((k, k), (k, k + 3), (k + 3, k)):
        for A in (_random_low_rank(rng, p, rows, cols),
                  [[rng.randrange(p) for _ in range(cols)]
                   for _ in range(rows)]):
            R, piv = linalg.rref(np.array(A, dtype=np.int64), p)
            assert (R.tolist(), piv) == _ref_rref(A, p)
            assert linalg.rank(A, p) == len(piv)
            B = linalg.left_kernel_basis(np.array(A, dtype=np.int64), p)
            assert B.tolist() == _ref_left_kernel(A, p)
            assert _solves(A, p, rng)
            _check_refused(A, above)


def test_prefactored_solve_refuses_products_beyond_int64():
    # T @ t overflowed int64 at p = 2^31 - 1: for this full-rank system
    # solve returned an x with x @ M != t.
    p = 2**31 - 1
    rng = random.Random(2)
    M = [[rng.randrange(p) for _ in range(8)] for _ in range(8)]
    assert len(_ref_rref(M, p)[1]) == 8
    with pytest.raises(ArithmeticError):
        linalg.PrefactoredLeftSystem(np.array(M, dtype=np.int64), p)


def test_the_bound_admits_every_elimination_psghost_runs():
    # ghost_report and tomo eliminate the transpose of the point matrix,
    # its width in monomial coordinates by its points: left_kernel_basis
    # pivots in the points, and PrefactoredLeftSystem in the points of
    # [M^T | I].  At h > 1 the width is h digits per orbit representative.
    for p, h in PRIME_POWERS:
        q = p**h
        points, width = point_matrix_fp(FieldSpec(p, h)).shape
        assert points == q * q + q + 1
        if h == 1:
            assert width == math.comb(q + 1, 2)
        else:
            assert width % h == 0 and width < h * math.comb(q + 1, 2)
        assert _admits(min(width, points), p), q
    # verify_procedure's largest rank checks are p(p+1)/2-square, at each
    # odd prime the CLI takes.
    odd = [p for p, h in PRIME_POWERS if p > 2 and h == 1]
    assert max(odd) == 61
    assert all(_admits(p * (p + 1) // 2, p) for p in odd)
    assert _admits(251 * 252 // 2, 251) and not _admits(257 * 258 // 2, 257)


@pytest.mark.parametrize("p", [3037000507, 4294967311])
def test_rref_refuses_a_modulus_beyond_int64(p):
    # p = 4294967311 used to give wrong ranks without an error: (p-1)^2
    # wraps in int64.
    rng = random.Random(p)
    A = _random_low_rank(rng, p, 3, 3)
    for fn in (linalg.rank, linalg.rref, linalg.left_kernel_basis):
        with pytest.raises(ArithmeticError):
            fn(A, p)


# 46337, 46349 and 65521 admit only an elimination of one pivot, if any;
# the rest refuse.
@pytest.mark.parametrize("p", [2, 3, 181, 191, 46337, 46349, 65521,
                               *_edge_primes(13)])
def test_elimination_matches_python_integer_reference(p):
    rng = random.Random(p)
    for trial in range(40):
        rows, cols = rng.randrange(1, 14), rng.randrange(1, 14)
        if trial % 2:
            A = _random_low_rank(rng, p, rows, cols)
        else:
            A = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
        ncols = rng.randrange(cols + 1)
        if _admits(min(rows, ncols), p):
            R, piv = linalg.rref(np.array(A, dtype=np.int64), p, ncols=ncols)
            assert (R.tolist(), piv) == _ref_rref(A, p, ncols=ncols)
        else:
            with pytest.raises(ArithmeticError):
                linalg.rref(np.array(A, dtype=np.int64), p, ncols=ncols)
        if not _admits(min(rows, cols), p):
            _check_refused(A, p)
            continue
        R_ref, piv_ref = _ref_rref(A, p)
        R, piv = linalg.rref(np.array(A, dtype=np.int64), p)
        assert R.dtype == np.int32 and R.flags.c_contiguous
        assert piv == piv_ref and R.tolist() == R_ref
        # left_kernel_basis's reversed transposed view of M is in Fortran
        # order; a work array kept in that order strides across memory
        R, piv = linalg.rref(np.array(A, dtype=np.int64).T[:, ::-1], p)
        assert R.dtype == np.int32 and R.flags.c_contiguous
        assert (R.tolist(), piv) == _ref_rref([r[::-1] for r in zip(*A)], p)
        assert linalg.rank(A, p) == len(piv_ref)
        B = linalg.left_kernel_basis(np.array(A, dtype=np.int64), p)
        assert B.tolist() == _ref_left_kernel(A, p)


def test_as_fp_takes_a_matrix_only():
    for M in ([1, 2, 3], np.zeros((2, 2, 2), dtype=np.int64), 5):
        with pytest.raises(ValueError, match="expected a 2-d matrix"):
            linalg.as_fp(M, 3)


@pytest.mark.parametrize("M,entry", [
    (np.array([[1.5, 0], [0, 1]]), "1.5"),       # rank was 2
    ([[2**70, 1], [Fraction(7, 2), 1]], "Fraction(7, 2)"),
    (np.array([[1.0, 0], [0, 1]]), "1.0"),
    (np.array([[1, 0], ["1", 1]], dtype=object), "'1'"),
])
def test_as_fp_refuses_non_integers(M, entry):
    with pytest.raises(ValueError) as e:
        linalg.as_fp(M, 3)
    assert str(e.value) == f"entry {entry} is not an integer"
    # these read M in another order, so may name another entry
    for reduce in (linalg.rank, linalg.left_kernel_basis):
        with pytest.raises(ValueError, match="is not an integer"):
            reduce(M, 3)


def test_prefactored_solve_checks_the_target_length():
    solver = linalg.PrefactoredLeftSystem(np.eye(3, dtype=np.int64), 5)
    assert solver.solve([1, 2, 3]).tolist() == [1, 2, 3]
    for target in ([1, 2], [1, 2, 3, 4], [[1, 2, 3]]):
        with pytest.raises(ValueError, match="target length"):
            solver.solve(target)


def test_prefactored_solve_reads_its_target_exactly():
    # the target was cast to int64: 1.5 was solved as 1, 2^70 raised
    # OverflowError and a uint64 above 2^63 wrapped around
    solver = linalg.PrefactoredLeftSystem(np.eye(2, dtype=np.int64), 5)
    with pytest.raises(ValueError, match="is not an integer"):
        solver.solve([1.5, 1])
    assert solver.solve([2**70, 1]).tolist() == [2**70 % 5, 1]
    big = np.array([2**64 - 1, 2**63 + 7], dtype=np.uint64)
    assert solver.solve(big).tolist() == [(2**64 - 1) % 5, (2**63 + 7) % 5]


def test_as_fp_is_exact_on_uint64_beyond_int64():
    # uint64 values >= 2^63 have no int64 form; they are reduced as Python
    # integers
    A = np.array([[2**63, 2**64 - 1], [2**63 + 5, 7]], dtype=np.uint64)
    for p in (3, 251, 65521, 2**61 - 1):
        R = linalg.as_fp(A, p)
        assert R.tolist() == [[int(v) % p for v in row] for row in A.tolist()]
        assert R.dtype == np.min_scalar_type(p - 1)
    assert linalg.rank(A, 3) == 2  # [[2, 0], [1, 1]] mod 3


def test_as_fp_on_bool_object_and_narrow_arrays():
    B = np.array([[True, False], [False, True]])
    assert linalg.as_fp(B, 2).tolist() == [[1, 0], [0, 1]]
    assert linalg.as_fp(B, 2).dtype == np.uint8
    obj = np.array([[2**70 + 1, -(2**65)], [-1, 5]], dtype=object)
    assert linalg.as_fp(obj, 7).tolist() == [
        [(2**70 + 1) % 7, -(2**65) % 7], [6, 5]]
    # narrow dtypes: negatives, and a p the dtype cannot hold
    for dtype in (np.int8, np.int16, np.int32, np.uint8, np.uint16):
        A = np.array([[0, 1, 100], [127, 5, 3]], dtype=dtype)
        if np.issubdtype(dtype, np.signedinteger):
            A[1, 1] = -100
        for p in (2, 13, 257, 70001):
            assert linalg.as_fp(A, p).tolist() == [
                [int(v) % p for v in row] for row in A.tolist()]
    # a fresh array each time: the caller's matrix is never the result
    M = np.array([[1, 2]], dtype=np.uint8)
    assert not np.shares_memory(linalg.as_fp(M, 5), M)


def test_left_kernel_basis_in_the_residue_dtype():
    B = linalg.left_kernel_basis(np.zeros((3, 2), dtype=np.int64), 251)
    assert B.dtype == np.uint8 and B.tolist() == np.eye(3).tolist()
    B = linalg.left_kernel_basis([[1, 1], [1, 1], [2, 2]], 257)
    assert B.dtype == np.uint16
    assert not (B.astype(np.int64) @ np.array([[1, 1], [1, 1], [2, 2]])
                % 257).any()
