"""Exact linear algebra over F_p.

One elimination routine serves rank, left kernel and the prefactored
solver; `rref` returns its echelon form.  It works in int32 and reduces
mod p once, at the end (delayed reduction: Dumas, Giorgi and Pernet, ACM
TOMS 35(3), 2008).  A pivot subtracts at most (p-1)^2 from an entry, so
an elimination with at most k pivots stays exact while k * (p-1)^2 + p <
2^31, and `rref` refuses any other before it starts.  Each update runs
over row slices of the rows it changes, so its temporaries stay within
`block_entries` of the work array.  Pivoting is deterministic (first
nonzero in column order) so echelon forms and kernel bases are
byte-reproducible.  The kernel orientation is the left kernel: vectors
index rows (points), columns index monomial coordinates.
"""

from __future__ import annotations

import operator

import numpy as np


def block_entries(size: int) -> int:
    """Entries in one block of a temporary made from an operand of `size`
    entries: a sixteenth of it, so that a large operand still goes in a
    few large steps, and at least 2^14 (128 KiB in float64), so that a
    small one goes in few steps without raising a small report's peak."""
    return max(2**14, size // 16)


def as_fp(M, p: int) -> np.ndarray:
    """M reduced mod p, as a new array in the smallest unsigned dtype that
    holds p-1 (uint8 for p <= 256).

    Bool and fixed-width integer arrays are reduced by numpy, in their own
    dtype when p fits it.  Anything else is reduced exactly, as Python
    integers, before the cast (numpy reads integers beyond int64 as object,
    uint64 or float64 arrays, and mixes uint64 with signed integers through
    float64); an entry that operator.index refuses is a ValueError.
    """
    A = np.asarray(M)
    if A.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    residues = np.min_scalar_type(p - 1)
    if A.dtype.kind not in "biu" or A.dtype == np.uint64 or p >= 2**63:
        E = np.array(M, dtype=object)
        if bad := [x for x in E.flat if not hasattr(type(x), "__index__")]:
            raise ValueError(f"entry {bad[0]!r} is not an integer")
        return (np.frompyfunc(operator.index, 1, 1)(E) % p).astype(residues)
    if A.dtype.kind == "b":
        return A.astype(residues)
    if p > np.iinfo(A.dtype).max:
        A = A.astype(np.int64)
    return (A % A.dtype.type(p)).astype(residues, copy=False)


def mul_mod(V, M, p: int) -> np.ndarray:
    """V @ M mod p for an (m, n) V and an (n, w) M with entries in
    {0,...,p-1}, in the residue dtype of as_fp.

    The product is taken in float64 (BLAS), a block of V's rows by a block
    of M's columns at a time; each factor's block and their product hold
    at most block_entries(M.size) entries, and a factor's block is freed
    before its next one is built, so no float64 copy of a whole factor is
    made.  It is exact while every sum of n products, at most
    (p-1)^2 * n, is below 2^53; ArithmeticError otherwise.  A block R is
    reduced as R - p * floor(R / p) in one temporary: R / p rounds by at
    most half an ulp, less than 1/p, so its floor is exact.
    """
    n, width = M.shape
    if (p - 1)**2 * n >= 2**53:
        raise ArithmeticError(f"a sum of {n} products mod {p} would not be "
                              "exact in float64")
    out = np.empty((len(V), width), dtype=np.min_scalar_type(p - 1))
    block = block_entries(M.size)
    cols = max(1, min(width, block // n))
    rows = max(1, block // max(n, cols))
    for j in range(0, width, cols):
        right = M[:, j:j + cols].astype(np.float64)
        for i in range(0, len(V), rows):
            R = V[i:i + rows].astype(np.float64) @ right
            F = R / p
            R -= np.multiply(np.floor(F, out=F), p, out=F)
            out[i:i + rows, j:j + cols] = R
        del right
    return out


def rref(M, p: int, ncols: int | None = None):
    """Reduced row-echelon form over F_p.

    Returns (R, pivots): pivots are the pivot column indices and R is the
    C-ordered int32 work array, every entry reduced to {0,...,p-1}.  Pivots
    are searched only in the first ncols columns (all columns by default);
    the remaining columns take part in every row operation.

    The work array starts from the residues of M, read from an array a
    block of rows at a time.  The pivot column and row are reduced when
    read, so each of at most k = min(rows, ncols) pivots subtracts
    products in [0, (p-1)^2] and entries stay in [-k * (p-1)^2, p-1]
    until the one reduction at the end; ArithmeticError unless
    k * (p-1)^2 + p < 2^31.  A pivot updates the rows with a nonzero in
    its column a slice of rows at a time, each slice and its outer
    product at most block_entries(A.size) entries.
    """
    # numpy reads big integers in a list inexactly: a list is reduced whole
    M = M if isinstance(M, np.ndarray) and M.ndim == 2 else as_fp(M, p)
    rows, cols = M.shape
    ncols = cols if ncols is None else ncols
    if min(rows, ncols) * (p - 1)**2 + p >= 2**31:
        raise ArithmeticError(f"eliminating {rows}x{ncols} mod {p} could "
                              "overflow int32")
    A = np.empty(M.shape, dtype=np.int32)
    block = block_entries(A.size)
    step = max(1, block // max(1, cols))
    for i in range(0, rows, step):
        A[i:i + step] = as_fp(M[i:i + step], p)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == rows:
            break
        col = A[:, c] % p
        nz = col[r:].nonzero()[0]
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        inverse = pow(int(col[k]), -1, p)
        if k != r:
            A[[r, k]] = A[[k, r]]
            col[k] = col[r]
        col[r] = 0
        # Rows at or below r are 0 mod p left of c, so the update starts at c.
        pivot_row = A[r, c:]
        pivot_row %= p
        pivot_row *= inverse
        pivot_row %= p
        others = col.nonzero()[0]
        step = max(1, block // pivot_row.size)
        for i in range(0, others.size, step):
            part = others[i:i + step]
            A[part, c:] -= col[part, None] * pivot_row
        pivots.append(c)
        r += 1
    A %= p
    return A, pivots


def rank(M, p: int) -> int:
    return len(rref(M, p)[1])


def left_kernel_basis(M, p: int) -> np.ndarray:
    """Echelonized basis of {x : x @ M = 0 (mod p)}.

    Rows of the returned array are the basis vectors, with leading-one
    pivots, deterministic across runs, in the residue dtype of as_fp.  It
    is the kernel's reduced echelon form, read off one elimination of M^T
    with its columns reversed: each free column f gives the vector with 1
    at f, 0 at the other free columns and -R[k, f] at the pivot column of
    row k.
    """
    # rref reduces an array itself; numpy would read a list of big
    # integers inexactly, so only a list is reduced here.
    A = M if isinstance(M, np.ndarray) else as_fp(M, p)
    R, pivots = rref(A.T[:, ::-1], p)
    n = R.shape[1]
    is_free = np.ones(n, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)[::-1]
    # Column j of the reversed system is column n-1-j of x.
    B = np.zeros((free.size, n), dtype=np.min_scalar_type(p - 1))
    B[np.arange(free.size), n - 1 - free] = 1
    np.subtract(p, R, out=R)
    R %= p
    B[:, n - 1 - np.asarray(pivots, dtype=np.int64)] = R[:len(pivots), free].T
    return B


class PrefactoredLeftSystem:
    """Repeated left-solves x @ M = t against a fixed matrix.

    Eliminates [M^T | I] once, pivoting only in the M^T block, so the
    identity block becomes the transform T with T @ M^T in echelon form;
    each solve reads its target exactly, through as_fp, takes one mul_mod
    and checks consistency on the non-pivot rows.
    """

    def __init__(self, M, p: int):
        self.p = p
        A = as_fp(M, p).T  # solve A y = t with y = x
        m, self.n_unknowns = A.shape
        R, self.pivots = rref(np.hstack([A, np.eye(m, dtype=A.dtype)]), p,
                              ncols=self.n_unknowns)
        self.T = as_fp(R[:, self.n_unknowns:], p)

    def solve(self, target):
        if np.shape(target) != (self.T.shape[0],):
            raise ValueError("target length must equal the column count")
        tp = mul_mod(self.T, as_fp([target], self.p).T, self.p)[:, 0]
        r = len(self.pivots)
        if np.any(tp[r:]):
            return None
        x = np.zeros(self.n_unknowns, dtype=np.int64)
        x[self.pivots] = tp[:r]
        return x

