"""Ghosts: multisets whose power sum polynomial vanishes identically.

Ghost predicates, known ghost constructors (lines, partial pencils,
punctured pencils), the constant-line-intersection characterization, and
the kernel description of the ghost subgroup with its size exponent.

The fast paths go through a cached prime-subfield point-image matrix: the
power sum polynomial of a multiset, in F_p coordinates, is the
multiplicity vector times that matrix mod p.  Each predicate takes an
(m, q^2+q+1) stack of multiplicity vectors and answers every row with one
exact product, which rows_congruent takes in float64 blocks; the
PointMultiset forms wrap a one-row stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import field, linalg
from .field import FieldSpec
from .msets import PointMultiset, mset_texts, mult_stack
from .plane import (ProjLine, ProjPoint, canonical_triples, incidence_matrix,
                    point_row)
from .poly import monomial_values, point_matrix_fp


@lru_cache(maxsize=None)
def line_evaluation_matrix_fp(spec: FieldSpec) -> np.ndarray:
    """(q^2+q+1) x (h*(q^2+q+1)) matrix over F_p.

    mult @ matrix mod p gives, per line, the h coordinates of the power sum
    polynomial evaluated at that line.  Built by composing the point-image
    matrix with the (F_p-linear) monomial evaluation map at each line, which
    sends coordinate k of a coefficient (x^k, encoding p^k) to the digits of
    x^k times the monomial's value.  Read-only.
    """
    values = monomial_values(spec, canonical_triples(spec))  # lines x monos
    basis = spec.p ** np.arange(spec.h)
    D = field.digits(spec, field.mul(spec, values[:, :, None], basis))
    n_lines, n_monos = values.shape
    E = D.transpose(1, 2, 0, 3).reshape(n_monos * spec.h, n_lines * spec.h)
    L = point_matrix_fp(spec) @ E % spec.p
    L.flags.writeable = False
    return L


def rows_congruent(V, matrix: np.ndarray, p: int, target=0) -> np.ndarray:
    """Per row of an (m, n) stack V: V @ matrix = target (mod p) in every
    column, with target broadcast to the product's shape.

    The product is taken in float64 (BLAS), a block of V's rows by a block
    of matrix's columns at a time; each factor's block and their product
    hold at most linalg.block_entries(matrix.size) entries, so no float64
    copy of a whole factor is made.  Entries of V and matrix must lie in
    {0,...,p-1}.  The product is exact while every sum of n such products,
    at most (p-1)^2 * n, is below 2^53; ArithmeticError otherwise.  A block
    R is reduced as R - p * floor(R / p) in one temporary: R / p rounds by
    at most half an ulp, less than 1/p, so its floor is exact.
    """
    V = np.asarray(V)
    n, width = matrix.shape
    if (p - 1)**2 * n >= 2**53:
        raise ArithmeticError(f"a sum of {n} products mod {p} would not be "
                              "exact in float64")
    target = np.broadcast_to(target, (len(V), width))
    block = linalg.block_entries(matrix.size)
    cols = max(1, min(width, block // n))
    rows = max(1, block // max(n, cols))
    ok = np.ones(len(V), dtype=bool)
    for j in range(0, width, cols):
        right = matrix[:, j:j + cols].astype(np.float64)
        for i in range(0, len(V), rows):
            R = V[i:i + rows].astype(np.float64) @ right
            F = R / p
            R -= np.multiply(np.floor(F, out=F), p, out=F)
            ok[i:i + rows] &= (R == target[i:i + rows, j:j + cols]).all(axis=1)
    return ok


def is_ghost_stack(spec: FieldSpec, V) -> np.ndarray:
    """Per row of V: every coefficient of the power sum polynomial is zero."""
    V = mult_stack(spec, V)
    return rows_congruent(V, point_matrix_fp(spec), spec.p)


def all_line_evaluations_zero_stack(spec: FieldSpec, V) -> np.ndarray:
    """Per row of V: the power sum polynomial is zero on every line."""
    V = mult_stack(spec, V)
    return rows_congruent(V, line_evaluation_matrix_fp(spec), spec.p)


def vandermonde_check_stack(spec: FieldSpec, V) -> np.ndarray:
    """Per row of V: the constant-intersection characterization.

    True iff every line meets the multiset in r points (multiplicity-
    weighted, mod p), where r is its total multiplicity mod p.
    """
    V = mult_stack(spec, V)
    return rows_congruent(V, incidence_matrix(spec), spec.p,
                          (V.sum(axis=1) % spec.p)[:, None])


def is_ghost(S: PointMultiset) -> bool:
    """True iff every coefficient of the power sum polynomial is zero."""
    return bool(is_ghost_stack(S.spec, S.mult[None])[0])


def vandermonde_check(S: PointMultiset) -> bool:
    """Constant-intersection characterization of one multiset; see
    vandermonde_check_stack."""
    return bool(vandermonde_check_stack(S.spec, S.mult[None])[0])


def line_ghost(line: ProjLine, spec: FieldSpec) -> PointMultiset:
    """The plain point set of a line; always a ghost."""
    column = incidence_matrix(spec)[:, point_row(spec, line)]
    return PointMultiset(spec, column)


def _pencil_union(P: ProjPoint, n_lines: int, spec: FieldSpec) -> np.ndarray:
    """Boolean vector of the points on the first n_lines lines through P."""
    inc = incidence_matrix(spec)
    pencil = np.flatnonzero(inc[point_row(spec, P)])[:n_lines]
    return inc[:, pencil].any(axis=1)


def partial_pencil_ghost(P: ProjPoint, lam: int, spec: FieldSpec) -> PointMultiset:
    """Point-set union of the first lam*p + 1 lines through P.

    Legal for 0 <= lam <= p^(h-1); the union is always a ghost.  Lines are
    taken in canonical enumeration order restricted to the pencil.
    """
    p, h, q = spec.p, spec.h, spec.q
    n_lines = lam * p + 1
    if not (0 <= lam <= p**(h - 1)) or n_lines > q + 1:
        raise ValueError(f"lambda = {lam} out of range for GF({spec})")
    return PointMultiset(spec, _pencil_union(P, n_lines, spec))


def punctured_pencil_ghost(P: ProjPoint, lam: int, spec: FieldSpec) -> PointMultiset:
    """Union of q - lam*p lines through P, with P itself removed; a ghost."""
    n_lines = spec.q - lam * spec.p
    if not 1 <= n_lines <= spec.q + 1:
        raise ValueError(f"lambda = {lam} out of range for GF({spec})")
    mult = _pencil_union(P, n_lines, spec)
    mult[point_row(spec, P)] = False
    return PointMultiset(spec, mult)


def json_chunks(members: dict, key: str, texts):
    """json.dumps(members | {key: list(texts)}, indent=2), piece by piece.

    The list is the last member; each of its texts is one piece, escaped
    when it is reached.
    """
    import json
    head = json.dumps({**members, key: []}, indent=2)
    yield head[:-len("[]\n}")]
    sep = "[\n    "
    for text in texts:
        yield sep + json.dumps(text)
        sep = ",\n    "
    yield "[]\n}" if sep == "[\n    " else "\n  ]\n}"


@dataclass(frozen=True, eq=False)
class GhostReport:
    """Computed dimensions and a kernel basis for the ghost subgroup.

    `kernel` holds the basis as one read-only (exponent, q^2+q+1) array of
    residues mod p, in reduced echelon form.
    """

    spec: FieldSpec
    rank_phi: int
    ghost_exponent: int
    kernel: np.ndarray
    note: str

    @cached_property
    def kernel_basis(self) -> tuple[PointMultiset, ...]:
        """The rows of `kernel` as multisets, built on first use."""
        return tuple(PointMultiset(self.spec, row) for row in self.kernel)

    def ghost_count(self):
        """p^exponent as an integer when it fits 128 bits, else None."""
        n = self.spec.p**self.ghost_exponent
        return n if n < 2**128 else None

    def json_chunks(self):
        """to_json() piece by piece, one piece per kernel row."""
        return json_chunks({
            "q": self.spec.q,
            "p": self.spec.p,
            "h": self.spec.h,
            "rank": self.rank_phi,
            "exponent": self.ghost_exponent,
            "count": self.ghost_count(),
            "note": self.note,
        }, "kernel_basis", mset_texts(self.spec, self.kernel))

    def to_json(self) -> str:
        return "".join(self.json_chunks())


@lru_cache(maxsize=None)
def ghost_report(spec: FieldSpec) -> GhostReport:
    """Rank of the point-image matrix over F_p, kernel basis, exponent.

    The basis B is checked in two steps.  First it must be in reduced
    echelon form: each row has a leading 1, the leads strictly increase,
    and every other row is 0 at each lead column, so its rows are
    independent.  Then, with B[:, leads] the identity, B @ M = 0 (mod p)
    for the point matrix M reads B[:, rest] @ M[rest] = -M[leads], rest
    being the other columns.  B is read a block of rows at a time.
    """
    M = point_matrix_fp(spec)
    p = spec.p
    B = linalg.left_kernel_basis(M, p)
    k, n = B.shape
    step = max(1, linalg.block_entries(B.size) // n)
    leads = np.empty(k, dtype=np.intp)
    for i in range(0, k, step):
        leads[i:i + step] = (B[i:i + step] != 0).argmax(axis=1)
    at_leads = sum(np.count_nonzero(B[i:i + step, leads])
                   for i in range(0, k, step))
    if (np.any(B[np.arange(k), leads] != 1) or np.any(np.diff(leads) <= 0)
            or at_leads != k):
        raise ArithmeticError(f"kernel basis over GF({spec}) is not in "
                              "reduced echelon form")
    rest = np.ones(n, dtype=bool)
    rest[leads] = False
    if not rows_congruent(B[:, rest], M[rest], p, (p - M[leads]) % p).all():
        raise ArithmeticError(f"kernel basis over GF({spec}) is not in the "
                              "kernel of the point-image matrix")
    B.flags.writeable = False
    note = ("exact for prime fields" if spec.h == 1
            else "computed, no literature value")
    return GhostReport(spec=spec, rank_phi=M.shape[0] - B.shape[0],
                       ghost_exponent=B.shape[0], kernel=B, note=note)
