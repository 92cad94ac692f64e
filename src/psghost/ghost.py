"""Ghosts: multisets whose power sum polynomial vanishes identically.

Ghost predicates, known ghost constructors (lines, partial pencils,
punctured pencils), the constant-line-intersection characterization, and
the kernel description of the ghost subgroup with its size exponent.

The fast paths go through a cached prime-subfield point-image matrix: the
power sum polynomial of a multiset, in F_p coordinates, is the
multiplicity vector times that matrix mod p.  Each predicate takes an
(m, q^2+q+1) stack of multiplicity vectors and answers every row with one
exact product, linalg.mul_mod; the PointMultiset forms wrap a one-row
stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import linalg
from .field import FieldSpec
from .msets import PointMultiset, mset_texts, mult_stack
from .plane import ProjLine, ProjPoint, incidence_matrix, point_row
from .poly import point_matrix_fp


def is_ghost_stack(spec: FieldSpec, V) -> np.ndarray:
    """Per row of V: every coefficient of the power sum polynomial is zero."""
    V = mult_stack(spec, V)
    return ~linalg.mul_mod(V, point_matrix_fp(spec), spec.p).any(axis=1)


def vandermonde_check_stack(spec: FieldSpec, V) -> np.ndarray:
    """Per row of V: the constant-intersection characterization.

    True iff every line meets the multiset in r points (multiplicity-
    weighted, mod p), where r is its total multiplicity mod p.
    """
    V = mult_stack(spec, V)
    meets = linalg.mul_mod(V, incidence_matrix(spec), spec.p)
    return (meets == (V.sum(axis=1) % spec.p)[:, None]).all(axis=1)


def is_ghost(S: PointMultiset) -> bool:
    """True iff every coefficient of the power sum polynomial is zero."""
    return bool(is_ghost_stack(S.spec, S.mult[None])[0])


def vandermonde_check(S: PointMultiset) -> bool:
    """Constant-intersection characterization of one multiset; see
    vandermonde_check_stack."""
    return bool(vandermonde_check_stack(S.spec, S.mult[None])[0])


def line_ghost(line: ProjLine, spec: FieldSpec) -> PointMultiset:
    """The plain point set of a line; always a ghost."""
    # the incidence matrix is symmetric: a line's row is its column
    return PointMultiset(spec, incidence_matrix(spec)[point_row(spec, line)])


def _pencil_union(P: ProjPoint, n_lines: int, spec: FieldSpec) -> np.ndarray:
    """Boolean vector of the points on the first n_lines lines through P."""
    inc = incidence_matrix(spec)
    pencil = np.flatnonzero(inc[point_row(spec, P)])[:n_lines]
    return inc[pencil].any(axis=0)


def partial_pencil_ghost(P: ProjPoint, lam: int, spec: FieldSpec) -> PointMultiset:
    """Point-set union of the first lam*p + 1 lines through P.

    Legal for 0 <= lam <= p^(h-1); the union is always a ghost.  Lines are
    taken in canonical enumeration order restricted to the pencil.
    """
    if not 0 <= lam <= spec.p**(spec.h - 1):
        raise ValueError(f"lambda = {lam} out of range for GF({spec})")
    return PointMultiset(spec, _pencil_union(P, lam * spec.p + 1, spec))


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

    The elimination runs on M = point_matrix_fp(spec), whose columns span
    the whole map's (it is built only once they are certified to), and
    the basis B is checked against M in two steps.  First it must be in
    reduced echelon form: each row has a leading 1, the leads strictly
    increase, and every other row is 0 at each lead column, so its rows
    are independent.  Then, B[:, leads] being the identity, B @ M = 0
    (mod p) reads B[:, rest] @ M[rest] = -M[leads] for the other columns
    rest.  So B is the reduced echelon form of M's kernel.
    """
    M = point_matrix_fp(spec)
    p = spec.p
    B = linalg.left_kernel_basis(M, p)
    k, n = B.shape
    leads = (B != 0).argmax(axis=1)
    if (np.any(B[np.arange(k), leads] != 1) or np.any(np.diff(leads) <= 0)
            or np.count_nonzero(B[:, leads]) != k):
        raise ArithmeticError(f"kernel basis over GF({spec}) is not in "
                              "reduced echelon form")
    rest = np.delete(np.arange(n), leads)
    P = linalg.mul_mod(B[:, rest], M[rest], p)
    np.subtract(p, P, out=P)
    P %= p
    if not np.array_equal(P, M[leads]):
        raise ArithmeticError(f"kernel basis over GF({spec}) is not in the "
                              "kernel of the point-image matrix")
    B.flags.writeable = False
    note = ("exact for prime fields" if spec.h == 1
            else "computed, no literature value")
    return GhostReport(spec=spec, rank_phi=M.shape[0] - B.shape[0],
                       ghost_exponent=B.shape[0], kernel=B, note=note)
