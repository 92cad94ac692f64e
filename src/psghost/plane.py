"""Points and lines of PG(2,q) in canonical form, with incidence.

Coordinate triples are normalized so that the first nonzero coordinate is 1.
The point enumeration order is fixed and defines row indices everywhere:
(0,0,1); then (0,1,c) for c ascending; then (1,b,c) for (b,c) ascending
lexicographically (by integer encoding).  A point is its row in that order.
Lines are the same normalized triples (Plücker coordinates, dual to points)
with symmetric incidence, so enumerate_lines is enumerate_points and
pencil_lines is line_points.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import field
from .field import FieldSpec


@dataclass(frozen=True)
class ProjPoint:
    """A point, or by duality a line (u, v, w): its field and its row in
    the enumeration order."""

    spec: FieldSpec
    row: int

    def __post_init__(self):
        n = self.spec.q**2 + self.spec.q + 1
        try:
            row = operator.index(self.row)
        except TypeError:
            row = None
        if row is None or not 0 <= row < n:
            raise ValueError(f"row {self.row!r} is not a point of "
                             f"PG(2,{self.spec}): rows are the ints in "
                             f"[0, {n})")
        object.__setattr__(self, "row", row)

    @classmethod
    def from_encodings(cls, spec: FieldSpec, a: int, b: int, c: int) -> "ProjPoint":
        """The point with coordinates (a, b, c), any nonzero multiple of its
        normalized triple."""
        x, y, z = map(spec.check_encoding, (a, b, c))
        lead = x or y or z
        if not lead:
            raise ValueError("projective coordinates cannot be all zero")
        exp, log, q1 = spec.exp, spec.log, spec.q - 1
        y, z = (exp.item((log.item(v) - log.item(lead)) % q1) if v else 0
                for v in (y, z))
        return cls(spec, _row(spec.q, x != 0, y, z))

    def encodings(self) -> tuple[int, int, int]:
        """The normalized triple at this row: _row's formula inverted."""
        q, r = self.spec.q, self.row
        if r > q:
            return (1, *divmod(r - 1 - q, q))
        return (0, 1, r - 1) if r else (0, 0, 1)

    def __str__(self):
        return " ".join(map(str, self.encodings()))


ProjLine = ProjPoint


@lru_cache(maxsize=None)
def canonical_triples(spec: FieldSpec) -> np.ndarray:
    """(q^2+q+1, 3) encodings of the normalized triples in enumeration
    order; read-only."""
    q = spec.q
    T = np.array([(0, 0, 1)] + [(0, 1, c) for c in range(q)]
                 + [(1, b, c) for b in range(q) for c in range(q)],
                 dtype=np.int64)
    T.flags.writeable = False
    return T


def _row(q: int, x, y, z):
    """Row in the enumeration order of normalized triples (ints or arrays)."""
    return x * (1 + q + y * q + z) + (1 - x) * y * (1 + z)


def point_rows(spec: FieldSpec, T) -> np.ndarray:
    """Row indices of the points with encoding triples T, (..., 3), in
    [0, q) and not all zero, each read after division by its first
    nonzero coordinate."""
    x, y, z = np.moveaxis(np.asarray(T), -1, 0)
    lead = np.where(x != 0, x, np.where(y != 0, y, z))
    inv = spec.exp[-spec.log[lead] % (spec.q - 1)]
    b, c = field.mul(spec, y, inv), field.mul(spec, z, inv)
    return _row(spec.q, x != 0, b, c)


@lru_cache(maxsize=None)
def enumerate_points(spec: FieldSpec) -> tuple[ProjPoint, ...]:
    """All q^2+q+1 points in the canonical enumeration order."""
    return tuple(ProjPoint(spec, r) for r in range(spec.q**2 + spec.q + 1))


def point_row(spec: FieldSpec, P: ProjPoint) -> int:
    """The row index of P; ValueError unless P is a point over GF(q)."""
    if P.spec == spec:
        return P.row
    raise ValueError(f"point {P} is not a normalized point over GF({spec})")


def line_points(line: ProjLine, spec: FieldSpec) -> list[ProjPoint]:
    """The q+1 points on the line, in enumeration order."""
    points = enumerate_points(spec)
    row = incidence_matrix(spec)[point_row(spec, line)]  # symmetric
    return [points[k] for k in np.flatnonzero(row)]


enumerate_lines = enumerate_points
pencil_lines = line_points


@lru_cache(maxsize=None)
def incidence_matrix(spec: FieldSpec) -> np.ndarray:
    """0/1 uint8 matrix, rows = points, columns = lines, in enumeration
    order.

    A line through points A and B holds A and B + tA for t in F_q
    (Hirschfeld, Projective Geometries over Finite Fields, 1998), so each
    column is written from its q+1 points.  Points and lines share the
    canonical triples, so it is symmetric.  Read-only.
    """
    p, q = spec.p, spec.q
    n = q * q + q + 1
    # Two points A, B of each line, by line type: (0,0,1) through (0,1,0)
    # and (1,0,0); (0,1,w) through (0,-w,1) and (1,0,0); (1,v,w) through
    # (-w,0,1) and (-v,1,0).  -a is (p-1)*a.
    neg = field.mul(spec, canonical_triples(spec), p - 1)
    A = np.zeros((n, 3), dtype=np.int64)
    B = np.zeros((n, 3), dtype=np.int64)
    A[0, 1] = 1
    A[1:, 2] = 1
    A[1:q + 1, 1] = neg[1:q + 1, 2]
    A[q + 1:, 0] = neg[q + 1:, 2]
    B[:q + 1, 0] = 1
    B[q + 1:, 0] = neg[q + 1:, 1]
    B[q + 1:, 1] = 1
    t = np.arange(q)[None, :, None]
    pts = np.concatenate([A[:, None], field.add(
        spec, B[:, None], field.mul(spec, t, A[:, None]))], axis=1)
    inc = np.zeros((n, n), dtype=np.uint8)
    inc[point_rows(spec, pts), np.arange(n)[:, None]] = 1
    inc.flags.writeable = False
    return inc
