"""Points and lines of PG(2,q) in canonical form, with incidence.

Coordinate triples are normalized so that the first nonzero coordinate is 1.
The point enumeration order is fixed and defines row indices everywhere:
(0,0,1); then (0,1,c) for c ascending; then (1,b,c) for (b,c) ascending
lexicographically (by integer encoding).  Lines use the same normalized
triples (Plücker coordinates, dual to points), so one type serves both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import field
from .field import FieldElement, FieldSpec


def _normalize(coords: tuple[FieldElement, ...]) -> tuple[FieldElement, ...]:
    for c in coords:
        if not c.is_zero():
            s = c.inv()
            return tuple(s * x for x in coords)
    raise ValueError("projective coordinates cannot be all zero")


@dataclass(frozen=True)
class ProjPoint:
    """A point, or by duality a line (u, v, w), as a normalized triple."""

    coords: tuple[FieldElement, FieldElement, FieldElement]

    @classmethod
    def make(cls, a, b, c) -> "ProjPoint":
        return cls(_normalize((a, b, c)))

    @classmethod
    def from_encodings(cls, spec: FieldSpec, a: int, b: int, c: int) -> "ProjPoint":
        return cls.make(spec.element(a), spec.element(b), spec.element(c))

    @property
    def spec(self) -> FieldSpec:
        return self.coords[0].spec

    def encodings(self) -> tuple[int, int, int]:
        return tuple(c.encoding for c in self.coords)

    def __str__(self):
        return " ".join(str(c.encoding) for c in self.coords)


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


def point_rows(spec: FieldSpec, T) -> np.ndarray:
    """Row indices of the points with encoding triples T, (..., 3), in
    [0, q) and not all zero, each read after division by its first
    nonzero coordinate."""
    q = spec.q
    x, y, z = np.moveaxis(np.asarray(T), -1, 0)
    lead = np.where(x != 0, x, np.where(y != 0, y, z))
    inv = spec.exp[-spec.log[lead] % (q - 1)]
    b, c = field.mul(spec, y, inv), field.mul(spec, z, inv)
    return np.where(x != 0, 1 + q + b * q + c, np.where(y != 0, 1 + c, 0))


@lru_cache(maxsize=None)
def enumerate_points(spec: FieldSpec) -> tuple[ProjPoint, ...]:
    """All q^2+q+1 points in the canonical enumeration order."""
    return tuple(ProjPoint(tuple(FieldElement(spec, x) for x in t))
                 for t in canonical_triples(spec).tolist())


def enumerate_lines(spec: FieldSpec) -> tuple[ProjLine, ...]:
    """All q^2+q+1 lines; by duality the same triples as the points."""
    return enumerate_points(spec)


@lru_cache(maxsize=None)
def point_index(spec: FieldSpec) -> dict:
    return {P: i for i, P in enumerate(enumerate_points(spec))}


def point_row(spec: FieldSpec, P: ProjPoint) -> int:
    """The row index of P; ValueError unless P is a normalized point over
    GF(q)."""
    try:
        return point_index(spec)[P]
    except KeyError:
        raise ValueError(f"point {P} is not a normalized point over "
                         f"GF({spec})") from None


def line_points(line: ProjLine, spec: FieldSpec) -> list[ProjPoint]:
    """The q+1 points on the line, in enumeration order."""
    points = enumerate_points(spec)
    column = incidence_matrix(spec)[:, point_row(spec, line)]
    return [points[k] for k in np.flatnonzero(column)]


def pencil_lines(P: ProjPoint, spec: FieldSpec) -> list[ProjLine]:
    """The q+1 lines through P, in enumeration order."""
    lines = enumerate_lines(spec)
    row = incidence_matrix(spec)[point_row(spec, P)]
    return [lines[k] for k in np.flatnonzero(row)]


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
