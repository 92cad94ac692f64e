"""Inverse solver: all multisets sharing a given power sum polynomial.

The solution set, when nonempty, is a coset of the ghost subgroup: one
particular solution plus any kernel combination.  For q <= 3 the plain-set
solutions can also be enumerated exhaustively.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import linalg
from .field import FieldSpec, digits
from .ghost import ghost_report, point_matrix_fp
from .msets import PointMultiset
from .poly import HomPoly

# Cap on kernel combinations examined per coset walk; the full coset has
# p^exponent elements and is far beyond exhaustion for q > 3.
WALK_BUDGET = 400_000


@dataclass(frozen=True, eq=False)
class SolutionCoset:
    """particular + <kernel rows> describes every solution; size p^exponent.

    `kernel` is the ghost report's read-only residue array.
    """

    spec: FieldSpec
    particular: Optional[PointMultiset]
    kernel: np.ndarray
    exponent: int

@lru_cache(maxsize=None)
def _solver(spec: FieldSpec) -> linalg.PrefactoredLeftSystem:
    return linalg.PrefactoredLeftSystem(point_matrix_fp(spec), spec.p)


def _poly_fp(G: HomPoly) -> np.ndarray:
    return digits(G.spec, [c.encoding for c in G.coeffs]).ravel()


def solve(G: HomPoly) -> SolutionCoset:
    """Particular solution (if any) plus the ghost kernel basis.

    The particular solution can be missing only for h > 1; over prime
    fields the multiset map is onto.
    """
    spec = G.spec
    report = ghost_report(spec)
    x = _solver(spec).solve(_poly_fp(G))
    particular = None if x is None else PointMultiset.from_vector(spec, x)
    return SolutionCoset(spec, particular, report.kernel,
                         report.ghost_exponent)


def enumerate_set_solutions(G: HomPoly, limit: int) -> list[PointMultiset]:
    """Plain (0/1) sets with the given power sum polynomial.

    Exhaustive over all 2^(q^2+q+1) subsets for q in {2, 3}; otherwise a
    bounded coset walk that filters kernel combinations for 0/1 vectors.
    Solutions come in canonical order (lexicographic multiplicity vectors).
    """
    if limit <= 0:
        raise ValueError("limit must be positive")
    spec = G.spec
    if spec.q <= 3:
        return _exhaustive_set_solutions(G, limit)
    return _coset_walk_set_solutions(G, limit)


def set_search_exhaustive(coset: SolutionCoset) -> bool:
    """True iff enumerate_set_solutions examines every candidate."""
    return coset.spec.q <= 3 or coset.spec.p**coset.exponent <= WALK_BUDGET


def _exhaustive_set_solutions(G: HomPoly, limit: int) -> list[PointMultiset]:
    spec = G.spec
    n = spec.q**2 + spec.q + 1
    M = point_matrix_fp(spec)
    target = _poly_fp(G)
    codes = np.arange(2**n, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(n)) & 1  # column k = point k
    hits = np.all(bits @ M % spec.p == target, axis=1)
    sols = [PointMultiset.from_vector(spec, bits[k])
            for k in np.nonzero(hits)[0]]
    sols.sort(key=lambda S: S.mult)
    return sols[:limit]


def _coset_walk_set_solutions(G: HomPoly, limit: int) -> list[PointMultiset]:
    spec = G.spec
    coset = solve(G)
    if coset.particular is None:
        return []
    p = spec.p
    K = coset.kernel.astype(np.int64)
    base = np.asarray(coset.particular.mult, dtype=np.int64)
    found = []
    walk = itertools.product(range(p), repeat=K.shape[0])
    for combo in itertools.islice(walk, WALK_BUDGET):
        v = (base + np.asarray(combo, dtype=np.int64) @ K) % p
        if np.all(v <= 1):
            found.append(PointMultiset.from_vector(spec, v))
            if len(found) >= limit:
                break
    found.sort(key=lambda S: S.mult)
    return found
