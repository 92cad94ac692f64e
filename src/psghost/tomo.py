"""Inverse solver: all multisets sharing a given power sum polynomial.

The solution set, when nonempty, is a coset of the ghost subgroup: one
particular solution plus any kernel combination, so the plain-set
solutions are the 0/1 vectors of that coset, found by walking it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import linalg
from .field import FieldSpec
from .ghost import ghost_report, point_matrix_fp
from .msets import PointMultiset
from .poly import HomPoly, power_sum, representative_digits

# Cap on kernel combinations per coset walk.  A coset has p^exponent
# elements: 16, 2187 and 4096 for q = 2, 3, 4, but 5^16 at q = 5.
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


def solve(G: HomPoly) -> SolutionCoset:
    """Particular solution (if any) plus the ghost kernel basis.

    The particular solution can be missing only for h > 1; over prime
    fields the multiset map is onto.  At h > 1 the solver sees the target
    only at the orbit representatives, so its x is kept only if its power
    sum is G.
    """
    spec = G.spec
    report = ghost_report(spec)
    x = _solver(spec).solve(representative_digits(G))
    particular = None if x is None else PointMultiset.from_vector(spec, x)
    if spec.h > 1 and particular is not None and power_sum(particular) != G:
        particular = None
    return SolutionCoset(spec, particular, report.kernel,
                         report.ghost_exponent)


def enumerate_set_solutions(G: HomPoly, limit: int) -> list[PointMultiset]:
    """Plain (0/1) sets with the given power sum polynomial.

    One walk over particular + kernel combinations keeps the 0/1 vectors.
    When the coset fits WALK_BUDGET the walk visits all of it and returns
    the `limit` smallest sets; otherwise it stops at `limit` sets or
    WALK_BUDGET combinations.  Solutions come in canonical order
    (lexicographic multiplicity vectors).
    """
    if limit <= 0:
        raise ValueError("limit must be positive")
    spec = G.spec
    coset = solve(G)
    if coset.particular is None:
        return []
    stop = None if set_search_exhaustive(coset) else limit
    p = spec.p
    K = coset.kernel.astype(np.int64)
    base = coset.particular.mult.astype(np.int64)
    found = []
    walk = itertools.product(range(p), repeat=K.shape[0])
    for combo in itertools.islice(walk, WALK_BUDGET):
        v = (base + np.asarray(combo, dtype=np.int64) @ K) % p
        if np.all(v <= 1):
            found.append(PointMultiset(spec, v))
            if len(found) == stop:
                break
    found.sort(key=lambda S: S.mult.tolist())
    return found[:limit]


def set_search_exhaustive(coset: SolutionCoset) -> bool:
    """True iff enumerate_set_solutions examines every coset element."""
    return coset.spec.p**coset.exponent <= WALK_BUDGET
