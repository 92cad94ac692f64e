"""Point multisets with multiplicities mod p and the multiset sum.

A multiset is a dense multiplicity vector over {0,...,p-1}, indexed by the
canonical point enumeration.  Under entrywise sum mod p the multisets form
an abelian p-group of order p^(q^2+q+1); mapping a multiset to its power
sum polynomial is a group homomorphism into the polynomial space.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .field import FieldSpec
from .linalg import as_fp
from .plane import canonical_triples, point_row, point_rows
from . import poly


def mult_stack(spec: FieldSpec, V) -> np.ndarray:
    """V as an (m, q^2+q+1) integer array of multiplicities, checked."""
    V = np.asarray(V)
    n = spec.q**2 + spec.q + 1
    if V.ndim != 2 or V.shape[1] != n or V.dtype.kind not in "biu":
        raise ValueError(f"expected an (m, {n}) integer stack of multiplicity "
                         f"vectors, got {V.dtype} of shape {V.shape}")
    if V.size and (V.min() < 0 or V.max() >= spec.p):
        raise ValueError("multiplicities must lie in {0,...,p-1}")
    return V


@dataclass(frozen=True, eq=False)
class PointMultiset:
    """Multiplicities in enumeration order: a read-only copy in the
    smallest unsigned dtype that holds p-1."""

    spec: FieldSpec
    mult: np.ndarray

    def __post_init__(self):
        m = as_fp(mult_stack(self.spec, [self.mult]), self.spec.p)[0]
        m.flags.writeable = False
        object.__setattr__(self, "mult", m)

    def __eq__(self, other):
        return (isinstance(other, PointMultiset) and self.spec == other.spec
                and np.array_equal(self.mult, other.mult))

    @classmethod
    def from_points(cls, spec: FieldSpec, points) -> "PointMultiset":
        """Multiset of the given points, each occurrence adding 1 (mod p)."""
        return cls.from_vector(spec, np.bincount(
            [point_row(spec, P) for P in points],
            minlength=spec.q**2 + spec.q + 1))

    @classmethod
    def from_vector(cls, spec: FieldSpec, vec) -> "PointMultiset":
        """Multiset of an integer vector, each entry reduced mod p exactly,
        as linalg.as_fp reduces."""
        return cls(spec, as_fp([vec], spec.p)[0])


def msum(A: PointMultiset, B: PointMultiset) -> PointMultiset:
    """Entrywise sum of multiplicities mod p (the group operation)."""
    if A.spec != B.spec:
        raise ValueError("field mismatch")
    return PointMultiset(A.spec, np.add(A.mult, B.mult, dtype=np.int64)
                         % A.spec.p)


def minverse(A: PointMultiset) -> PointMultiset:
    """Entrywise p - m (mod p); the group inverse."""
    return PointMultiset(A.spec, (A.spec.p - A.mult) % A.spec.p)


def complement(A: PointMultiset, B: PointMultiset) -> PointMultiset:
    """The multiset counting each point m_B - m_A times; requires A <= B."""
    if A.spec != B.spec:
        raise ValueError("field mismatch")
    if np.any(A.mult > B.mult):
        raise ValueError("complement requires m_A(x) <= m_B(x) everywhere")
    return PointMultiset(A.spec, B.mult - A.mult)


def phi(S: PointMultiset) -> poly.HomPoly:
    """The group homomorphism sending a multiset to its power sum polynomial."""
    return poly.power_sum(S)


def random_residues(rng: random.Random, p: int, shape) -> np.ndarray:
    """An int64 array of rng.randrange(p) draws, filled in row-major order.

    It equals the array of per-entry randrange(p) calls and leaves rng in
    the same state.  randrange(p) keeps the top k = p.bit_length() bits of
    one 32-bit Mersenne Twister word, and takes the next word while they
    are >= p.  Here words come in blocks from getrandbits(32 * need), where
    need is the number of draws still missing, so no block takes a word
    that the per-entry calls would not take.
    """
    k = p.bit_length()
    if not 2 <= k <= 32:
        raise ValueError(f"p = {p} out of range for 32-bit draws")
    draws = [np.zeros(0, dtype=np.int64)]
    need = math.prod(shape)
    while need:
        words = np.frombuffer(
            rng.getrandbits(32 * need).to_bytes(4 * need, "little"),
            dtype="<u4")
        top = (words >> (32 - k)).astype(np.int64)
        draws.append(top[top < p])
        need -= len(draws[-1])
    return np.concatenate(draws).reshape(shape)


# -- text format ------------------------------------------------------

@lru_cache(maxsize=None)
def _point_labels(spec: FieldSpec) -> tuple[str, ...]:
    """str(P) for every point, in enumeration order."""
    return tuple(f"{a} {b} {c}" for a, b, c in canonical_triples(spec).tolist())


@lru_cache(maxsize=None)
def _multiplicity_suffixes(p: int) -> tuple[str, ...]:
    """The rest of a point's line after its label, indexed by its
    multiplicity m < p."""
    return ("\n", "\n") + tuple(f" : {m}\n" for m in range(2, p))


def mset_texts(spec: FieldSpec, V):
    """The `# mset` text of each row of V, an (m, q^2+q+1) stack of
    multiplicities in {0,...,p-1}: one line per point with nonzero
    multiplicity, "a b c" for 1 and "a b c : m" otherwise.

    Yields the texts in row order, each made when it is asked for from
    its own row's np.flatnonzero, so that no index of every nonzero in
    the stack is held while the texts are written.
    """
    labels = _point_labels(spec)
    suffix = _multiplicity_suffixes(spec.p)
    head = f"# mset q={spec}\n"
    for row in np.asarray(V):
        cols = np.flatnonzero(row)
        yield head + "".join([labels[c] + suffix[m] for c, m in
                              zip(cols.tolist(), row[cols].tolist())])


def mset_to_text(S: PointMultiset) -> str:
    """The `# mset` text of one multiset; see mset_texts."""
    return next(mset_texts(S.spec, S.mult[None]))


def mset_from_text(text: str, spec: FieldSpec) -> PointMultiset:
    """Each line "a b c [: m]" adds m (default 1) to the point (a, b, c)."""

    def multiplicity(s: str) -> tuple[str, int]:
        coords, colon, m = s.partition(":")
        try:
            return coords, int(m) % spec.p if colon else 1
        except ValueError as e:
            raise ValueError(f"bad multiplicity {m!r}") from e

    q = spec.q

    def check(row):
        a, b, c, _ = row
        for x in (a, b, c):
            if not 0 <= x < q:
                raise ValueError(f"encoding {x} out of range for GF({spec})")
        if not (a or b or c):
            raise ValueError("projective coordinates cannot be all zero")

    R = poly.read_rows(text, spec, "mset", "a b c [: m]", check,
                       multiplicity)
    mult = np.zeros(q**2 + q + 1, dtype=np.int64)
    np.add.at(mult, point_rows(spec, R[:, :3]), R[:, 3])
    return PointMultiset.from_vector(spec, mult)
