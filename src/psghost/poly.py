"""Homogeneous degree-(q-1) polynomials in X, Y, Z over GF(q).

A coefficient vector is indexed by monomial exponents (i, j) in ascending
lexicographic order, where i is the exponent of Z, j the exponent of Y and
the exponent of X is q-1-i-j.  The vector has length C(q+1, 2).

The power sum polynomial of a point multiset is the multiplicity-weighted
sum of the (q-1)-th powers of the linear forms attached to its points.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from . import field
from .field import FieldElement, FieldSpec, multinomial_int
from .linalg import block_entries
from .plane import ProjLine, canonical_triples

if TYPE_CHECKING:  # pragma: no cover
    from .msets import PointMultiset


@lru_cache(maxsize=None)
def monomial_indices(spec: FieldSpec) -> tuple[tuple[int, int], ...]:
    """All (i, j) with i, j >= 0 and i+j <= q-1, ascending lexicographic."""
    d = spec.q - 1
    return tuple((i, j) for i in range(d + 1) for j in range(d + 1 - i))


@lru_cache(maxsize=None)
def monomial_position(spec: FieldSpec) -> dict:
    return {ij: k for k, ij in enumerate(monomial_indices(spec))}


def num_monomials(spec: FieldSpec) -> int:
    return len(monomial_indices(spec))


@dataclass(frozen=True)
class HomPoly:
    """Coefficient vector of a homogeneous degree-(q-1) polynomial."""

    spec: FieldSpec
    coeffs: tuple[FieldElement, ...]

    def __post_init__(self):
        if len(self.coeffs) != num_monomials(self.spec):
            raise ValueError("coefficient vector has wrong length")

    @classmethod
    def zero(cls, spec: FieldSpec) -> "HomPoly":
        z = spec.zero()
        return cls(spec, tuple(z for _ in range(num_monomials(spec))))

    @classmethod
    def from_terms(cls, spec: FieldSpec, terms: dict) -> "HomPoly":
        """Build from {(i, j): coefficient}; absent monomials are zero."""
        pos = monomial_position(spec)
        coeffs = [spec.zero()] * num_monomials(spec)
        for ij, c in terms.items():
            if ij not in pos:
                raise ValueError(f"monomial exponents {ij} out of range")
            coeffs[pos[ij]] = c if isinstance(c, FieldElement) else spec.element(c)
        return cls(spec, tuple(coeffs))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def coefficient(self, i: int, j: int) -> FieldElement:
        return self.coeffs[monomial_position(self.spec)[(i, j)]]


def add_poly(G: HomPoly, H: HomPoly) -> HomPoly:
    if G.spec != H.spec:
        raise ValueError("field mismatch")
    return HomPoly(G.spec, tuple(a + b for a, b in zip(G.coeffs, H.coeffs)))


def monomial_values(spec: FieldSpec, T, coeffs=None) -> np.ndarray:
    """Encodings of c * u^(q-1-i-j) * v^j * w^i for triples (u, v, w).

    T is an (n, 3) array of encodings; the result is (n, m), one column per
    monomial in monomial_indices order.  coeffs gives the m encodings c
    (1 by default).  One gather in the log domain: the exponent of g is
    log c + sum of exponent * log base, and an entry is 0 where c = 0 or a
    zero base has a positive exponent (0^0 = 1).
    """
    q1 = spec.q - 1
    # Exponents total q-1 and logs are at most q-2, so every sum over
    # nonzero factors is below q1^2; a zero factor adds at least q1^2.
    zero = q1 * q1
    logs = spec.log.copy()
    logs[0] = zero
    i, j = np.array(monomial_indices(spec), dtype=np.int64).reshape(-1, 2).T
    s = logs[np.asarray(T, dtype=np.int64)] @ np.stack([q1 - i - j, j, i])
    if coeffs is not None:
        s += logs[np.asarray(coeffs, dtype=np.int64)]
    powers = np.append(np.tile(spec.exp[:q1], q1), 0)  # g^s; 0 at s = q1^2
    return powers[np.minimum(s, zero, out=s)]


@lru_cache(maxsize=None)
def point_image_rows(spec: FieldSpec) -> np.ndarray:
    """Encodings of the coefficients of (aX+bY+cZ)^(q-1), one row per point.

    Entry at (i, j) is C(q-1; i, j) * a^(q-1-i-j) * b^j * c^i; the
    multinomial lies in the prime subfield, so its encoding is its residue.
    Read-only, in the smallest unsigned dtype that holds q-1, and built a
    block of rows at a time, each block at most block_entries of the
    matrix, so that the int64 values of monomial_values never span it.
    """
    multinomials = [multinomial_int(spec.q - 1, i, j) % spec.p
                    for i, j in monomial_indices(spec)]
    T = canonical_triples(spec)
    rows = np.empty((len(T), len(multinomials)),
                    dtype=np.min_scalar_type(spec.q - 1))
    step = max(1, block_entries(rows.size) // rows.shape[1])
    for k in range(0, len(T), step):
        rows[k:k + step] = monomial_values(spec, T[k:k + step], multinomials)
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=None)
def point_matrix_fp(spec: FieldSpec) -> np.ndarray:
    """Point-image rows in prime-subfield coordinates, as a numpy matrix.

    Each entry becomes its h base-p digits, so the shape is
    (q^2+q+1, h*C(q+1,2)); a multiset maps to mult @ matrix mod p.
    Read-only, in the smallest unsigned dtype that holds p-1; for h = 1 it
    is point_image_rows itself.  Products must be taken in a wider dtype.
    """
    rows = point_image_rows(spec)
    if spec.h == 1:
        return rows
    M = np.empty(rows.shape + (spec.h,), dtype=np.min_scalar_type(spec.p - 1))
    for k in range(spec.h):  # p^k < q, so digits stay in the rows' dtype
        M[:, :, k] = rows // spec.p**k % spec.p
    M.flags.writeable = False
    return M.reshape(rows.shape[0], -1)


def power_sum(S: "PointMultiset") -> HomPoly:
    """The power sum polynomial of a point multiset.

    Multiplicities act as prime-subfield scalars (they are already reduced
    mod p, which is all that matters for the scalar action); the sum is
    taken in prime-subfield coordinates.
    """
    spec = S.spec
    flat = np.asarray(S.mult, dtype=np.int64) @ point_matrix_fp(spec) % spec.p
    encodings = field.from_digits(spec, flat.reshape(-1, spec.h))
    return HomPoly(spec, tuple(FieldElement(spec, e) for e in encodings.tolist()))


def line_values(G: HomPoly, T) -> np.ndarray:
    """Encodings of G at each triple of T, an (n, 3) array of encodings.

    The terms are summed digit-wise mod p through a table of digits, a
    block of about 2^18 terms at a time.
    """
    spec = G.spec
    T = np.asarray(T)
    coeffs = [c.encoding for c in G.coeffs]
    table = field.digits(spec, np.arange(spec.q)).astype(
        np.min_scalar_type(spec.p - 1))
    block = max(1, 2**18 // len(coeffs))
    values = np.empty(len(T), dtype=np.int64)
    for k in range(0, len(T), block):
        terms = monomial_values(spec, T[k:k + block], coeffs)
        values[k:k + block] = field.from_digits(
            spec, table[terms].sum(axis=1) % spec.p)
    return values


def evaluate(G: HomPoly, line) -> FieldElement:
    """G at a ProjLine or any nonzero coordinate triple; by degree-(q-1)
    homogeneity the value does not depend on the chosen representative."""
    coords = line.coords if isinstance(line, ProjLine) else line
    value = line_values(G, [[c.encoding for c in coords]])[0]
    return FieldElement(G.spec, int(value))


# -- text format ------------------------------------------------------

_HEADER = re.compile(r"#\s*(mset|psp)\s+q=(\S+)")


def check_header(line: str, spec: FieldSpec, kind: str) -> None:
    """Reject a "# mset q=..." or "# psp q=..." header of another kind than
    `kind`, the one its reader expects, or naming another field.

    The header must spell the field as the writers do ("7", "3^2"); other
    comment lines pass.
    """
    m = _HEADER.match(line)
    if m is None:
        return
    if m.group(1) != kind:
        raise ValueError(f"header says # {m.group(1)}, but a # {kind} file "
                         "is expected")
    if m.group(2) != str(spec):
        raise ValueError(f"header says q={m.group(2)}, but the field is "
                         f"GF({spec})")


def poly_to_text(G: HomPoly) -> str:
    """One line per nonzero coefficient: "i j coeff"."""
    lines = [f"# psp q={G.spec}"]
    for (i, j), c in zip(monomial_indices(G.spec), G.coeffs):
        if not c.is_zero():
            lines.append(f"{i} {j} {c.encoding}")
    return "\n".join(lines) + "\n"


def poly_from_text(text: str, spec: FieldSpec) -> HomPoly:
    pos = monomial_position(spec)
    terms = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if not s or s.startswith("#"):
            check_header(s, spec, "psp")
            continue
        parts = s.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'i j coeff', got {raw!r}")
        try:
            i, j, enc = (int(x) for x in parts)
            if (i, j) not in pos:
                raise ValueError(f"monomial exponents {(i, j)} out of range")
            if (i, j) in terms:
                raise ValueError(f"monomial {i} {j} repeated")
            terms[(i, j)] = spec.element(enc)
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from e
    return HomPoly.from_terms(spec, terms)
