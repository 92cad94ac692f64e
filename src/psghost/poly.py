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


@dataclass(frozen=True, eq=False)
class HomPoly:
    """Coefficient vector of a homogeneous degree-(q-1) polynomial: a
    read-only int64 copy of the encodings, in monomial_indices order."""

    spec: FieldSpec
    coeffs: np.ndarray

    def __post_init__(self):
        c, q = np.asarray(self.coeffs), self.spec.q
        m = num_monomials(self.spec)
        if c.shape != (m,) or c.dtype.kind not in "iu":
            raise ValueError(f"coefficients must be {m} integer encodings, "
                             f"got shape {c.shape} of {c.dtype}")
        if c.min() < 0 or c.max() >= q:
            raise ValueError(f"coefficient encodings must lie in [0, {q})")
        c = c.astype(np.int64)
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def __eq__(self, other):
        return (isinstance(other, HomPoly) and self.spec == other.spec
                and np.array_equal(self.coeffs, other.coeffs))

    @classmethod
    def zero(cls, spec: FieldSpec) -> "HomPoly":
        return cls(spec, np.zeros(num_monomials(spec), dtype=np.int64))

    @classmethod
    def from_terms(cls, spec: FieldSpec, terms: dict) -> "HomPoly":
        """Build from {(i, j): encoding}; absent monomials are zero."""
        pos = monomial_position(spec)
        coeffs = np.zeros(num_monomials(spec), dtype=np.int64)
        for ij, c in terms.items():
            if ij not in pos:
                raise ValueError(f"monomial exponents {ij} out of range")
            coeffs[pos[ij]] = spec.element(c).encoding
        return cls(spec, coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def coefficient(self, i: int, j: int) -> FieldElement:
        k = monomial_position(self.spec)[(i, j)]
        return FieldElement(self.spec, int(self.coeffs[k]))


def add_poly(G: HomPoly, H: HomPoly) -> HomPoly:
    if G.spec != H.spec:
        raise ValueError("field mismatch")
    return HomPoly(G.spec, field.add(G.spec, G.coeffs, H.coeffs))


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
    taken in prime-subfield coordinates, in int64.  einsum casts the point
    matrix in buffered chunks, where a product would cast all of it first.
    """
    spec = S.spec
    flat = np.einsum("i,ij->j", S.mult, point_matrix_fp(spec),
                     dtype=np.int64) % spec.p
    return HomPoly(spec, field.from_digits(spec, flat.reshape(-1, spec.h)))


def line_values(G: HomPoly, T) -> np.ndarray:
    """Encodings of G at each triple of T, an (n, 3) array of encodings.

    The terms are summed digit-wise mod p through a table of digits, a
    block of about 2^18 terms at a time.
    """
    spec = G.spec
    T, coeffs = np.asarray(T), G.coeffs
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
    T = [c.encoding for c in coords]
    if not any(T):
        raise ValueError("projective coordinates cannot be all zero")
    return G.spec.element(line_values(G, [T])[0])


# -- text format ------------------------------------------------------

_HEADER = re.compile(r"#\s*(mset|psp)\s+q=(\S+)")


def nonzero_terms(G: HomPoly) -> list[tuple[int, int, int]]:
    """(i, j, encoding) of each nonzero coefficient, in monomial order."""
    return [(i, j, c) for (i, j), c in zip(monomial_indices(G.spec),
                                           G.coeffs.tolist()) if c]


def poly_to_text(G: HomPoly) -> str:
    """One line per nonzero coefficient: "i j coeff"."""
    return "".join([f"# psp q={G.spec}\n"] + [
        f"{i} {j} {c}\n" for i, j, c in nonzero_terms(G)])


def read_rows(text: str, spec: FieldSpec, kind: str, syntax: str, checks,
              tail=None) -> np.ndarray:
    """The ints of each data line of a `# kind` text, one row per line:
    the three that `syntax` names, then the one that tail(s), if given,
    takes off the end of the stripped line s.  Clipped as exact ints to
    [-1, q] in an int64 array, an entry outside [0, q) stays outside.
    checks(R) pairs boolean masks over the rows with messages filled from
    a row's exact ints by str.format.  The ValueError names the first bad
    line of the text.
    """
    rows, linenos, error = [], [], None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        header = _HEADER.match(s)
        try:
            if header and header.group(1) != kind:
                raise ValueError(f"header says # {header.group(1)}, but a "
                                 f"# {kind} file is expected")
            # the writers spell the field as str(spec) does: "7", "3^2"
            if header and header.group(2) != str(spec):
                raise ValueError(f"header says q={header.group(2)}, but the "
                                 f"field is GF({spec})")
            if s and not s.startswith("#"):
                s, *last = tail(s) if tail else (s,)
                parts = s.split()
                if len(parts) != 3:
                    raise ValueError(f"expected '{syntax}', got {raw!r}")
                rows.append([*map(int, parts), *last])
                linenos.append(lineno)
        except ValueError as e:
            error = e if header else ValueError(f"line {lineno}: {e}")
            break
    R = np.array(rows, dtype=object).reshape(-1, 3 if tail is None else 4)
    R = np.clip(R, -1, spec.q).astype(np.int64)
    # Every row precedes the line of `error`, so a row's fault comes first.
    failed = checks(R)
    bad = np.flatnonzero(np.logical_or.reduce([m for m, _ in failed]))
    if len(bad):
        message = next(msg for m, msg in failed if m[bad[0]])
        raise ValueError(f"line {linenos[bad[0]]}: "
                         + message.format(*rows[bad[0]]))
    if error is not None:
        raise error
    return R


def poly_from_text(text: str, spec: FieldSpec) -> HomPoly:
    q = spec.q

    def checks(R):
        i, j, c = R.T
        outside = (i < 0) | (j < 0) | (i + j >= q)
        repeated = np.ones(len(R), dtype=bool)
        repeated[np.unique(np.where(outside, -1, i * q + j),
                           return_index=True)[1]] = False
        return [(outside, "monomial exponents ({0}, {1}) out of range"),
                (repeated, "monomial {0} {1} repeated"),
                ((c < 0) | (c >= q),
                 f"encoding {{2}} out of range for GF({spec})")]

    i, j, c = read_rows(text, spec, "psp", "i j coeff", checks).T
    coeffs = np.zeros(num_monomials(spec), dtype=np.int64)
    coeffs[i * q - i * (i - 1) // 2 + j] = c  # place in monomial_indices
    return HomPoly(spec, coeffs)
