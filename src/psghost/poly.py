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
from .field import FieldSpec, multinomial_int
from .linalg import block_entries, mul_mod
from .plane import ProjLine, canonical_triples

if TYPE_CHECKING:  # pragma: no cover
    from .msets import PointMultiset


@lru_cache(maxsize=None)
def monomial_indices(spec: FieldSpec) -> tuple[tuple[int, int], ...]:
    """All (i, j) with i, j >= 0 and i+j <= q-1, ascending lexicographic."""
    d = spec.q - 1
    return tuple((i, j) for i in range(d + 1) for j in range(d + 1 - i))


def monomial_positions(spec: FieldSpec, i, j):
    """Positions of (i, j) in monomial_indices order, -1 out of range; ints
    or arrays.  Before those of Z^i come i(2q+1-i)/2 = iq - i(i-1)/2."""
    inside = (i >= 0) & (j >= 0) & (i + j < spec.q)
    return inside * (i * (2 * spec.q + 1 - i) // 2 + j + 1) - 1


def num_monomials(spec: FieldSpec) -> int:
    return spec.q * (spec.q + 1) // 2


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
        coeffs = np.zeros(num_monomials(spec), dtype=np.int64)
        for (i, j), c in terms.items():
            k = monomial_positions(spec, i, j)
            if k < 0:
                raise ValueError(f"monomial exponents {(i, j)} out of range")
            coeffs[k] = spec.check_encoding(c)
        return cls(spec, coeffs)


def add_poly(G: HomPoly, H: HomPoly) -> HomPoly:
    if G.spec != H.spec:
        raise ValueError("field mismatch")
    return HomPoly(G.spec, field.add(G.spec, G.coeffs, H.coeffs))


def monomial_values(spec: FieldSpec, T, coeffs) -> np.ndarray:
    """Encodings of c * u^(q-1-i-j) * v^j * w^i for triples (u, v, w).

    T is an (n, 3) array of encodings; the result is (n, m), one column per
    monomial in monomial_indices order, and coeffs the m encodings c.  One
    gather in the log domain: the exponent of g is log c + sum of
    exponent * log base, and an entry is 0 where c = 0 or a zero base has
    a positive exponent (0^0 = 1).
    """
    q1 = spec.q - 1
    # Exponents total q-1 and logs are at most q-2, so every sum over
    # nonzero factors is below q1^2; a zero factor adds at least q1^2.
    zero = q1 * q1
    logs = spec.log.copy()
    logs[0] = zero
    i, j = np.array(monomial_indices(spec), dtype=np.int64).reshape(-1, 2).T
    s = logs[np.asarray(T, dtype=np.int64)] @ np.stack([q1 - i - j, j, i])
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
def _orbits(spec: FieldSpec) -> np.ndarray:
    """Positions of the Frobenius orbits of the carry-free monomials.

    A monomial's multinomial is nonzero mod p exactly when (Lucas) i and j
    add without carry in base p; the others are Lucas's zeros.  Frobenius
    takes (i, j) to (p*i, p*j) mod q-1, q-1 fixed, which rotates the
    base-p digits of i and j.  Row t of the read-only (h, r) result holds
    the image under t rotations of each orbit's least member; row 0 holds
    those members, ascending.  Computed in plain Python.
    """
    p, h, q1 = spec.p, spec.h, spec.q - 1
    monomials = monomial_indices(spec)
    index = {m: k for k, m in enumerate(monomials)}

    def rotate(e):
        return e if e == q1 else p * e % q1

    orbits = []
    for k, (i, j) in enumerate(monomials):
        if multinomial_int(q1, i, j) % p:
            orbit = [k]
            for _ in range(h - 1):
                i, j = rotate(i), rotate(j)
                orbit.append(index[i, j])
            if min(orbit) == k:
                orbits.append(orbit)
    members = np.array(orbits).T
    members.flags.writeable = False
    return members


def _frobenius_fill(spec: FieldSpec, V) -> np.ndarray:
    """Encodings at every monomial from those at the orbit representatives.

    V is (n, r), one column per representative in _orbits order; the
    (n, C(q+1,2)) result is 0 at Lucas's zeros and, at a representative's
    image under t rotations, its column raised to the p^t-th power (through
    exp/log).  At h = 1 every monomial is its own orbit, and V is returned.
    """
    if spec.h == 1:
        return V
    out = np.zeros((len(V), num_monomials(spec)), dtype=V.dtype)
    for t, cols in enumerate(_orbits(spec)):
        power = spec.exp[spec.log * spec.p**t % (spec.q - 1)]  # e^(p^t)
        power[0] = 0
        out[:, cols] = power.astype(V.dtype)[V]
    return out


@lru_cache(maxsize=None)
def point_matrix_fp(spec: FieldSpec) -> np.ndarray:
    """The point-image rows in prime-subfield coordinates, on columns that
    span them all: a multiset maps to mult @ matrix mod p.

    At h = 1 it is point_image_rows itself.  At h > 1 it holds the h base-p
    digits of each orbit representative's column (see _orbits), once
    _frobenius_fill of those columns is certified to give back every
    column, a block of rows at a time (ArithmeticError otherwise).
    Frobenius is F_p-linear on the digits, so the kept columns span the
    rest and have their kernel; C(p+1,2)^h is the rank.  Read-only, in the
    smallest unsigned dtype that holds p-1; products go through mul_mod.
    """
    rows = point_image_rows(spec)
    if spec.h == 1:
        return rows
    reps = _orbits(spec)[0]
    step = max(1, block_entries(rows.size) // rows.shape[1])
    for k in range(0, len(rows), step):
        block = rows[k:k + step]
        if not np.array_equal(_frobenius_fill(spec, block[:, reps]), block):
            raise ArithmeticError(f"the point-image rows over GF({spec}) "
                                  "break the Lucas and Frobenius relations")
    image = rows[:, reps]
    M = np.empty(image.shape + (spec.h,), dtype=np.min_scalar_type(spec.p - 1))
    for k in range(spec.h):  # p^k < q, so digits stay in the rows' dtype
        M[:, :, k] = image // spec.p**k % spec.p
    M.flags.writeable = False
    return M.reshape(len(rows), -1)


def representative_digits(G: HomPoly) -> np.ndarray:
    """The base-p digits of G's coefficients at the orbit representatives:
    the target t of mult @ point_matrix_fp(spec) = t (mod p).  At h = 1
    they are G.coeffs itself."""
    spec = G.spec
    if spec.h == 1:
        return G.coeffs
    return field.digits(spec, G.coeffs[_orbits(spec)[0]]).ravel()


def power_sum(S: "PointMultiset") -> HomPoly:
    """The power sum polynomial of a point multiset.

    Multiplicities act as prime-subfield scalars (they are already reduced
    mod p, which is all that matters for the scalar action); the
    representatives' coefficients are one mul_mod in prime-subfield
    coordinates, and _frobenius_fill gives the rest.
    """
    spec = S.spec
    flat = mul_mod(S.mult[None], point_matrix_fp(spec), spec.p)
    coeffs = field.from_digits(spec, flat.reshape(1, -1, spec.h))
    return HomPoly(spec, _frobenius_fill(spec, coeffs)[0])


def line_values(G: HomPoly, T) -> np.ndarray:
    """Encodings of G at each triple of T, an (n, 3) array of encodings.

    The terms are summed digit-wise mod p through a table of digits, a
    block of rows at a time, each block at most block_entries of them all.
    """
    spec = G.spec
    T, coeffs = np.asarray(T), G.coeffs
    table = field.digits(spec, np.arange(spec.q)).astype(
        np.min_scalar_type(spec.p - 1))
    block = max(1, block_entries(len(T) * len(coeffs)) // len(coeffs))
    values = np.empty(len(T), dtype=np.int64)
    for k in range(0, len(T), block):
        terms = monomial_values(spec, T[k:k + block], coeffs)
        values[k:k + block] = field.from_digits(
            spec, table[terms].sum(axis=1) % spec.p)
    return values


def evaluate(G: HomPoly, line: ProjLine) -> int:
    """The encoding of G at a ProjLine of G's field; by degree-(q-1)
    homogeneity it does not depend on the chosen representative.
    ValueError("field mismatch") for anything else."""
    if not isinstance(line, ProjLine) or line.spec != G.spec:
        raise ValueError("field mismatch")
    return int(line_values(G, [line.encodings()])[0])


# -- text format ------------------------------------------------------

_HEADER = re.compile(r"#\s*(mset|psp)\s+q=(\S+)")


def check_digits(s: str) -> None:
    """ValueError unless s spells each int in the digits 0-9 with an
    optional leading "-", as FieldSpec.parse reads a field.

    int() alone also reads "1_0", "+2" and non-ASCII digits; in an ASCII
    s without "_" and "+" it reads only those spellings.
    """
    if not s.isascii() or "_" in s or "+" in s:
        raise ValueError("integers are written in the digits 0-9, each "
                         "with an optional leading '-'")


def nonzero_terms(G: HomPoly) -> list[tuple[int, int, int]]:
    """(i, j, encoding) of each nonzero coefficient, in monomial order."""
    return [(i, j, c) for (i, j), c in zip(monomial_indices(G.spec),
                                           G.coeffs.tolist()) if c]


def poly_to_text(G: HomPoly) -> str:
    """One line per nonzero coefficient: "i j coeff"."""
    return "".join([f"# psp q={G.spec}\n"] + [
        f"{i} {j} {c}\n" for i, j, c in nonzero_terms(G)])


def read_rows(text: str, spec: FieldSpec, kind: str, syntax: str, check,
              tail=None) -> np.ndarray:
    """The ints of each data line of a `# kind` text, one row per line:
    the three that `syntax` names, then the one that tail(s), if given,
    takes off the end of the stripped line s.  Each line is checked as it
    is read: a header against kind and spec, a data line's spelling (see
    check_digits) and then check(row) on its exact ints; every ValueError
    names the line.  The rows become one int64 array once all have passed.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        try:
            if s.startswith("#"):
                # a comment, unless its first word, in any case, names a kind
                if s[1:].lower().split()[:1] not in (["mset"], ["psp"]):
                    continue
                if not (header := _HEADER.fullmatch(s)):
                    raise ValueError(f"malformed header {raw!r}, expected "
                                     f"'# {kind} q=<p^h>'")
                if header.group(1) != kind:
                    raise ValueError(f"header says # {header.group(1)}, but "
                                     f"a # {kind} file is expected")
                # the writers spell the field as str(spec) does: "7", "3^2"
                if header.group(2) != str(spec):
                    raise ValueError(f"header says q={header.group(2)}, but "
                                     f"the field is GF({spec})")
            elif s:
                check_digits(s)
                s, *last = tail(s) if tail else (s,)
                parts = s.split()
                if len(parts) != 3:
                    raise ValueError(f"expected '{syntax}', got {raw!r}")
                row = [*map(int, parts), *last]
                check(row)
                rows.append(row)
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from e
    return np.array(rows, dtype=np.int64).reshape(-1, 3 if tail is None else 4)


def poly_from_text(text: str, spec: FieldSpec) -> HomPoly:
    q, seen = spec.q, set()

    def check(row):
        i, j, c = row
        if i < 0 or j < 0 or i + j >= q:
            raise ValueError(f"monomial exponents ({i}, {j}) out of range")
        if (i, j) in seen:
            raise ValueError(f"monomial {i} {j} repeated")
        seen.add((i, j))
        if not 0 <= c < q:
            raise ValueError(f"encoding {c} out of range for GF({spec})")

    i, j, c = read_rows(text, spec, "psp", "i j coeff", check).T
    coeffs = np.zeros(num_monomials(spec), dtype=np.int64)
    coeffs[monomial_positions(spec, i, j)] = c
    return HomPoly(spec, coeffs)
