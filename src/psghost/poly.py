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

from .field import FieldElement, FieldSpec, multinomial_mod_p
from .plane import ProjLine, enumerate_points

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


def negate_poly(G: HomPoly) -> HomPoly:
    return HomPoly(G.spec, tuple(-a for a in G.coeffs))


@lru_cache(maxsize=None)
def point_image_rows(spec: FieldSpec) -> tuple[tuple[FieldElement, ...], ...]:
    """Coefficient vector of (aX+bY+cZ)^(q-1) for every canonical point.

    Entry at (i, j) is C(q-1; i, j) * a^(q-1-i-j) * b^j * c^i.
    """
    d = spec.q - 1
    monos = monomial_indices(spec)
    rows = []
    for P in enumerate_points(spec):
        a, b, c = P.coords
        pa = _powers(a, d)
        pb = _powers(b, d)
        pc = _powers(c, d)
        row = tuple(
            multinomial_mod_p(i, j, spec) * (pa[d - i - j] * (pb[j] * pc[i]))
            for i, j in monos)
        rows.append(row)
    return tuple(rows)


def _powers(x: FieldElement, d: int) -> list[FieldElement]:
    out = [x.spec.one()]
    for _ in range(d):
        out.append(out[-1] * x)
    return out


@lru_cache(maxsize=None)
def point_matrix_fp(spec: FieldSpec):
    """Point-image rows in prime-subfield coordinates, as a numpy matrix.

    Shape (q^2+q+1, h*C(q+1,2)); a multiset maps to mult @ matrix mod p.
    """
    from .linalg import expand_fq_to_fp
    return expand_fq_to_fp(point_image_rows(spec))


def power_sum(S: "PointMultiset") -> HomPoly:
    """The power sum polynomial of a point multiset.

    Multiplicities act as prime-subfield scalars (they are already reduced
    mod p, which is all that matters for the scalar action); the sum is
    taken in prime-subfield coordinates.
    """
    import numpy as np

    spec = S.spec
    flat = np.asarray(S.mult, dtype=np.int64) @ point_matrix_fp(spec) % spec.p
    h = spec.h
    coeffs = tuple(FieldElement(spec, tuple(int(x) for x in flat[k * h:(k + 1) * h]))
                   for k in range(num_monomials(spec)))
    return HomPoly(spec, coeffs)


def evaluate(G: HomPoly, line) -> FieldElement:
    """Evaluate G at the coordinates of a line.

    Accepts a ProjLine or any nonzero coordinate triple; by degree-(q-1)
    homogeneity the value does not depend on the chosen representative.
    """
    spec = G.spec
    if isinstance(line, ProjLine):
        u, v, w = line.coords
    else:
        u, v, w = line
    d = spec.q - 1
    pu = _powers(u, d)
    pv = _powers(v, d)
    pw = _powers(w, d)
    acc = spec.zero()
    for (i, j), c in zip(monomial_indices(spec), G.coeffs):
        if not c.is_zero():
            acc = acc + c * (pu[d - i - j] * (pv[j] * pw[i]))
    return acc


# -- text format ------------------------------------------------------

_HEADER = re.compile(r"#\s*(?:mset|psp)\s+q=(\S+)")


def check_header(line: str, spec: FieldSpec) -> None:
    """Reject a "# mset q=..." or "# psp q=..." header naming another field.

    The header must spell the field as the writers do ("7", "3^2"); other
    comment lines pass.
    """
    m = _HEADER.match(line)
    if m is not None and m.group(1) != str(spec):
        raise ValueError(f"header says q={m.group(1)}, but the field is "
                         f"GF({spec})")


def poly_to_text(G: HomPoly) -> str:
    """One line per nonzero coefficient: "i j coeff"."""
    lines = [f"# psp q={G.spec}"]
    for (i, j), c in zip(monomial_indices(G.spec), G.coeffs):
        if not c.is_zero():
            lines.append(f"{i} {j} {c.encoding}")
    return "\n".join(lines) + "\n"


def poly_from_text(text: str, spec: FieldSpec) -> HomPoly:
    terms = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if not s or s.startswith("#"):
            check_header(s, spec)
            continue
        parts = s.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'i j coeff', got {raw!r}")
        try:
            i, j, enc = (int(x) for x in parts)
            terms[(i, j)] = spec.element(enc)
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from e
    return HomPoly.from_terms(spec, terms)
