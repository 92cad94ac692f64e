"""Exact arithmetic in GF(q), q = p^h, at desk scale (q <= 2^20).

Elements are stored in polynomial-basis coordinates (low-order first) and
carry a compact integer encoding: the base-p digit expansion of the
coordinate vector, constant term = lowest digit.  All file formats use the
integer encoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

MAX_Q = 2**20

# Built-in irreducible moduli (Conway polynomials), low-order first.
DEFAULT_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),        # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),     # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),  # x^4 + x + 1
    (3, 2): (2, 2, 1),        # x^2 + 2x + 2
    (3, 3): (1, 2, 0, 1),     # x^3 + 2x + 1
    (5, 2): (2, 4, 1),        # x^2 + 4x + 2
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_trim(v):
    v = list(v)
    while v and v[-1] == 0:
        v.pop()
    return v


def _poly_mod(num, den, p):
    """Remainder of num by monic-leading den, coefficients mod p."""
    num = [x % p for x in num]
    den = _poly_trim([x % p for x in den])
    inv_lead = pow(den[-1], -1, p)
    d = len(den) - 1
    while len(_poly_trim(num)) - 1 >= d:
        num = _poly_trim(num)
        k = len(num) - 1 - d
        factor = num[-1] * inv_lead % p
        for i, c in enumerate(den):
            num[k + i] = (num[k + i] - factor * c) % p
    return _poly_trim(num)


def _monic_polys(p, deg):
    """All monic polynomials of the given degree over F_p, low-order first."""
    def rec(k):
        if k == 0:
            yield []
            return
        for tail in rec(k - 1):
            for c in range(p):
                yield [c] + tail
    for low in rec(deg):
        yield low + [1]


def _is_irreducible(modulus, p, h):
    """Exhaustive factor search; intended for h <= 4."""
    if modulus[0] == 0 and h >= 1:
        return False  # divisible by x
    for deg in range(1, h // 2 + 1):
        for f in _monic_polys(p, deg):
            if not _poly_mod(modulus, f, p):
                return False
    # no factor of degree <= h/2 implies irreducible
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Description of GF(p^h): characteristic, degree and modulus."""

    p: int
    h: int
    modulus: tuple[int, ...]  # low-order first, monic, degree h

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.h < 1:
            raise ValueError(f"extension degree must be >= 1, got {self.h}")
        if self.p**self.h > MAX_Q:
            raise ValueError(f"q = {self.p}^{self.h} exceeds supported size")
        mod = tuple(c % self.p for c in self.modulus)
        if len(mod) != self.h + 1 or mod[-1] != 1:
            raise ValueError("modulus must be monic of degree h")
        if self.h == 1 and mod != (0, 1):
            raise ValueError("for h = 1 the modulus must be x")
        if 2 <= self.h <= 4 and not _is_irreducible(list(mod), self.p, self.h):
            raise ValueError(f"modulus {mod} is reducible over F_{self.p}")
        object.__setattr__(self, "modulus", mod)

    @property
    def q(self) -> int:
        return self.p**self.h

    @classmethod
    def of(cls, p: int, h: int = 1, modulus=None) -> "FieldSpec":
        if modulus is None:
            if h == 1:
                modulus = (0, 1)
            elif (p, h) in DEFAULT_MODULI:
                modulus = DEFAULT_MODULI[(p, h)]
            else:
                raise ValueError(
                    f"no built-in modulus for GF({p}^{h}); pass one explicitly")
        return cls(p, h, tuple(modulus))

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        """Parse a field description: "7" or "3^2"."""
        text = text.strip()
        if "^" in text:
            ps, hs = text.split("^", 1)
            return cls.of(int(ps), int(hs))
        return cls.of(int(text))

    def __str__(self):
        return str(self.p) if self.h == 1 else f"{self.p}^{self.h}"

    # -- element construction ------------------------------------------

    def element(self, encoding: int) -> "FieldElement":
        """Element from its integer encoding (base-p digits, low first)."""
        if not 0 <= encoding < self.q:
            raise ValueError(f"encoding {encoding} out of range for GF({self})")
        digits, v = [], encoding
        for _ in range(self.h):
            digits.append(v % self.p)
            v //= self.p
        return FieldElement(self, tuple(digits))

    def from_coeffs(self, coeffs) -> "FieldElement":
        coeffs = [c % self.p for c in coeffs]
        if len(coeffs) > self.h:
            coeffs = _poly_mod(coeffs, list(self.modulus), self.p)
        coeffs += [0] * (self.h - len(coeffs))
        return FieldElement(self, tuple(coeffs))

    def zero(self) -> "FieldElement":
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def elements(self) -> list["FieldElement"]:
        return [self.element(k) for k in range(self.q)]


@dataclass(frozen=True)
class FieldElement:
    """Element of GF(p^h) in polynomial-basis coordinates (low-order first)."""

    spec: FieldSpec
    coeffs: tuple[int, ...]

    def _check(self, other):
        if not isinstance(other, FieldElement) or other.spec != self.spec:
            raise ValueError("field mismatch")

    @property
    def encoding(self) -> int:
        v = 0
        for c in reversed(self.coeffs):
            v = v * self.spec.p + c
        return v

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other):
        self._check(other)
        p = self.spec.p
        return FieldElement(self.spec, tuple(
            (a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.spec.p
        return FieldElement(self.spec, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        p, h = self.spec.p, self.spec.h
        prod = [0] * (2 * h - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    prod[i + j] = (prod[i + j] + a * b) % p
        if h > 1:
            prod = _poly_mod(prod, list(self.spec.modulus), p)
        prod += [0] * (h - len(prod))
        return FieldElement(self.spec, tuple(prod[:h]))

    def __rmul__(self, scalar: int):
        """Integer scalar action through the prime subfield."""
        return self.spec.element(scalar % self.spec.p) * self

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        result = self.spec.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inv(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        return self ** (self.spec.q - 2)

    def __str__(self):
        return str(self.encoding)


def pow_q_minus_1(a: FieldElement) -> FieldElement:
    """a^(q-1): zero for a = 0, one otherwise.

    Computed by repeated squaring and cross-checked against the branch.
    """
    r = a ** (a.spec.q - 1)
    expected = a.spec.zero() if a.is_zero() else a.spec.one()
    if r != expected:
        raise ArithmeticError("power map disagrees with the zero/one branch")
    return r


@lru_cache(maxsize=None)
def multinomial_int(n: int, i: int, j: int) -> int:
    """Exact integer multinomial n! / (i! j! (n-i-j)!)."""
    if i < 0 or j < 0 or i + j > n:
        raise ValueError(f"invalid multinomial indices ({i},{j}) for n={n}")
    return math.factorial(n) // (
        math.factorial(i) * math.factorial(j) * math.factorial(n - i - j))


def multinomial_mod_p(i: int, j: int, spec: FieldSpec) -> FieldElement:
    """C(q-1; i, j) over the integers, reduced into the prime subfield."""
    if i < 0 or j < 0 or i + j > spec.q - 1:
        raise ValueError(f"require i, j >= 0 and i+j <= q-1, got ({i},{j})")
    return spec.element(multinomial_int(spec.q - 1, i, j) % spec.p)
