"""Exact arithmetic in GF(q), q = p^h <= MAX_Q = 64, at desk scale.

Each field has one modulus: x for a prime field, else the built-in
Conway polynomial of DEFAULT_MODULI.  GF(q) is unique up to isomorphism,
so another irreducible modulus would only relabel the encodings.

An element is its integer encoding: the base-p digit expansion of its
polynomial-basis coordinates, constant term = lowest digit.  All file
formats use the encoding.  Products and powers go through log/antilog
tables of a primitive element, built once per field on first use.

numpy is imported by the functions that build or take arrays, not when
this module loads, so `FieldSpec` and the integer helpers that `elim`
uses load without it.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# Largest field order: desk scale, every prime up to 61 and every prime
# power up to 2^6.  At q = 61 the point-image matrix is 3783 x 1891; far
# beyond it the builders would allocate without bound before printing
# anything.
MAX_Q = 64

# The modulus of GF(p^h) for each prime power p^h <= MAX_Q with h >= 2
# (Conway polynomials), low-order first.
DEFAULT_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),        # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),     # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),  # x^4 + x + 1
    (2, 5): (1, 0, 1, 0, 0, 1),  # x^5 + x^2 + 1
    (3, 2): (2, 2, 1),        # x^2 + 2x + 2
    (3, 3): (1, 2, 0, 1),     # x^3 + 2x + 1
    (5, 2): (2, 4, 1),        # x^2 + 4x + 2
    (7, 2): (3, 6, 1),        # x^2 + 6x + 3
    (2, 6): (1, 1, 0, 1, 1, 0, 1),  # x^6 + x^4 + x^3 + x + 1
}

# "p" or "p^h" in ASCII digits.  A leading "-" is read, so that a
# negative part is refused for what it is.
_FIELD_TEXT = re.compile(r"(-?[0-9]+)(?:\^(-?[0-9]+))?")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _check_order(p: int, h: int) -> None:
    """ValueError unless h >= 1, p^h <= MAX_Q and p is prime.

    A prime power r^e given as p = r^e with h = 1 is named as r^e.
    """
    # Size before primality: trial division of a large p would not finish.
    # p^h >= 2^h, so a large h is refused before p^h is formed.
    if h < 1:
        raise ValueError(f"extension degree must be >= 1, got {h}")
    if p >= 2 and (h >= MAX_Q.bit_length() or p**h > MAX_Q):
        q = p if h == 1 else f"{p}^{h}"
        raise ValueError(f"q = {q} exceeds {MAX_Q}, the largest field "
                         "supported")
    if not is_prime(p):
        r = next((d for d in range(2, p) if p % d == 0), 0)
        e = next((e for e in range(2, p.bit_length()) if r**e == p), 0)
        if h == 1 and e:
            raise ValueError(f"{p} is {r}^{e}; write {r}^{e}")
        raise ValueError(f"p = {p} is not prime")


def _multiplication_matrix(v, modulus, p: int) -> np.ndarray:
    """Matrix of y -> v * y on digit vectors mod a monic modulus."""
    import numpy as np
    cols = [np.asarray(v, dtype=np.int64)]
    for _ in range(len(modulus) - 2):  # times x: shift up, reduce x^h
        c = cols[-1]
        cols.append((np.concatenate([[0], c[:-1]])
                     - c[-1] * np.array(modulus[:-1])) % p)
    return np.stack(cols, axis=1)


@dataclass(frozen=True)
class FieldSpec:
    """GF(p^h): p prime, q = p^h <= MAX_Q."""

    p: int
    h: int = 1
    q: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            p, h = operator.index(self.p), operator.index(self.h)
        except TypeError:
            raise ValueError(f"p and h are ints, got p = {self.p!r}, "
                             f"h = {self.h!r}") from None
        _check_order(p, h)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "q", p**h)

    @property
    def modulus(self) -> tuple[int, ...]:
        """Low-order first, monic, degree h: x, or the built-in modulus."""
        return (0, 1) if self.h == 1 else DEFAULT_MODULI[(self.p, self.h)]

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        """Parse a field description, "7" or "3^2"."""
        m = _FIELD_TEXT.fullmatch(text.strip())
        if m is None:
            raise ValueError("a field is written p or p^h in the digits 0-9")
        ps, hs = m.groups(default="1")
        return cls(int(ps), int(hs))

    def __str__(self):
        return str(self.p) if self.h == 1 else f"{self.p}^{self.h}"

    # -- log/antilog tables --------------------------------------------

    @property
    def exp(self) -> np.ndarray:
        """exp[k] = g^k for k < q, g the primitive element of least encoding."""
        return _tables(self)[0]

    @property
    def log(self) -> np.ndarray:
        """Inverse of exp on nonzero encodings; log[0] is 0 and unused."""
        return _tables(self)[1]

    # -- element construction ------------------------------------------

    def check_encoding(self, encoding) -> int:
        """The int encoding of an element; ValueError outside [0, q)."""
        encoding = operator.index(encoding)
        if not 0 <= encoding < self.q:
            raise ValueError(f"encoding {encoding} out of range for GF({self})")
        return encoding

    def elements(self) -> list["FieldElement"]:
        return [FieldElement(self, k) for k in range(self.q)]


@lru_cache(maxsize=None)
def _tables(spec: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """(exp, log) of the primitive element of least encoding.

    g is primitive iff its powers first return to 1 after q-1 steps.
    """
    import numpy as np
    p, q = spec.p, spec.q
    every = digits(spec, np.arange(q))
    for g in range(1, q):
        # e -> g * e is F_p-linear: one product maps the digits of every e
        G = _multiplication_matrix(digits(spec, g), spec.modulus, p)
        times_g = from_digits(spec, every @ G.T % p).tolist()
        exp = [1, times_g[1]]
        while exp[-1] != 1 and len(exp) < q:
            exp.append(times_g[exp[-1]])
        if len(exp) == q and exp[-1] == 1:
            break
    else:
        raise ArithmeticError(f"GF({spec}) has no primitive element")
    exp = np.array(exp, dtype=np.int64)
    log = np.zeros(q, dtype=np.int64)
    log[exp[:-1]] = np.arange(q - 1)
    exp.flags.writeable = log.flags.writeable = False
    return exp, log


# -- array arithmetic on encodings -------------------------------------

def digits(spec: FieldSpec, a) -> np.ndarray:
    """Base-p digits of encodings, low first, along a new last axis."""
    import numpy as np
    a = np.asarray(a, dtype=np.int64)
    return a[..., None] // spec.p**np.arange(spec.h) % spec.p


def from_digits(spec: FieldSpec, D) -> np.ndarray:
    """Encodings of digit vectors (each < p) along the last axis."""
    import numpy as np
    return np.asarray(D, dtype=np.int64) @ spec.p**np.arange(spec.h)


def add(spec: FieldSpec, a, b):
    """Encodings of a + b: digit-wise sums mod p.

    Python ints give a Python int, arrays an array.
    """
    p, s, pk = spec.p, 0, 1
    for _ in range(spec.h):
        s = s + (a // pk + b // pk) % p * pk
        pk *= p
    return s


def mul(spec: FieldSpec, a, b) -> np.ndarray:
    """Encodings of a * b through the log/antilog tables."""
    import numpy as np
    a, b = np.asarray(a), np.asarray(b)
    prod = spec.exp[(spec.log[a] + spec.log[b]) % (spec.q - 1)]
    return np.where((a == 0) | (b == 0), 0, prod)


@dataclass(frozen=True)
class FieldElement:
    """Element of GF(p^h) from `FieldSpec.elements()`; `*` only."""

    spec: FieldSpec
    encoding: int

    def __mul__(self, other):
        if not isinstance(other, FieldElement) or other.spec != self.spec:
            raise ValueError("field mismatch")
        a, b, spec = self.encoding, other.encoding, self.spec
        if a == 0 or b == 0:
            return FieldElement(spec, 0)
        exp, log = _tables(spec)
        return FieldElement(
            spec, exp.item((log.item(a) + log.item(b)) % (spec.q - 1)))


@lru_cache(maxsize=None)
def multinomial_int(n: int, i: int, j: int) -> int:
    """Exact integer multinomial n! / (i! j! (n-i-j)!)."""
    if i < 0 or j < 0 or i + j > n:
        raise ValueError(f"invalid multinomial indices ({i},{j}) for n={n}")
    return math.factorial(n) // (
        math.factorial(i) * math.factorial(j) * math.factorial(n - i - j))
