"""Exact arithmetic in GF(q), q = p^h, at desk scale (q <= 2^20).

An element is its integer encoding: the base-p digit expansion of its
polynomial-basis coordinates, constant term = lowest digit.  All file
formats use the encoding.  Products and powers go through log/antilog
tables of a primitive element, built once per field on first use.

numpy is imported by the functions that build or take arrays, not when
this module loads, so `FieldSpec` of a prime field and the integer helpers
that `elim` uses load without it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

MAX_Q = 2**20

# Built-in irreducible moduli (Conway polynomials), low-order first.
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


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _check_order(p: int, h: int, max_q: int = MAX_Q) -> None:
    """ValueError unless h >= 1, p^h <= max_q and p is prime.

    A prime power r^e given as p = r^e with h = 1 is named as r^e.
    """
    # Size before primality: trial division of a large p would not finish.
    # p^h >= 2^h, so a large h is refused before p^h is formed.
    if h < 1:
        raise ValueError(f"extension degree must be >= 1, got {h}")
    if p >= 2 and (h >= max_q.bit_length() or p**h > max_q):
        raise ValueError(f"q = {p}^{h} exceeds {max_q}, the largest field "
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


def _rabin_irreducible(modulus, p: int) -> bool:
    """Rabin's test for a monic modulus f of degree h >= 2 over F_p.

    f is irreducible iff x^(p^h) = x (mod f) and, for every prime r
    dividing h, gcd(x^(p^(h/r)) - x, f) = 1 (Rabin, SIAM J. Comput. 1980).
    The gcd is 1 iff multiplication by x^(p^(h/r)) - x is invertible mod f.
    """
    import numpy as np

    from .linalg import rank
    h = len(modulus) - 1
    one, x = np.eye(h, dtype=np.int64)[:2]
    times_x = _multiplication_matrix(x, modulus, p)
    powers = [one]  # x^j mod f
    for _ in range(p * (h - 1)):
        powers.append(times_x @ powers[-1] % p)
    # The Frobenius y -> y^p is F_p-linear; its column k is x^(pk).
    frobenius = np.stack(powers[::p], axis=1)
    frob = [x]  # frob[k] = x^(p^k) mod f
    for _ in range(h):
        frob.append(frobenius @ frob[-1] % p)
    if not np.array_equal(frob[h], x):
        return False
    return all(rank(_multiplication_matrix((frob[h // r] - x) % p, modulus, p),
                    p) == h
               for r in range(2, h + 1) if h % r == 0 and is_prime(r))


@dataclass(frozen=True)
class FieldSpec:
    """Description of GF(p^h): characteristic, degree and modulus."""

    p: int
    h: int
    modulus: tuple[int, ...]  # low-order first, monic, degree h

    def __post_init__(self):
        _check_order(self.p, self.h)
        mod = tuple(c % self.p for c in self.modulus)
        if len(mod) != self.h + 1 or mod[-1] != 1:
            raise ValueError("modulus must be monic of degree h")
        if self.h == 1 and mod != (0, 1):
            raise ValueError("for h = 1 the modulus must be x")
        if self.h >= 2 and not _rabin_irreducible(mod, self.p):
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
                _check_order(p, h)
                raise ValueError(
                    f"no built-in modulus for GF({p}^{h}); pass one explicitly")
        return cls(p, h, tuple(modulus))

    @classmethod
    def parse(cls, text: str, max_q: int = MAX_Q) -> "FieldSpec":
        """Parse a field description, "7" or "3^2", of order at most max_q."""
        ps, caret, hs = text.strip().partition("^")
        p, h = int(ps), int(hs) if caret else 1
        _check_order(p, h, max_q)
        return cls.of(p, h)

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

    def element(self, encoding: int) -> "FieldElement":
        """Element from its integer encoding (base-p digits, low first)."""
        return FieldElement(self, self.check_encoding(encoding))

    def elements(self) -> list["FieldElement"]:
        return [FieldElement(self, k) for k in range(self.q)]


@lru_cache(maxsize=None)
def _tables(spec: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """(exp, log) of the primitive element of least encoding.

    g is primitive iff its powers first return to 1 after q-1 steps.
    """
    import numpy as np
    p, q = spec.p, spec.q
    for g in range(1, q):
        # e -> g * e is F_p-linear: tabulate it one base-p digit of e at a
        # time, the digit at x^k adding a multiple of g * x^k.
        times_g = np.zeros(1, dtype=np.int64)
        for gxk in _multiplication_matrix(digits(spec, g), spec.modulus, p).T:
            multiples = from_digits(spec, np.outer(np.arange(p), gxk) % p)
            times_g = add(spec, multiples[:, None], times_g).ravel()
        times_g = times_g.tolist()
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
    """Element of GF(p^h), a view of its integer encoding."""

    spec: FieldSpec
    encoding: int

    def is_zero(self) -> bool:
        return self.encoding == 0

    def __mul__(self, other):
        if not isinstance(other, FieldElement) or other.spec != self.spec:
            raise ValueError("field mismatch")
        a, b, spec = self.encoding, other.encoding, self.spec
        if a == 0 or b == 0:
            return FieldElement(spec, 0)
        exp, log = _tables(spec)
        return FieldElement(
            spec, exp.item((log.item(a) + log.item(b)) % (spec.q - 1)))

    def __pow__(self, n: int):
        a, spec = self.encoding, self.spec
        if a == 0:
            if n < 0:
                raise ZeroDivisionError("inverse of zero field element")
            return FieldElement(spec, 1 if n == 0 else 0)
        exp, log = _tables(spec)
        return FieldElement(spec, exp.item(log.item(a) * n % (spec.q - 1)))

    def inv(self) -> "FieldElement":
        return self ** -1


@lru_cache(maxsize=None)
def multinomial_int(n: int, i: int, j: int) -> int:
    """Exact integer multinomial n! / (i! j! (n-i-j)!)."""
    if i < 0 or j < 0 or i + j > n:
        raise ValueError(f"invalid multinomial indices ({i},{j}) for n={n}")
    return math.factorial(n) // (
        math.factorial(i) * math.factorial(j) * math.factorial(n - i - j))
