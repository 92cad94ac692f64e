"""Schoolbook GF(q) for the tests' oracles.

An element is its encoding, the base-p digits of a polynomial in x, low
first.  A product is the digit polynomials multiplied and reduced by the
field's monic modulus, as on paper; nothing here reads psghost's exp/log
tables, so the oracles built on it do not share the code they check.
Each field's tables are built once: at most q^2 = 4096 products.
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np


def digits(spec, e):
    return [e // spec.p**k % spec.p for k in range(spec.h)]


def encoding(spec, coeffs):
    return sum(c * spec.p**k for k, c in enumerate(coeffs))


def mul(spec, a, b):
    """a * b: the digit polynomials' product mod p and mod the modulus."""
    p, h, mod = spec.p, spec.h, spec.modulus
    prod = [0] * (2 * h - 1)
    for i, x in enumerate(digits(spec, a)):
        for j, y in enumerate(digits(spec, b)):
            prod[i + j] = (prod[i + j] + x * y) % p
    for k in range(2 * h - 2, h - 1, -1):  # x^h = -(mod[0] + ... )
        top, prod[k] = prod[k], 0
        for i in range(h):
            prod[k - h + i] = (prod[k - h + i] - top * mod[i]) % p
    return encoding(spec, prod[:h])


class Tables(NamedTuple):
    """Read-only int64 arrays over encodings: add[a, b], mul[a, b],
    pow[a, k] = a^k for 0 <= k < q with 0^0 = 1, and inv[a], inv[0] = 0."""

    add: np.ndarray
    mul: np.ndarray
    pow: np.ndarray
    inv: np.ndarray


@lru_cache(maxsize=None)
def tables(spec) -> Tables:
    """The tables of GF(q), built once per field."""
    q = spec.q
    add = np.array([[encoding(spec, [(s + t) % spec.p for s, t in
                                     zip(digits(spec, a), digits(spec, b))])
                     for b in range(q)] for a in range(q)], dtype=np.int64)
    prod = np.array([[mul(spec, a, b) for b in range(q)] for a in range(q)],
                    dtype=np.int64)
    power = np.ones((q, q), dtype=np.int64)
    for k in range(1, q):
        power[:, k] = prod[power[:, k - 1], np.arange(q)]
    inv = np.zeros(q, dtype=np.int64)
    a, b = np.nonzero(prod == 1)
    inv[a] = b
    for t in (add, prod, power, inv):
        t.flags.writeable = False
    return Tables(add, prod, power, inv)
