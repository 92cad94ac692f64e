"""Reference arithmetic for checking psghost outputs, independent of psghost.

GF(q) is held as addition and multiplication tables over the integer
encoding the file formats use: the base-p digits of the polynomial-basis
coordinates, constant term lowest.  Extension fields use the Conway moduli,
the same ones psghost has built in, because encodings depend on them.

Everything a check needs is derived here from the definitions: the canonical
point order, the point-image matrix C(q-1; i, j) a^(q-1-i-j) b^j c^i, power
sums of multisets in `a b c : m` text, incidence and a mod-p rank.
"""

from __future__ import annotations

import math

import numpy as np

# Conway moduli, low-order coefficient first.
CONWAY = {
    (2, 3): (1, 1, 0, 1),     # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),  # x^4 + x + 1
    (3, 2): (2, 2, 1),        # x^2 + 2x + 2
    (3, 3): (1, 2, 0, 1),     # x^3 + 2x + 1
}


def parse_order(text: str) -> tuple[int, int]:
    """(p, h) from a field order written "13" or "2^4"."""
    if "^" in text:
        p, h = text.split("^")
        return int(p), int(h)
    return int(text), 1


class GF:
    """GF(p^h) as tables indexed by integer encodings."""

    def __init__(self, p: int, h: int = 1):
        if h > 1 and (p, h) not in CONWAY:
            raise ValueError(f"no modulus for GF({p}^{h})")
        self.p, self.h, self.q = p, h, p**h
        q = self.q
        digits = [[(e // p**k) % p for k in range(h)] for e in range(q)]
        self.digits = np.array(digits, dtype=np.int64)  # q x h
        self.add = np.array(
            [[self._encode([(x + y) % p for x, y in zip(da, db)])
              for db in digits] for da in digits], dtype=np.int64)
        self.mul = np.array(
            [[self._encode(self._polymul(da, db)) for db in digits]
             for da in digits], dtype=np.int64)
        # pow[e, k] = e^k with 0^0 = 1
        self.pow = np.ones((q, q), dtype=np.int64)
        for k in range(1, q):
            self.pow[:, k] = self.mul[self.pow[:, k - 1], np.arange(q)]

    def _encode(self, d) -> int:
        return sum(c * self.p**k for k, c in enumerate(d))

    def _polymul(self, a, b):
        p, h = self.p, self.h
        prod = [0] * (2 * h - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        if h > 1:
            mod = CONWAY[(p, h)]
            for k in range(2 * h - 2, h - 1, -1):
                c = prod[k] % p
                for i in range(h):
                    prod[k - h + i] -= c * mod[i]
                prod[k] = 0
        return [x % p for x in prod[:h]]


def points(F: GF) -> list[tuple[int, int, int]]:
    """The q^2+q+1 normalized triples in canonical order.

    (0,0,1); (0,1,c) for c ascending; (1,b,c) for (b,c) ascending.  Lines
    use the same triples.
    """
    q = F.q
    return ([(0, 0, 1)] + [(0, 1, c) for c in range(q)]
            + [(1, b, c) for b in range(q) for c in range(q)])


def monomials(q: int) -> list[tuple[int, int]]:
    """(i, j) with i+j <= q-1 ascending; i is the exponent of Z, j of Y."""
    return [(i, j) for i in range(q) for j in range(q - i)]


def multinomial(n: int, i: int, j: int) -> int:
    return math.factorial(n) // (
        math.factorial(i) * math.factorial(j) * math.factorial(n - i - j))


def point_image_matrix(F: GF) -> np.ndarray:
    """Rows (aX+bY+cZ)^(q-1) per point, each coefficient as h digits.

    Shape (q^2+q+1, h*C(q+1,2)).  The power sum of a multiset with
    multiplicity vector m is m @ matrix mod p, read back with decode_poly.
    """
    q, d = F.q, F.q - 1
    P = np.array(points(F), dtype=np.int64)
    a, b, c = P[:, 0], P[:, 1], P[:, 2]
    mons = monomials(q)
    I = np.array([i for i, _ in mons])
    J = np.array([j for _, j in mons])
    coef = np.array([multinomial(d, i, j) % F.p for i, j in mons])
    pa = F.pow[a[:, None], (d - I - J)[None, :]]
    pb = F.pow[b[:, None], J[None, :]]
    pc = F.pow[c[:, None], I[None, :]]
    vals = F.mul[coef[None, :], F.mul[pa, F.mul[pb, pc]]]
    return F.digits[vals].reshape(len(P), len(mons) * F.h)


def decode_poly(F: GF, flat) -> list[int]:
    """Coefficient encodings from a digit vector of length h*C(q+1,2)."""
    D = np.asarray(flat, dtype=np.int64).reshape(-1, F.h)
    return [int(x) for x in D @ (F.p ** np.arange(F.h))]


def power_sum(F: GF, M: np.ndarray, mult) -> list[int]:
    """Power sum coefficients (encodings, monomial order) of a multiset."""
    return decode_poly(F, np.asarray(mult, dtype=np.int64) @ M % F.p)


def incidence(F: GF) -> np.ndarray:
    """0/1 matrix, rows points, columns lines: u*a + v*b + w*c = 0."""
    P = np.array(points(F), dtype=np.int64)
    acc = np.zeros((len(P), len(P)), dtype=np.int64)
    for k in range(3):
        acc = F.add[acc, F.mul[P[:, k][:, None], P[:, k][None, :]]]
    return (acc == 0).astype(np.int64)


def rank_mod_p(M, p: int) -> int:
    """Rank over F_p by row echelon elimination."""
    A = np.array(M, dtype=np.int64) % p
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        A[[r, k]] = A[[k, r]]
        A[r, c:] = A[r, c:] * pow(int(A[r, c]), -1, p) % p
        f = A[r + 1:, c].copy()
        A[r + 1:, c:] = (A[r + 1:, c:] - np.outer(f, A[r, c:])) % p
        r += 1
    return r


def in_row_span(B: np.ndarray, V: np.ndarray, p: int) -> np.ndarray:
    """Per row of V: whether it lies in the F_p row span of B.

    B must have a leading one in every row at pairwise distinct positions
    (an echelon basis); rows are applied in order of their leading one.
    """
    V = np.array(V, dtype=np.int64) % p
    leads = [int(np.nonzero(row)[0][0]) for row in B]
    for k in sorted(range(len(B)), key=leads.__getitem__):
        V = (V - np.outer(V[:, leads[k]], B[k])) % p
    return ~V.any(axis=1)


# -- text formats -------------------------------------------------------

def poly_text(q_text: str, q: int, coeffs) -> str:
    """`# psp` text: one "i j coeff" line per nonzero coefficient."""
    lines = [f"# psp q={q_text}"]
    for (i, j), c in zip(monomials(q), coeffs):
        if c:
            lines.append(f"{i} {j} {c}")
    return "\n".join(lines) + "\n"


def mset_vector(F: GF, text: str) -> list[int]:
    """Multiplicity vector (canonical point order) of `# mset` text.

    Raises ValueError on a point that is not a normalized triple.
    """
    index = {P: k for k, P in enumerate(points(F))}
    mult = [0] * len(index)
    for raw in text.splitlines():
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        coords, _, m = s.partition(":")
        P = tuple(int(x) for x in coords.split())
        if P not in index:
            raise ValueError(f"not a canonical point: {raw!r}")
        mult[index[P]] = (mult[index[P]] + (int(m) if m else 1)) % F.p
    return mult



# -- machine-speed calibration ------------------------------------------------

def calibrate() -> None:
    """A fixed mix of pure-Python table building and numpy elimination.

    The benchmark times it between operations, on the same core, to follow
    the speed of the machine; it does not depend on psghost.
    """
    for p in (13, 17, 19):
        F = GF(p)
        rank_mod_p(point_image_matrix(F), p)
        mset_vector(F, "\n".join(" ".join(map(str, P)) for P in points(F)))
    for _ in range(5):
        GF(3, 3)
