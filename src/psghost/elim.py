"""Pivotal elimination proving the image of the multiset map has full rank.

For a prime p, the images of C(p+1,2) chosen base points span the
polynomial space.  The witness matrix (monomial values b^j * c^i with the
multinomial coefficients stripped out as a column scaling) is block lower
triangular; three blocks are Vandermonde-like, and the remaining interior
block is reduced by a recursive pivotal elimination over exact integers:

    step 1:  row(b,c) <- row(b,c) - row(b,1)                       c >= 2
    step n:  row(b,c) <- row(b,c) / (c-(n-1)) - row(b,n)           c >= n+1

where the division is elementwise and exact over the integers.  Closed-form
nested-summation formulas give every row at every step, each level summed
for every upper index in one pass of running sums; this module implements
both routes and compares them row by row.

The elimination itself is pure Python; numpy, through `linalg`, is
imported only by the rank checks of `verify_procedure`, which build the
witness matrices as residues mod p.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from operator import mul

from .field import is_prime, multinomial_int


class IntegrityError(ArithmeticError):
    """An exactness claim (integer divisibility) failed during elimination."""


# -- printed matrices ------------------------------------------------

def table2_labels(p: int) -> list[tuple[int, int]]:
    """(b, c) of the base points (1,b,c), b+c <= p-1, in the printed order
    of the initial matrix: its rows, and read as (j, i) its columns
    b^j * c^i."""
    return ([(0, 0)] + [(b, 0) for b in range(1, p)]
            + [(0, c) for c in range(1, p)] + fourth_block_labels(p))


def column_scaling(p: int) -> list[int]:
    """Multinomial coefficient stripped from each column of the witness
    matrix: the coefficient of b^j c^i in (X+bY+cZ)^(p-1)."""
    return [multinomial_int(p - 1, i, j) for (j, i) in table2_labels(p)]


def fourth_block_labels(p: int) -> list[tuple[int, int]]:
    """(b, c), b,c >= 1, b+c <= p-1, ordered by c then b: the rows of the
    interior block.  Its columns are (b-1, c-1), the exponents (lam, mu)
    of b^lam c^mu, lam+mu <= p-3, left once b*c is taken out."""
    return [(b, c) for c in range(1, p - 1) for b in range(1, p - c)]


def fourth_block(p: int) -> list[list[int]]:
    """The interior block after extracting the common b*c factor.

    Entry at row (1,b,c), column b^lam c^mu is the integer b^lam * c^mu.
    Size (p-2)(p-1)/2; for p = 3 it is the 1x1 matrix (1).
    """
    rows = fourth_block_labels(p)
    cols = [(b - 1, c - 1) for b, c in rows]
    return [[b**lam * c**mu for (lam, mu) in cols] for (b, c) in rows]


# -- the recursive elimination ----------------------------------------

@dataclass
class StepState:
    """The interior block after n elimination steps, exact integers."""

    p: int
    n: int
    matrix: list[list[int]]

    @property
    def row_labels(self) -> list[tuple[int, int]]:
        return fourth_block_labels(self.p)

    @property
    def col_labels(self) -> list[tuple[int, int]]:
        return [(b - 1, c - 1) for b, c in self.row_labels]

    def to_csv(self) -> str:
        header = "row," + ",".join(f"b^{l}c^{m}" for l, m in self.col_labels)
        lines = [header]
        for (b, c), row in zip(self.row_labels, self.matrix):
            lines.append(f"(1;{b};{c})^({self.n})," +
                         ",".join(str(x) for x in row))
        return "\n".join(lines) + "\n"


def elimination_step(state: StepState) -> StepState:
    """One pivotal step: rows with c = n stay fixed, rows with c >= n+1
    are divided elementwise by c-(n-1) (exactly, n >= 2) and the pivotal
    row with the same b is subtracted.  Fixed rows are shared, not copied."""
    p, n, labels = state.p, state.n + 1, state.row_labels
    pivots = {b: row for (b, c), row in zip(labels, state.matrix) if c == n}
    new_rows = []
    for (b, c), row in zip(labels, state.matrix):
        if c <= n:
            new_rows.append(row)
            continue
        pivot = pivots[b]
        if n == 1:
            new_rows.append([x - y for x, y in zip(row, pivot)])
            continue
        div = c - (n - 1)
        out = []
        for x, y in zip(row, pivot):
            if x % div:
                raise IntegrityError(
                    f"step {n}: entry {x} of row (1,{b},{c}) not divisible "
                    f"by {div}")
            out.append(x // div - y)
        new_rows.append(out)
    return StepState(p, n, new_rows)


def elimination_states(p: int) -> Iterator[StepState]:
    """The interior block, then its state after each of the p-2 steps,
    each made once the previous one is consumed."""
    state = StepState(p, 0, fourth_block(p))
    yield state
    for _ in range(p - 2):
        state = elimination_step(state)
        yield state


def run_elimination(p: int) -> list[StepState]:
    """All states from the initial block through step p-2."""
    return list(elimination_states(p))


# -- closed-form rows -------------------------------------------------

def closed_form_factor(n: int, c: int, cols) -> list[int]:
    """Row (1,b,c) after n >= 1 steps is b^lam * f(n, c, mu) at column
    b^lam c^mu; this returns f for each column of `cols`, shared by all b.

    f is c^mu - 1 for n = 1, else level k = 1 at prev = mu of n//2 nested
    sums S_k(prev) = sum_{i < prev-1} (a^(prev-1-i) - b^(prev-1-i)) g(i),
    a = 2k, b = 2k-1, with g = S_{k+1}, and for k = n//2 g(i) = c^i - n^i
    (odd n) or (c-n) * c^i (even n).  Each level is built for every prev in
    one pass of running sums A(prev+1) = a * (A(prev) + g(prev-1)), B alike.
    """
    if n < 1:
        raise ValueError("closed forms are defined for steps n >= 1")
    mus = [mu for _, mu in cols]
    if n == 1:
        return [c**mu - 1 for mu in mus]
    size = max(mus, default=-1) + 1
    if n % 2:
        g = [c**i - n**i for i in range(size)]
    else:
        g = [(c - n) * c**i for i in range(size)]
    for k in range(n // 2, 0, -1):
        a, b = 2 * k, 2 * k - 1
        A = B = 0
        level = [0, 0]
        for x in g[:-2]:
            A = a * (A + x)
            B = b * (B + x)
            level.append(A - B)
        g = level[:size]
    return [g[mu] for mu in mus]


# -- verification -----------------------------------------------------

@dataclass
class ElimReport:
    p: int
    ok: bool
    steps_run: int
    checks: list[str]
    discrepancies: list[str]
    cells_checked: int  # closed-form cells compared with elimination

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [f"elimination procedure p={self.p}: {status} "
                 f"({self.steps_run} steps)"]
        lines += [f"  ok: {c}" for c in self.checks]
        lines += [f"  MISMATCH: {d}" for d in self.discrepancies]
        return "\n".join(lines)


def verify_procedure(p: int) -> ElimReport:
    """Run all p-2 steps and check every exactness claim.

    Checks: closed forms equal direct elimination on every row, the
    divisibility claims hold over the integers (a failed one ends the walk
    as a discrepancy), each pivotal block is a nonsingular Vandermonde
    block mod p, the outer blocks are nonsingular mod p, and the
    multinomial-weighted image matrix has full rank mod p by independent
    generic elimination.  Those rank checks eliminate p(p+1)/2-square
    matrices, which linalg.rref refuses (ArithmeticError) for p >= 257.
    """
    import numpy as np

    from . import linalg
    if not is_prime(p) or p < 3:
        raise ValueError("verify_procedure requires an odd prime")
    checks: list[str] = []
    disc: list[str] = []
    cells = 0

    # One state at a time.  Step n passes the rows c <= n on unchanged, so
    # its pivotal rows (c = n) are read from state n; it changes c >= n+1,
    # row (1,b,c) to b^lam times the closed form, by column.
    labels = fourth_block_labels(p)
    cols = [(b - 1, c - 1) for b, c in labels]
    scale = {b: [b**lam for lam, _ in cols] for b in range(1, p - 1)}
    blocks = []
    try:
        for state in elimination_states(p):
            n = state.n
            if n == 0:
                continue
            pivot_cols = [cols.index((lam, n - 1))
                          for lam in range(p - 1 - n)]
            factors = {c: closed_form_factor(n, c, cols)
                       for c in range(n + 1, p - 1)}
            blocks.append([])
            for (b, c), row in zip(labels, state.matrix):
                if c == n:
                    blocks[-1].append([row[i] for i in pivot_cols])
                if c <= n:
                    continue
                cells += len(row)
                expected = list(map(mul, scale[b], factors[c]))
                if expected != row:
                    disc += [f"step {n} row (1,{b},{c}) col b^{lam}c^{mu}: "
                             f"closed form {cf} != eliminated {x}"
                             for (lam, mu), cf, x in zip(cols, expected, row)
                             if cf != x]
    except IntegrityError as e:  # a failed divisibility claim
        disc.append(str(e))
    if not disc:
        checks.append("closed forms match direct elimination on every cell")
        checks.append("integer divisibility by c-n holds at every step")

    # Pivotal Vandermonde blocks: in the columns b^lam c^(n-1) the rows
    # c = n are b^lam times a common scalar factor, a scaled Vandermonde
    # block.
    for n, block in enumerate(blocks, 1):
        f = block[0][0]
        expected = [[b**lam * f for lam in range(len(block))]
                    for b in range(1, p - n)]
        if block != expected:
            disc.append(f"step {n}: pivotal block is not Vandermonde")
        elif linalg.rank(block, p) == len(block):
            checks.append(f"step {n}: pivotal Vandermonde block nonsingular "
                          f"mod {p}")
        else:
            disc.append(f"step {n}: pivotal block singular mod {p}")

    # Outer blocks of the initial matrix.
    vand = [[b**j % p for j in range(1, p)] for b in range(1, p)]
    if linalg.rank(vand, p) == len(vand):
        checks.append("outer Vandermonde blocks nonsingular mod p")
    else:
        disc.append("outer Vandermonde block singular mod p")

    # Independent cross-check: multinomial-weighted image matrix has full
    # rank mod p via generic elimination, and column stripping is a pure
    # scaling that cannot change singularity.  Both matrices are built as
    # residues mod p: entry b^j c^i of the stripped witness matrix at row
    # (1,b,c), times the multinomial of column b^j c^i when weighted.  The
    # columns carry the row labels, (j, i) = (b, c) transposed.
    power = np.array([[pow(x, e, p) for e in range(p)] for x in range(p)])
    b, c = np.array(table2_labels(p)).T[:, :, None]
    stripped = power[b, b.T] * power[c, c.T] % p
    scaling = np.array([s % p for s in column_scaling(p)])
    full = linalg.rank(stripped * scaling % p, p)
    dim = p * (p + 1) // 2
    if full == dim:
        checks.append(f"weighted image matrix has full rank {dim} mod {p}")
    else:
        disc.append(f"weighted image matrix rank {full} != {dim} mod {p}")
    if scaling.all():
        checks.append("stripped multinomial column factors all nonzero mod p")
    else:
        disc.append("a stripped multinomial column factor vanishes mod p")
    if linalg.rank(stripped, p) == dim:
        checks.append("stripped matrix nonsingular mod p (agrees with "
                      "weighted matrix)")
    else:
        disc.append("stripped matrix singular mod p")

    return ElimReport(p, not disc, state.n, checks, disc, cells)

