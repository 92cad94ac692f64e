import hashlib
import tracemalloc

import pytest

from psghost import elim
from psghost.field import multinomial_int

# Hand-transcribed step matrices for p = 7 (non-pivotal rows only).
# Columns of the interior block, in order:
# 1, b, b2, b3, b4, c, bc, b2c, b3c, c2, bc2, b2c2, c3, bc3, c4
STEP1_P7 = {
    (1, 2): [0, 0, 0, 0, 0, 1, 1, 1, 1, 3, 3, 3, 7, 7, 15],
    (2, 2): [0, 0, 0, 0, 0, 1, 2, 4, 8, 3, 6, 12, 7, 14, 15],
    (3, 2): [0, 0, 0, 0, 0, 1, 3, 9, 27, 3, 9, 27, 7, 21, 15],
    (4, 2): [0, 0, 0, 0, 0, 1, 4, 16, 64, 3, 12, 48, 7, 28, 15],
    (1, 3): [0, 0, 0, 0, 0, 2, 2, 2, 2, 8, 8, 8, 26, 26, 80],
    (2, 3): [0, 0, 0, 0, 0, 2, 4, 8, 16, 8, 16, 32, 26, 52, 80],
    (3, 3): [0, 0, 0, 0, 0, 2, 6, 18, 54, 8, 24, 72, 26, 78, 80],
    (1, 4): [0, 0, 0, 0, 0, 3, 3, 3, 3, 15, 15, 15, 63, 63, 255],
    (2, 4): [0, 0, 0, 0, 0, 3, 6, 12, 24, 15, 30, 60, 63, 126, 255],
    (1, 5): [0, 0, 0, 0, 0, 4, 4, 4, 4, 24, 24, 24, 124, 124, 624],
}
# Trailing ten columns (c ... c4) of the step-2 rows.
STEP2_P7 = {
    (1, 3): [0, 0, 0, 0, 1, 1, 1, 6, 6, 25],
    (2, 3): [0, 0, 0, 0, 1, 2, 4, 6, 12, 25],
    (3, 3): [0, 0, 0, 0, 1, 3, 9, 6, 18, 25],
    (1, 4): [0, 0, 0, 0, 2, 2, 2, 14, 14, 70],
    (2, 4): [0, 0, 0, 0, 2, 4, 8, 14, 28, 70],
    (1, 5): [0, 0, 0, 0, 3, 3, 3, 24, 24, 141],
}
# Trailing six columns (c2 ... c4) of the step-3 rows.
STEP3_P7 = {
    (1, 4): [0, 0, 0, 1, 1, 10],
    (2, 4): [0, 0, 0, 1, 2, 10],
    (1, 5): [0, 0, 0, 2, 2, 22],
}
# Trailing three columns (c3, bc3, c4) of the step-4 row.
STEP4_P7 = {
    (1, 5): [0, 0, 1],
}


def _cols(p):
    """(lam, mu) of the interior block's columns b^lam c^mu."""
    return [(b - 1, c - 1) for b, c in elim.fourth_block_labels(p)]


def test_base_points_p3():
    # the rows are the base points (1, b, c), b + c <= p - 1
    assert sorted(elim.table2_labels(3)) == [(0, 0), (0, 1), (0, 2),
                                             (1, 0), (1, 1), (2, 0)]


def test_base_points_p7():
    rows = elim.table2_labels(7)
    assert sorted(rows) == [(b, c) for b in range(7) for c in range(7 - b)]
    interior = [(b, c) for (b, c) in rows if b >= 1 and c >= 1]
    assert len(interior) == 15


def test_fourth_block_shapes():
    assert len(elim.fourth_block(7)) == 15
    assert len(elim.fourth_block(7)[0]) == 15
    assert len(elim.fourth_block(5)) == 6
    assert len(elim.fourth_block(3)) == 1


def test_fourth_block_spot_entries():
    p = 7
    B = elim.fourth_block(p)
    rows = elim.fourth_block_labels(p)
    cols = _cols(p)
    assert B[rows.index((2, 2))][cols.index((1, 1))] == 4      # (1,2,2) at bc
    assert B[rows.index((1, 5))][cols.index((0, 4))] == 625    # (1,1,5) at c^4


def test_initial_block_matches_printed_example_p7():
    # first row of the p=7 interior block is all ones
    B = elim.fourth_block(7)
    assert B[0] == [1] * 15
    rows = elim.fourth_block_labels(7)
    assert B[rows.index((1, 2))] == [1, 1, 1, 1, 1, 2, 2, 2, 2, 4, 4, 4,
                                     8, 8, 16]


def _state_at(p, n):
    states = elim.run_elimination(p)
    return states[n]


def _row(state, b, c):
    return state.matrix[state.row_labels.index((b, c))]


@pytest.mark.parametrize("n,fixture,tail", [
    (1, STEP1_P7, 15), (2, STEP2_P7, 10), (3, STEP3_P7, 6), (4, STEP4_P7, 3)])
def test_example7_step_fixtures(n, fixture, tail):
    state = _state_at(7, n)
    for (b, c), expected in fixture.items():
        row = _row(state, b, c)
        assert row[-tail:] == expected, f"row (1,{b},{c}) at step {n}"


# The paper's examples are rows with b = 1, where b^lam = 1 and the entry
# is the closed-form factor itself.

def test_closed_form_examples():
    assert elim.closed_form_factor(1, 2, [(0, 4)]) == [15]
    # the column b^0 c^1 has an empty summation
    assert elim.closed_form_factor(2, 3, [(0, 3), (0, 1)]) == [6, 0]


def test_closed_form_step3_step4():
    assert elim.closed_form_factor(3, 4, [(0, 4)]) == [10]
    assert elim.closed_form_factor(3, 5, [(0, 4)]) == [22]
    assert elim.closed_form_factor(4, 5, [(0, 4), (0, 3)]) == [1, 0]


def _paper_nested_sum(n, c, mu):
    """The paper's closed form f(n, c, mu), summed literally level by level
    with no sharing: the oracle for closed_form_factor."""
    if n == 1:
        return c**mu - 1
    nprime, odd = divmod(n, 2)

    def level(k, prev):
        def f(i):
            return (2 * k)**(prev - 1 - i) - (2 * k - 1)**(prev - 1 - i)
        if k < nprime:
            return sum(f(i) * level(k + 1, i) for i in range(prev - 1))
        if odd:
            return sum(f(i) * (c**i - n**i) for i in range(1, prev - 1))
        return sum((c - n) * f(i) * c**i for i in range(prev - 1))
    return level(1, mu)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_closed_forms_match_the_paper_sums(p):
    cols = _cols(p)
    for n in range(1, p - 1):
        for c in range(n + 1, p - 1):
            assert elim.closed_form_factor(n, c, cols) == [
                _paper_nested_sum(n, c, mu) for _, mu in cols], (n, c)


def test_division_exactness_enforced():
    state = next(elim.elimination_states(7))
    bad = elim.StepState(7, 1, [[x + 1 for x in row] for row in state.matrix])
    with pytest.raises(elim.IntegrityError):
        elim.elimination_step(bad)


def test_column_scaling_values():
    p = 5
    scaling = elim.column_scaling(p)
    cols = elim.table2_labels(p)
    assert scaling[cols.index((0, 0))] == 1
    assert scaling[cols.index((1, 1))] == multinomial_int(4, 1, 1)  # 12


@pytest.mark.parametrize("p", [3, 5, 7, 11, 17, 19, 23])
def test_verify_procedure(p):
    report = elim.verify_procedure(p)
    assert report.ok, report.summary()
    assert report.steps_run == p - 2


def test_verify_procedure_holds_one_state():
    # Only the current state of the interior block is alive at a time; the
    # list of all p-1 states peaked at 1.48 MiB here, one state at 0.53.
    tracemalloc.start()
    try:
        assert elim.verify_procedure(13).ok
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_closed_forms_keep_no_memo():
    # The levels of the nested sums live only within one
    # closed_form_factor call; a process-wide cache held 13 MiB after p = 37.
    cols = _cols(29)
    elim.closed_form_factor(6, 14, cols)  # first-call allocations
    tracemalloc.start()
    try:
        factor = elim.closed_form_factor(6, 15, cols)
        with_result, _ = tracemalloc.get_traced_memory()
        del factor
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert with_result > 2048 > kept  # 12 KiB stayed with that cache


def _corrupt_step_2(monkeypatch, target, corrupt):
    """Make elimination_step hand back state 2 with row `target` changed."""
    step = elim.elimination_step

    def corrupted(state):
        new = step(state)
        if new.n == 2:
            new.matrix = [corrupt(row) if label == target else row
                          for label, row in zip(new.row_labels, new.matrix)]
        return new
    monkeypatch.setattr(elim, "elimination_step", corrupted)


def test_verify_reports_a_corrupted_cell(monkeypatch):
    # +2 in the last column of row (1,1,4) keeps step 3's division by 2
    # exact; the error flows into step 3 and, through the pivot (1,1,4),
    # into row (1,1,5) at step 4 and so into step 5's pivotal block
    _corrupt_step_2(monkeypatch, (1, 4), lambda row: row[:-1] + [row[-1] + 2])
    assert elim.verify_procedure(7).discrepancies == [
        "step 2 row (1,1,4) col b^0c^4: closed form 70 != eliminated 72",
        "step 3 row (1,1,4) col b^0c^4: closed form 10 != eliminated 11",
        "step 4 row (1,1,5) col b^0c^4: closed form 1 != eliminated 0",
        "step 5: pivotal block singular mod 7",
    ]


def test_verify_reports_a_corrupted_row_cell_by_cell(monkeypatch):
    # +1 on every cell of the pivot (1,2,3) of step 3: 15 mismatches at
    # step 2, 15 at step 3 in row (1,2,4), then both pivotal blocks it
    # reaches; each cell is worded in column order
    _corrupt_step_2(monkeypatch, (2, 3), lambda row: [x + 1 for x in row])
    disc = elim.verify_procedure(7).discrepancies
    assert len(disc) == 32
    assert disc[0] == ("step 2 row (1,2,3) col b^0c^0: closed form 0 != "
                       "eliminated 1")
    assert disc[29] == ("step 3 row (1,2,4) col b^0c^4: closed form 10 != "
                        "eliminated 9")
    assert disc[30:] == ["step 3: pivotal block is not Vandermonde",
                         "step 4: pivotal block is not Vandermonde"]
    assert hashlib.sha256("\n".join(disc).encode()).hexdigest() == (
        "59f8c264202bf94fbfa3ef05a55a89636294c93f2001afb6edeefcb7e7437d0e")


def test_verify_reports_each_failed_rank_check(monkeypatch):
    # every rank read as 0: each pivotal block, the outer blocks, and the
    # weighted and the stripped witness matrices
    from psghost import linalg
    monkeypatch.setattr(linalg, "rank", lambda M, p: 0)
    report = elim.verify_procedure(5)
    assert not report.ok
    assert report.discrepancies == [
        "step 1: pivotal block singular mod 5",
        "step 2: pivotal block singular mod 5",
        "step 3: pivotal block singular mod 5",
        "outer Vandermonde block singular mod p",
        "weighted image matrix rank 0 != 15 mod 5",
        "stripped matrix singular mod p",
    ]


def test_verify_reports_a_vanishing_column_factor(monkeypatch):
    # a multiple of p as the first column's multinomial also costs the
    # weighted matrix one rank
    scaling = elim.column_scaling
    monkeypatch.setattr(elim, "column_scaling",
                        lambda p: [3 * p] + scaling(p)[1:])
    report = elim.verify_procedure(5)
    assert not report.ok
    assert report.discrepancies == [
        "weighted image matrix rank 14 != 15 mod 5",
        "a stripped multinomial column factor vanishes mod p",
    ]


def test_closed_forms_start_at_step_1():
    with pytest.raises(ValueError, match="steps n >= 1"):
        elim.closed_form_factor(0, 2, [(0, 1)])


def test_verify_rejects_bad_p():
    with pytest.raises(ValueError):
        elim.verify_procedure(4)
    with pytest.raises(ValueError):
        elim.verify_procedure(2)


def test_trace_csv_has_labels():
    csv = next(elim.elimination_states(5)).to_csv()
    assert csv.splitlines()[0].startswith("row,b^0c^0")
    assert "(1;1;1)^(0)" in csv
