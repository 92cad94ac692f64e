import hashlib
import io
import json
import random
import sys
import time
import tracemalloc

import numpy as np
import pytest

from psghost import elim, plane, poly
from psghost.cli import main
from psghost.field import FieldSpec
from psghost.ghost import ghost_report
from psghost.msets import PointMultiset, mset_to_text, phi
from psghost.poly import poly_to_text

S1_FILE = "# mset q=2\n0 0 1\n"
FIVE_POINT_FILE = "# mset q=2\n0 1 0\n0 0 1\n0 1 1\n1 0 0\n1 1 0\n"
Z_POLY_FILE = "# psp q=2\n1 0 1\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_psp_s1(tmp_path, capsys):
    f = tmp_path / "s1.mset"
    f.write_text(S1_FILE)
    code, out, _ = run(capsys, "psp", "--field", "2", "--in", str(f))
    assert code == 0
    body = [l for l in out.splitlines() if not l.startswith("#")]
    assert body == ["1 0 1"]  # the polynomial Z


def test_psp_empty_multiset(tmp_path, capsys):
    f = tmp_path / "empty.mset"
    f.write_text("# mset q=2\n")
    code, out, _ = run(capsys, "psp", "--field", "2", "--in", str(f))
    assert code == 0
    assert [l for l in out.splitlines() if not l.startswith("#")] == []


@pytest.mark.parametrize("comment,code", [("caf\u00e9".encode(), 0),
                                          (b"caf\xe9", 3)],
                         ids=["utf-8", "latin-1"])
def test_stdin_reads_its_bytes_as_a_file_does(tmp_path, monkeypatch, capsys,
                                              comment, code):
    # stdin used to decode with surrogateescape, so a byte that is not
    # UTF-8 passed through "--in -" but was refused through "--in FILE"
    data = b"# psp q=3\n# " + comment + b"\n0 1 2\n"
    f = tmp_path / "z.psp"
    f.write_bytes(data)
    from_file = run(capsys, "eval", "--field", "3", "--in", str(f))
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
        io.BytesIO(data), encoding="utf-8", errors="surrogateescape"))
    assert run(capsys, "eval", "--field", "3", "--in", "-") == from_file
    assert from_file[0] == code
    if code:
        assert from_file[2].startswith(
            "error: 'utf-8' codec can't decode byte 0xe9 in position 15")


def test_psp_five_point_union(tmp_path, capsys):
    f = tmp_path / "u.mset"
    f.write_text(FIVE_POINT_FILE)
    code, out, _ = run(capsys, "psp", "--field", "2", "--in", str(f))
    assert code == 0
    body = [l for l in out.splitlines() if not l.startswith("#")]
    assert body == ["0 1 1"]  # the polynomial Y


def test_psp_malformed_input(tmp_path, capsys):
    f = tmp_path / "bad.mset"
    f.write_text("0 0\n")
    code, _, err = run(capsys, "psp", "--field", "2", "--in", str(f))
    assert code == 3
    assert "line 1" in err


def test_ghost_report_field2(capsys):
    code, out, _ = run(capsys, "ghost-report", "--field", "2",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 3 and data["exponent"] == 4


def test_ghost_report_field7(capsys):
    code, out, _ = run(capsys, "ghost-report", "--field", "7",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 28 and data["exponent"] == 29


def test_ghost_report_field32(capsys):
    code, out, _ = run(capsys, "ghost-report", "--field", "2^5",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 243 == 3**5  # C(3,2)^5
    assert data["exponent"] == 814
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "31eba6cbcb35d16f86e1f905ce454d43e9b34e3cbeef8601cfdc32ead7ab6a67")


@pytest.mark.parametrize("field", ["7^2", "2^6"])
def test_largest_extension_fields_have_a_modulus(tmp_path, capsys, field):
    # both are within field.MAX_Q; they used to exit 3 asking for a modulus
    f = tmp_path / "x.psp"
    f.write_text(f"# psp q={field}\n0 0 1\n")  # X^(q-1)
    assert run(capsys, "eval", "--field", field, "--in", str(f),
               "--line", "1 0 0") == (0, "1\n", "")


def test_ghost_report_h2_flagged(capsys):
    code, out, _ = run(capsys, "ghost-report", "--field", "3^2",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["note"] == "computed, no literature value"
    assert 0 < data["rank"] <= 91


def test_solve_sets_q2(tmp_path, capsys):
    f = tmp_path / "z.psp"
    f.write_text(Z_POLY_FILE)
    code, out, _ = run(capsys, "solve", "--field", "2", "--in", str(f),
                       "--sets", "--limit", "100")
    assert code == 0
    blocks = [b for b in out.split("\n\n") if b.strip()]
    assert len(blocks) == 16
    assert "0 0 1" in out


def _solve_sets_json(tmp_path, capsys, field, S, limit):
    f = tmp_path / "s.psp"
    f.write_text(poly_to_text(phi(S)))
    code, out, _ = run(capsys, "solve", "--field", field, "--in", str(f),
                       "--sets", "--limit", str(limit), "--format", "json")
    assert code == 0
    return json.loads(out)


def _random_plain_set(spec, seed):
    rng = random.Random(seed)
    n = spec.q**2 + spec.q + 1
    return PointMultiset.from_vector(spec, [rng.randrange(2) for _ in range(n)])


def test_solve_sets_complete_when_exhaustive(tmp_path, capsys):
    spec = FieldSpec(2)
    data = _solve_sets_json(tmp_path, capsys, "2", _random_plain_set(spec, 3),
                            100)
    assert data["complete"] is True and len(data["solutions"]) == 16


def test_solve_sets_complete_when_count_equals_limit(tmp_path, capsys):
    # the 16-element coset at q = 2 is walked whole: a limit of exactly 16
    # prints every set, so the search is complete; 15 leaves one out
    spec = FieldSpec(2)
    S = _random_plain_set(spec, 3)
    for limit, complete in [(16, True), (15, False)]:
        data = _solve_sets_json(tmp_path, capsys, "2", S, limit)
        assert data["complete"] is complete
        assert len(data["solutions"]) == limit
        code, out, _ = run(capsys, "solve", "--field", "2", "--in",
                           str(tmp_path / "s.psp"), "--sets", "--limit",
                           str(limit))
        assert code == 0 and out.count("# mset") == limit
        assert out.startswith(f"# {limit} plain-set solutions, complete: "
                              f"{str(complete).lower()}\n")


def test_solve_sets_complete_when_coset_within_budget(tmp_path, capsys):
    # p = 2: every element of the 2^12-element coset is a plain set
    spec = FieldSpec.parse("2^2")
    S = _random_plain_set(spec, 4)
    data = _solve_sets_json(tmp_path, capsys, "2^2", S, 5000)
    assert data["complete"] is True and len(data["solutions"]) == 4096
    assert mset_to_text(S) in data["solutions"]
    data = _solve_sets_json(tmp_path, capsys, "2^2", S, 1000)
    assert data["complete"] is False and len(data["solutions"]) == 1000


def test_solve_sets_incomplete_when_walk_is_cut_off(tmp_path, capsys,
                                                    monkeypatch):
    # 5^16 coset elements exceed any budget; a small one keeps the test fast
    import psghost.tomo as tomo
    monkeypatch.setattr(tomo, "WALK_BUDGET", 2000)
    spec = FieldSpec(5)
    data = _solve_sets_json(tmp_path, capsys, "5", _random_plain_set(spec, 5),
                            1000)
    assert data["complete"] is False


def test_solve_sets_text_says_whether_complete(tmp_path, capsys,
                                               monkeypatch):
    import psghost.tomo as tomo
    monkeypatch.setattr(tomo, "WALK_BUDGET", 2000)
    for field, seed, complete in [("2", 3, "true"), ("5", 5, "false")]:
        f = tmp_path / "s.psp"
        f.write_text(poly_to_text(phi(
            _random_plain_set(FieldSpec.parse(field), seed))))
        code, out, _ = run(capsys, "solve", "--field", field, "--in", str(f),
                           "--sets")
        assert code == 0
        header, _, rest = out.partition("\n")
        n = out.count("# mset")
        assert header == f"# {n} plain-set solutions, complete: {complete}"
        assert n == 0 or rest.startswith(f"# mset q={field}\n")


def test_solve_zero_polynomial_kernel_listing(tmp_path, capsys):
    f = tmp_path / "zero.psp"
    f.write_text("# psp q=2\n")
    code, out, _ = run(capsys, "solve", "--field", "2", "--in", str(f))
    assert code == 0
    assert "kernel" in out


def test_solve_inconsistent_exit_code(tmp_path, capsys, monkeypatch):
    # force inconsistency through a truncated system is not reachable for
    # q = p, so patch the solver to return no particular solution
    import psghost.tomo as tomo

    def fake_solve(G):
        return tomo.SolutionCoset(G.spec, None, (), 0)

    monkeypatch.setattr(tomo, "solve", fake_solve)
    f = tmp_path / "z.psp"
    f.write_text(Z_POLY_FILE)
    code, out, _ = run(capsys, "solve", "--field", "2", "--in", str(f))
    assert code == 2
    assert "inconsistent" in out


def test_eval_at_line(tmp_path, capsys):
    f = tmp_path / "z.psp"
    f.write_text(Z_POLY_FILE)
    code, out, _ = run(capsys, "eval", "--field", "2", "--in", str(f),
                       "--line", "0 0 1")
    assert code == 0
    assert out.strip() == "1"


def test_eval_at_line_json(tmp_path, capsys):
    # the all-lines JSON shape with one entry, keyed by the normalized
    # line; --line used to print a bare value whatever --format said
    f = tmp_path / "g.psp"
    f.write_text("# psp q=7\n0 0 1\n2 3 4\n1 1 5\n")
    code, out, _ = run(capsys, "eval", "--field", "7", "--in", str(f),
                       "--format", "json")
    assert code == 0
    value = json.loads(out)["values"]["1 2 3"]
    code, out, _ = run(capsys, "eval", "--field", "7", "--in", str(f),
                       "--line", "2 4 6", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"q": "7", "values": {"1 2 3": value}}
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_verify_all_field2(capsys):
    code, out, _ = run(capsys, "verify", "--field", "2", "--suite", "all")
    assert code == 0
    assert "union_counterexample: pass" in out


def test_verify_elim_field7(capsys):
    code, out, _ = run(capsys, "verify", "--field", "7", "--suite", "elim")
    assert code == 0
    assert "elim: pass" in out


def test_verify_pencils_field9(capsys):
    code, out, _ = run(capsys, "verify", "--field", "3^2",
                       "--suite", "pencils")
    assert code == 0


def test_verify_deterministic_output(capsys):
    code1, out1, _ = run(capsys, "verify", "--field", "3",
                         "--suite", "vandermonde", "--seed", "42")
    code2, out2, _ = run(capsys, "verify", "--field", "3",
                         "--suite", "vandermonde", "--seed", "42")
    assert (code1, out1) == (code2, out2)


VERIFY_SUITES = ["pencils", "complements", "vandermonde",
                 "union_counterexample", "elim"]


def _verify_json(capsys, field, *extra):
    code, out, _ = run(capsys, "verify", "--field", field, "--format", "json",
                       *extra)
    return code, json.loads(out)


@pytest.mark.parametrize("field", ["2", "3", "2^2", "7", "3^2"])
def test_verify_json_says_what_each_suite_checked(capsys, field):
    spec = FieldSpec.parse(field)
    code, data = _verify_json(capsys, field, "--seed", "5")
    assert code == 0
    assert data["q"] == field and data["seed"] == 5
    assert [s["name"] for s in data["suites"]] == VERIFY_SUITES
    for s in data["suites"]:
        assert set(s) == {"name", "status", "checked", "seconds", "failures"}
        assert s["status"] == "pass" and s["failures"] == []
        assert isinstance(s["seconds"], float) and s["seconds"] >= 0
    checked = {s["name"]: s["checked"] for s in data["suites"]}
    # 3 vertices, p^(h-1)+1 partial and q/p punctured pencils each, 5 lines
    assert checked["pencils"] == 3 * (2 * spec.q // spec.p + 1) + 5
    assert checked["complements"] == ghost_report(spec).ghost_exponent
    assert checked["vandermonde"] == 200
    # the counterexample lives at q = 2; the elimination proof at odd primes
    assert checked["union_counterexample"] == (1 if spec.q == 2 else 0)
    # closed-form cells at odd primes; p = 3 has one step and no
    # non-pivotal rows
    assert checked["elim"] == {"3": 0, "7": 300}.get(field, 0)


def test_verify_json_single_suite(capsys):
    code, data = _verify_json(capsys, "5", "--suite", "vandermonde")
    assert code == 0
    assert [(s["name"], s["checked"]) for s in data["suites"]] == [
        ("vandermonde", 200)]


def test_verify_union_counterexample_alone(capsys):
    code, data = _verify_json(capsys, "2", "--suite", "union_counterexample")
    assert code == 0
    assert [(s["name"], s["status"], s["checked"]) for s in data["suites"]] == [
        ("union_counterexample", "pass", 1)]


def test_verify_json_lists_failures_per_suite(monkeypatch, capsys):
    from psghost import ghost
    monkeypatch.setattr(ghost, "is_ghost_stack",
                        lambda spec, V: np.zeros(len(V), dtype=bool))
    code, data = _verify_json(capsys, "3")
    assert code == 1
    by_name = {s["name"]: s for s in data["suites"]}
    assert by_name["pencils"]["status"] == "FAIL"
    assert len(by_name["pencils"]["failures"]) == by_name["pencils"]["checked"]
    assert by_name["complements"]["failures"] == (
        ["complement of a kernel basis element"]
        * by_name["complements"]["checked"])
    assert by_name["elim"] == {**by_name["elim"], "status": "pass",
                               "failures": []}


@pytest.mark.parametrize("field", ["2", "5", "2^2", "3^2"])
def test_verify_complements_checks_the_full_plane_once(monkeypatch, capsys,
                                                       field):
    # ghost_report has checked that each basis element B is a ghost, so the
    # plane minus B is a ghost iff the plane is; the suite used to check
    # every complement again
    from psghost import ghost
    stacks, check = [], ghost.is_ghost_stack
    monkeypatch.setattr(ghost, "is_ghost_stack",
                        lambda spec, V: stacks.append(np.array(V))
                        or check(spec, V))
    code, data = _verify_json(capsys, field, "--suite", "complements")
    spec = FieldSpec.parse(field)
    assert code == 0 and data["suites"][0]["status"] == "pass"
    assert data["suites"][0]["checked"] == ghost_report(spec).ghost_exponent
    assert [V.tolist() for V in stacks] == [[[1] * (spec.q**2 + spec.q + 1)]]


@pytest.mark.parametrize("field", ["3", "2^2", "11"])
def test_verify_pencils_checks_each_ghost_both_ways(monkeypatch, capsys,
                                                    field):
    # the pencil ghosts used to be checked by is_ghost_stack alone, and no
    # suite saw the constant-intersection test accept a ghost
    from psghost import ghost
    monkeypatch.setattr(ghost, "vandermonde_check_stack",
                        lambda spec, V: np.zeros(len(V), dtype=bool))
    code, out, err = run(capsys, "verify", "--field", field, "--suite",
                         "pencils")
    assert code == 1 and err == ""
    assert out.splitlines()[0] == "pencils: FAIL"
    code, data = _verify_json(capsys, field, "--suite", "pencils")
    suite = data["suites"][0]
    assert code == 1 and suite["status"] == "FAIL"
    assert len(suite["failures"]) == suite["checked"]


def test_verify_elim_failed_divisibility_is_fail(monkeypatch, capsys):
    # +1 on the first interior entry at p = 7 breaks step 2's division by
    # 2; verify used to report it as an internal error, exit 4
    block = elim.fourth_block

    def corrupted(p):
        M = block(p)
        M[0][0] += 1
        return M
    monkeypatch.setattr(elim, "fourth_block", corrupted)
    code, out, err = run(capsys, "verify", "--field", "7", "--suite", "elim")
    assert code == 1 and err == ""
    assert out.splitlines()[0] == "elim: FAIL"
    assert ("  step 2: entry -1 of row (1,1,3) not divisible by 2"
            in out.splitlines())


def test_elim_trace(capsys):
    code, out, _ = run(capsys, "elim-trace", "--field", "5")
    assert code == 0
    assert "# step 0" in out and "# step 3" in out


def test_elim_trace_beyond_bound_is_input_error(monkeypatch, capsys):
    # the trace at p = 41 would print 347 MiB from a 1.5 GB process; the
    # bound refuses it before any elimination runs
    monkeypatch.setattr(elim, "elimination_step", _refuse)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "elim-trace", "--field", "41")
    assert time.perf_counter() - t0 < 1.0
    assert code == 3
    assert out == "" and err.startswith("error:") and "37" in err
    assert len(err.splitlines()) == 1


def test_elim_trace_json_is_input_error(monkeypatch, capsys):
    # elim-trace writes CSV only; --format json used to print CSV, exit 0
    monkeypatch.setattr(elim, "elimination_step", _refuse)
    code, out, err = run(capsys, "elim-trace", "--field", "5",
                         "--format", "json")
    assert code == 3
    assert out == "" and err.startswith("error:") and "json" in err
    assert len(err.splitlines()) == 1


def test_elim_trace_holds_one_state(tmp_path):
    # Each state is written as it is made; keeping all 12 states and
    # joining their CSV peaked at 1.22 MiB here, one state at 0.45.
    tracemalloc.start()
    try:
        assert main(["elim-trace", "--field", "13",
                     "--out", str(tmp_path / "trace.csv")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.8 * 2**20


@pytest.mark.parametrize("suite,field", [("elim", "3^2"), ("elim", "2"),
                                         ("union_counterexample", "3")])
def test_verify_suite_off_its_field_is_input_error(monkeypatch, capsys,
                                                   suite, field):
    # asked for by name, a suite with nothing to check there must not pass
    monkeypatch.setattr(elim, "verify_procedure", _refuse)
    code, out, err = run(capsys, "verify", "--field", field, "--suite", suite)
    assert code == 3
    assert out == "" and err.startswith("error:") and suite in err
    assert len(err.splitlines()) == 1


def test_bad_field_is_input_error(capsys):
    code, _, err = run(capsys, "ghost-report", "--field", "6")
    assert code == 3
    assert "error" in err


def _refuse(*args):
    raise RuntimeError("guard bypassed")


@pytest.mark.parametrize("command", ["ghost-report", "verify"])
@pytest.mark.parametrize("field", ["1000003", "67"])
def test_field_beyond_desk_scale_is_input_error(monkeypatch, capsys, command,
                                                field):
    # Without the guard these would build the point-image rows (about 5e11
    # monomial pairs at q = 1000003) or enumerate the plane; fail fast instead.
    # the commands look the plane enumerations up in `plane` when they run
    monkeypatch.setattr(poly, "point_image_rows", _refuse)
    monkeypatch.setattr(elim, "verify_procedure", _refuse)
    monkeypatch.setattr(plane, "enumerate_points", _refuse)
    monkeypatch.setattr(plane, "enumerate_lines", _refuse)
    code, out, err = run(capsys, command, "--field", field)
    assert code == 3
    assert out == "" and err.startswith("error:") and "64" in err


def test_object_paths_enumerate_no_plane(monkeypatch, capsys, tmp_path):
    # Rows of points are read from their encodings, and points, lines,
    # values and coefficients are ints: no object path enumerates the
    # plane or builds a FieldElement.  Every cache starts cold, so each
    # builder the object paths reach runs under the refusals.
    from psghost import field, ghost, msets
    from psghost.field import FieldElement
    spec = FieldSpec.parse("3^2")
    q = spec.q
    f = tmp_path / "g.psp"
    f.write_text("# psp q=3^2\n1 0 1\n0 2 5\n")
    G9 = poly.poly_from_text(f.read_text(), spec)
    want = poly.line_values(G9, [[2, 4, 6]]).tolist()
    scaled = field.mul(spec, [1, 5, 7], 4).tolist()
    for module in (field, plane, poly, msets, ghost):
        for obj in vars(module).values():
            getattr(obj, "cache_clear", lambda: None)()
    monkeypatch.setattr(plane, "enumerate_points", _refuse)
    monkeypatch.setattr(plane, "enumerate_lines", _refuse)
    monkeypatch.setattr(FieldElement, "__init__", _refuse)
    P = plane.ProjPoint.from_encodings(spec, 1, 5, 7)
    assert plane.ProjPoint.from_encodings(spec, *scaled) == P
    assert P.encodings() == (1, 5, 7) and str(P) == "1 5 7"
    assert plane.point_row(spec, P) == 1 + q + 5 * q + 7
    S = PointMultiset.from_points(spec, [P, P])
    assert S.mult[P.row] == 2 and S.mult.sum() == 2
    assert ghost.line_ghost(P, spec).mult.sum() == q + 1
    assert ghost.partial_pencil_ghost(P, 0, spec).mult.sum() == q + 1
    assert ghost.punctured_pencil_ghost(P, 0, spec).mult.sum() == q * q
    G = poly.HomPoly.from_terms(spec, {(1, 0): 1, (0, 2): 5})
    assert poly.nonzero_terms(G) == [(0, 2, 5), (1, 0, 1)]
    assert poly.evaluate(G, P) == poly.line_values(G, [[1, 5, 7]])[0]
    assert run(capsys, "eval", "--field", "3^2", "--in", str(f),
               "--line", "2 4 6") == (0, f"{want[0]}\n", "")
    code, out, _ = run(capsys, "verify", "--field", "13", "--suite", "pencils")
    assert code == 0 and "pencils: pass" in out


@pytest.mark.parametrize("field,reason", [
    ("11^2", "exceeds 64"),
    ("2^7", "exceeds 64"),
    ("67", "q = 67 exceeds 64"),
    ("2^0", "extension degree must be >= 1"),
    ("2^-1", "extension degree must be >= 1"),
    ("1^5", "p = 1 is not prime"),
    ("6", "p = 6 is not prime"),
    ("4", "4 is 2^2; write 2^2"),
    ("64", "64 is 2^6; write 2^6"),
    ("1_3", "p or p^h in the digits 0-9"),
    ("+7", "p or p^h in the digits 0-9"),
    ("7^ 2", "p or p^h in the digits 0-9"),
    ("\u0663", "p or p^h in the digits 0-9"),
    ("3^^2", "p or p^h in the digits 0-9"),
    ("", "p or p^h in the digits 0-9"),
])
def test_field_error_names_the_reason(capsys, field, reason):
    # these used to report a missing built-in modulus, which the CLI has no
    # way to pass; a prime power written as an integer (4, 64) read "p = 64
    # is not prime", although 2^6 is a supported field.  int() read 1_3 as
    # 13, +7 as 7, "7^ 2" as 49 and the Arabic-Indic digit three as 3.
    # 67 was named "q = 67^1", with an exponent it was not written with.
    code, out, err = run(capsys, "ghost-report", "--field", field)
    assert code == 3 and out == ""
    assert reason in err and "modulus" not in err


def test_verify_elim_field17_big_integers(capsys):
    # the weighted image matrix at p = 17 holds integers beyond int64
    code, out, _ = run(capsys, "verify", "--field", "17", "--suite", "elim")
    assert code == 0
    assert "elim: pass" in out


def test_csv_format_is_input_error(capsys):
    code, _, err = run(capsys, "ghost-report", "--field", "2",
                       "--format", "csv")
    assert code == 3
    assert "--format" in err


def test_unknown_suite_is_input_error(capsys):
    code, _, err = run(capsys, "verify", "--field", "2", "--suite", "bogus")
    assert code == 3
    assert "--suite" in err


def test_missing_field_is_input_error(capsys):
    code, _, err = run(capsys, "ghost-report")
    assert code == 3
    assert "--field" in err


def test_mset_header_other_field_is_input_error(tmp_path, capsys):
    f = tmp_path / "s.mset"
    f.write_text("# mset q=3\n0 0 1\n")
    code, out, err = run(capsys, "psp", "--field", "2", "--in", str(f))
    assert code == 3
    assert out == "" and "q=3" in err


def test_psp_header_other_field_is_input_error(tmp_path, capsys):
    f = tmp_path / "z.psp"
    f.write_text("# psp q=3^2\n1 0 1\n")
    code, out, err = run(capsys, "solve", "--field", "3", "--in", str(f))
    assert code == 3
    assert out == "" and "q=3^2" in err


@pytest.mark.parametrize("command,text,found,expected", [
    ("solve", "# mset q=7\n1 2 3\n", "mset", "psp"),
    ("eval", "# mset q=7\n1 2 3\n", "mset", "psp"),
    ("psp", "# psp q=7\n0 0 1\n", "psp", "mset"),
], ids=["solve", "eval", "psp"])
def test_file_of_the_other_kind_is_input_error(tmp_path, capsys, command,
                                               text, found, expected):
    # the body would parse: "1 2 3" as a monomial, "0 0 1" as a point
    f = tmp_path / "in.txt"
    f.write_text(text)
    code, out, err = run(capsys, command, "--field", "7", "--in", str(f))
    assert code == 3
    assert out == "" and err == (f"error: line 1: header says # {found}, "
                                 f"but a # {expected} file is expected\n")


@pytest.mark.parametrize("command,code", [
    ("psp", 3), ("eval", 3), ("ghost-report", 3), ("solve", 3),
    ("elim-trace", 3), ("verify", 0)])
def test_seed_only_on_verify(tmp_path, capsys, command, code):
    # only verify draws random numbers
    f = tmp_path / "in.txt"
    f.write_text("")
    infile = ["--in", str(f)] if command in ("psp", "eval", "solve") else []
    got, _, err = run(capsys, command, "--field", "7", *infile,
                      "--seed", "1")
    assert got == code
    assert ("unrecognized arguments: --seed 1" in err) == (code == 3)


@pytest.mark.parametrize("command", ["solve", "eval"])
def test_repeated_monomial_is_input_error(tmp_path, capsys, command):
    f = tmp_path / "z.psp"
    f.write_text("# psp q=3\n0 0 1\n0 0 2\n")
    code, out, err = run(capsys, command, "--field", "3", "--in", str(f))
    assert code == 3
    assert out == "" and err == "error: line 3: monomial 0 0 repeated\n"


def test_solve_sets_nonpositive_limit_is_input_error(tmp_path, capsys):
    f = tmp_path / "z.psp"
    f.write_text(Z_POLY_FILE)
    code, out, err = run(capsys, "solve", "--field", "2", "--in", str(f),
                         "--sets", "--limit", "0")
    assert code == 3
    assert out == "" and err.startswith("error:") and "--limit" in err


def test_limit_without_sets_is_input_error(tmp_path, capsys):
    # only the set search reads --limit
    f = tmp_path / "z.psp"
    f.write_text(Z_POLY_FILE)
    code, out, err = run(capsys, "solve", "--field", "2", "--in", str(f),
                         "--limit", "5")
    assert code == 3
    assert out == "" and err.startswith("error:") and "--sets" in err
    assert err.count("\n") == 1


def test_sets_without_limit_uses_1000(tmp_path, capsys, monkeypatch):
    import psghost.tomo as tomo
    limits = []
    search = tomo.enumerate_set_solutions

    def spy(G, limit):
        limits.append(limit)
        return search(G, limit)

    monkeypatch.setattr(tomo, "enumerate_set_solutions", spy)
    f = tmp_path / "z.psp"
    f.write_text(Z_POLY_FILE)
    code, _, _ = run(capsys, "solve", "--field", "2", "--in", str(f), "--sets")
    # 1000 sets to print, and one more to tell a whole walk from a cut one
    assert code == 0 and limits == [1000 + 1]


def test_unwritable_out_is_input_error(tmp_path, capsys):
    code, out, err = run(capsys, "ghost-report", "--field", "2",
                         "--out", str(tmp_path / "missing" / "x.json"))
    assert code == 3
    assert out == "" and err.startswith("error:")
    assert "Traceback" not in err


def test_unexpected_exception_exits_internal(capsys, monkeypatch):
    import psghost.ghost as ghost

    def broken(spec):
        raise RuntimeError("boom")

    monkeypatch.setattr(ghost, "ghost_report", broken)
    code, out, err = run(capsys, "ghost-report", "--field", "2")
    assert code == 4
    assert out == "" and err == "error: internal: RuntimeError: boom\n"


BIG = 10**30  # beyond int64
SPELL = ("integers are written in the digits 0-9, each with an optional "
         "leading '-'")


@pytest.mark.parametrize("command,text,message", [
    # two faulty lines of different kinds: the first one is named
    ("psp", "0 0 1\n0 0 0\n0 0\n",
     "line 2: projective coordinates cannot be all zero"),
    ("psp", "0 0 1\n0 0\n0 0 0\n",
     "line 2: expected 'a b c [: m]', got '0 0'"),
    ("solve", "0 0 1\n0 0 2\n0 9 1\n", "line 2: monomial 0 0 repeated"),
    ("eval", "0 0 1\n0 9 1\n0 0 2\n",
     "line 2: monomial exponents (0, 9) out of range"),
    # values beyond int64 are out of range, not an internal error
    ("psp", f"0 0 1\n{BIG} 1 1\n", f"line 2: encoding {BIG} out of range "
                                   "for GF(7)"),
    ("psp", f"0 0 1 : {BIG}\n0 {2**64} 1\n",
     f"line 2: encoding {2**64} out of range for GF(7)"),
    ("solve", f"{BIG} 0 1\n", f"line 1: monomial exponents ({BIG}, 0) out "
                              "of range"),
    ("eval", f"0 0 {-BIG}\n", f"line 1: encoding {-BIG} out of range for "
                              "GF(7)"),
    # int() reads these; a data line takes ASCII digits and "-" only
    ("solve", "0 0 1\n1_0 0 1\n", f"line 2: {SPELL}"),
    ("eval", "+2 0 \u0663\n", f"line 1: {SPELL}"),
    ("psp", "0 0 1 : +2\n", f"line 1: {SPELL}"),
    # each used to be read as a comment: eval printed GF(7) values of a
    # file that says GF(5), and exited 0
    ("eval", "# psp q= 5\n0 1 3\n",
     "line 1: malformed header '# psp q= 5', expected '# psp q=<p^h>'"),
    ("solve", "# PSP q=5\n0 1 3\n",
     "line 1: malformed header '# PSP q=5', expected '# psp q=<p^h>'"),
    ("psp", "# mset q = 5\n0 0 1\n", "line 1: malformed header "
                                      "'# mset q = 5', expected "
                                      "'# mset q=<p^h>'"),
    # a well-formed header of another field names its line too
    ("eval", "0 1 3\n# psp q=5\n",
     "line 2: header says q=5, but the field is GF(7)"),
])
def test_reader_errors_name_the_first_bad_line(tmp_path, capsys, command,
                                               text, message):
    f = tmp_path / "in.txt"
    f.write_text(text)
    code, out, err = run(capsys, command, "--field", "7", "--in", str(f))
    assert code == 3
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("line", ["1 2 \u0663", "1 2 +3", "1_0 2 3"])
def test_eval_line_takes_ascii_digits_only(tmp_path, capsys, line):
    # each used to exit 0, int() reading it as "1 2 3" or "10 2 3"
    f = tmp_path / "g.psp"
    f.write_text("# psp q=13\n0 0 1\n")
    code, out, err = run(capsys, "eval", "--field", "13", "--in", str(f),
                         "--line", line)
    assert code == 3
    assert out == "" and err == f"error: bad line {line!r}: {SPELL}\n"


@pytest.mark.parametrize("line", ["", "  ", "1 2", "1 2 3 4"])
def test_eval_line_takes_three_integers(tmp_path, capsys, line):
    # "" used to print every line's value and exit 0; the others exited 3
    # with Python's unpacking text
    f = tmp_path / "g.psp"
    f.write_text("# psp q=3\n0 0 1\n")
    code, out, err = run(capsys, "eval", "--field", "3", "--in", str(f),
                         "--line", line)
    assert code == 3
    assert out == "" and err == (f"error: bad line {line!r}: expected "
                                 f"'u v w', got {line!r}\n")


def test_psp_multiplicity_beyond_int64_is_reduced(tmp_path, capsys):
    # 10**30 = 1 (mod 3): the file holds the point (0, 0, 1) once
    big, one = tmp_path / "big.mset", tmp_path / "one.mset"
    big.write_text(f"# mset q=3\n0 0 2 : {BIG}\n")
    one.write_text("# mset q=3\n0 0 1\n")
    want = run(capsys, "psp", "--field", "3", "--in", str(one))
    assert want[0] == 0
    assert run(capsys, "psp", "--field", "3", "--in", str(big)) == want
