"""The process entry point: `python -m psghost.cli` and the installed script."""

import ast
import gc
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import psghost
from psghost import cli
from test_golden import ELIM_TRACE_SHA256

SRC = Path(psghost.__file__).resolve().parent.parent
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _process(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "psghost.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)


def test_process_output_equals_in_process(capsys):
    argv = ["ghost-report", "--field", "3", "--format", "json"]
    proc = _process(*argv)
    assert cli.main(argv) == 0
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == capsys.readouterr().out


@pytest.mark.parametrize("argv,code", [
    (["ghost-report", "--field", "6"], 3),
    (["verify", "--field", "2", "--suite", "bogus"], 3),
    (["--help"], 0),
])
def test_process_exit_codes(argv, code):
    proc = _process(*argv)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr


# Runs `cli.main` on the command line after its first argument, then
# writes the exit code and which of the comma-separated modules in that
# first argument were loaded.
_IMPORT_PROBE = """import sys
from psghost import cli
try:
    code = cli.main(sys.argv[2:])
except SystemExit as e:
    code = e.code
loaded = [m for m in sys.argv[1].split(",") if m in sys.modules]
sys.stderr.write(f"{code} {loaded}\\n")
"""


@pytest.mark.parametrize("argv,absent", [
    (["elim-trace", "--field", "13"], ["numpy"]),
    (["--help"], ["numpy"]),
    (["ghost-report", "--field", "5"], ["psghost.tomo", "psghost.elim"]),
    (["verify", "--field", "5"], ["psghost.tomo", "json"]),
], ids=["elim-trace", "help", "ghost-report", "verify"])
def test_cold_command_imports_only_what_it_runs(argv, absent):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, ",".join(absent), *argv],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr.splitlines()[-1] == "0 []"


def test_public_names():
    # a new public name is a deliberate change to this list
    assert sorted(psghost.__all__) == [
        "FieldElement", "FieldSpec", "GhostReport", "HomPoly",
        "PointMultiset", "ProjLine", "ProjPoint", "SolutionCoset",
        "add_poly", "complement", "enumerate_lines", "enumerate_points",
        "enumerate_set_solutions", "evaluate", "ghost_report", "is_ghost",
        "line_ghost", "line_points", "minverse", "msum",
        "partial_pencil_ghost", "pencil_lines", "phi", "power_sum",
        "punctured_pencil_ghost", "solve", "vandermonde_check"]


def test_no_assert_statements_in_the_package():
    # invariants are explicit checks: `python -O` strips assert statements
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(psghost.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


# Definitions that nothing in src/ or perfbench/ names, and why they stay.
UNNAMED_BY_DESIGN = {
    "ElimReport.summary": "the pinned text of the elimination proof, for "
                          "library callers",
    "_ArgumentParser.error": "argparse calls it on a usage error",
}


def _defs(tree, prefix="", in_class=False):
    """(qualified name, node, whether a method) of each def under tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.FunctionDef):
            yield prefix + node.name, node, in_class
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield from _defs(node, f"{prefix}{node.name}.",
                             isinstance(node, ast.ClassDef))
        else:
            yield from _defs(node, prefix, in_class)


def test_every_function_is_run_by_the_package_or_the_benchmark():
    """Each function and method of psghost is named outside its own def
    somewhere in src/ or perfbench/, or is in psghost.__all__.  A method is
    named by an attribute (`x.name`) or an identifier string, as perfbench
    wraps methods by name; a function may also be named bare.  Dunders
    are called by Python.

    Names are matched, not resolved: a method that shares its name with
    an attribute used elsewhere passes unseen.  A multiset `size` or
    `empty` would pass through numpy's `.size` and `np.empty`.
    """
    root = PYPROJECT.parent
    trees = {path: ast.parse(path.read_text())
             for folder in ("src", "perfbench")
             for path in sorted((root / folder).rglob("*.py"))}
    attributes, bare = {}, {}  # name -> [(path, line)]
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                bare.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute) or (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value.isidentifier()):
                name = getattr(node, "attr", node.value)
                attributes.setdefault(name, []).append((path, node.lineno))

    def named_elsewhere(path, node, method):
        uses = attributes.get(node.name, []) + (
            [] if method else bare.get(node.name, []))
        return any(p != path or not node.lineno <= line <= node.end_lineno
                   for p, line in uses)

    unnamed = [
        f"{path.name}:{qualname}"
        for path, tree in trees.items() if path.parent.name == "psghost"
        for qualname, node, method in _defs(tree)
        if not (node.name.startswith("__") and node.name.endswith("__")
                or qualname in UNNAMED_BY_DESIGN
                or qualname in psghost.__all__
                or named_elsewhere(path, node, method))]
    assert unnamed == []


def test_field_element_is_named_in_field_and_the_export_map_only():
    # the scalar that the benchmark's field chain multiplies; every
    # command computes on integer encodings
    named = [path.name
             for path in sorted(Path(psghost.__file__).parent.glob("*.py"))
             if "FieldElement" in path.read_text()]
    assert named == ["__init__.py", "field.py"]


def test_closed_stdout_is_input_error():
    # like `psghost elim-trace --field 13 | head -1`: 212 KB of trace
    # against a 64 KiB pipe, so a write meets the closed end
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "psghost.cli", "elim-trace", "--field", "13"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == "# step 0\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 3
    assert err.startswith("error: cannot write to stdout:")
    assert err.count("\n") == 1


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from psghost import *", namespace)
    for name in psghost.__all__:
        assert namespace[name] is getattr(psghost, name)
        assert namespace[name].__module__.startswith("psghost.")
    assert set(psghost.__all__) <= set(dir(psghost))
    with pytest.raises(AttributeError):
        psghost.no_such_name


@pytest.mark.parametrize("preset,expected", [(None, "1"), ("3", "3")])
def test_openblas_threads_default_and_override(preset, expected):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = ("import os\n"
            "import psghost\n"
            "from psghost import cli\n"
            "code = cli.main(['ghost-report', '--field', '3'])\n"
            "print(code, os.environ['OPENBLAS_NUM_THREADS'])\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == f"0 {expected}"


@pytest.mark.parametrize("argv,first_line", [
    (["verify", "--field", "5", "--suite", "elim"], "elim: pass"),
    (["elim-trace", "--field", "3"], "# step 0"),
])
def test_elim_commands_import_it_themselves(argv, first_line):
    proc = _process(*argv)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.splitlines()[0] == first_line


def test_piped_elim_trace_equals_its_pin():
    # the trace is written state by state to a pipe, not to a terminal
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "psghost.cli", "elim-trace", "--field", "13"],
        env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == ELIM_TRACE_SHA256[13]


def test_main_leaves_the_collector_alone(capsys):
    frozen = gc.get_freeze_count()
    assert cli.main(["verify", "--field", "2"]) == 0
    assert gc.get_freeze_count() == frozen


def test_run_freezes_after_the_output(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(gc, "freeze",
                        lambda: calls.append(capsys.readouterr().out))
    assert cli.run(["ghost-report", "--field", "2"]) == 0
    assert len(calls) == 1 and calls[0].startswith("q = 2 ")


def test_installed_script_is_run():
    # the `psghost = "module:name"` line of [project.scripts]; tomllib is
    # 3.11 and later, and the package runs on 3.10
    scripts = PYPROJECT.read_text().split("[project.scripts]\n", 1)[1]
    entry = re.match(r'psghost = "([\w.]+):(\w+)"\n', scripts)
    module, name = entry.groups()
    assert module == "psghost.cli"
    assert getattr(cli, name) is cli.run
