"""The library names and fields that the benchmark uses still exist.

perfbench/layers.py replaces psghost functions by name with timed wrappers;
a rename would otherwise pass the tests and break only `run.py --trace 1`.
Likewise a field that perfbench/run.py passes and the library no longer
accepts would break only the benchmark, and so would an inverse chain whose
outputs the benchmark's check refuses, or an elim-trace chain whose CSV it
refuses.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import psghost
from psghost.field import FieldSpec

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(psghost.__file__).resolve().parent.parent

CHILD = """
import json
import layers
from psghost.field import FieldSpec
tr = layers.Tracer()
layers.install(tr)
out = {"field": layers.chain_field(tr, FieldSpec(3), {"mul_reps": 1})}
field_spans = [s[1] for s in tr.spans]
job = {"multisets": {"3": [[0] * 13, [1] + [0] * 12]}}
out["verify"] = layers.chain_verify(tr, FieldSpec(3), job)
print(json.dumps({"out": out, "field_spans": field_spans,
                  "spans": sorted({s[1] for s in tr.spans})}))
"""

FIELDS_CHILD = """
import json
import run
print(json.dumps({
    "named": [*run.REPORT_FIELDS, *run.VERIFY_FIELDS, run.STREAM_FIELD,
              *run.WALK_FIELDS, str(run.ELIM_TRACE_P)],
    "chains": [q for _, q in run.suite_chains()]}))
"""

INVERSE_CHILD = """
import json
import layers
import run
from psghost.field import FieldSpec
ref, targets, queries, _ = run.inverse_inputs(2041, 20)
out = layers.chain_inverse(layers.Tracer(), FieldSpec.parse(run.STREAM_FIELD),
                           {"queries": queries})["stream"]
print(json.dumps([run.check_particular(ref, target, text, exponent)
                  for target, (text, exponent) in zip(targets, out)]))
"""

ELIM_TRACE_CHILD = """
import json
import layers
import run
from psghost.field import FieldSpec
tr = layers.Tracer()
layers.install(tr)
out = layers.chain_elim_trace(tr, FieldSpec(run.ELIM_TRACE_P), {})
print(json.dumps({"check": run.check_elim_trace(run.ELIM_TRACE_P, out["csv"]),
                  "spans": sorted({s[1] for s in tr.spans})}))
"""


def _perfbench_child(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(SRC)]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_layer_tracer_installs_and_runs_the_field_chain():
    # install() patches psghost's modules for the whole process: run it in
    # a child of its own.  The verify chain walks the pencils of three
    # points through the object API of `plane`.
    got = _perfbench_child(CHILD)
    assert got["out"] == {
        "field": {"products": 9},
        "verify": {"is_ghost": [True, False], "vandermonde": [True, False],
                   "elim_ok": True}}
    assert got["field_spans"] == ["field.mul"]
    assert {"plane.enumerate_points", "plane.pencil_lines",
            "plane.line_points"} <= set(got["spans"])


def test_every_benchmark_field_parses():
    # the fields of the measured workloads, and of the traced chains, 3^3
    # in the field chain among them
    got = _perfbench_child(FIELDS_CHILD)
    assert "3^3" in got["chains"]
    for text in {*got["named"], *got["chains"]}:
        assert str(FieldSpec.parse(text)) == text


def test_inverse_chain_passes_the_benchmark_check():
    # the parse -> solve -> format chain of the inverse workload, checked
    # by the benchmark's own reference: a reader fault fails here before
    # a benchmark run reads it as incorrect output
    assert _perfbench_child(INVERSE_CHILD) == [None] * 20


def test_elim_trace_chain_passes_the_benchmark_check():
    # the traced elim-trace chain at the benchmark's p, through the
    # wrappers install() puts on run_elimination and StepState.to_csv, and
    # its CSV read by the benchmark's own check
    got = _perfbench_child(ELIM_TRACE_CHILD)
    assert got["check"] is None
    assert {"elim.run_elimination", "elim.to_csv"} <= set(got["spans"])
