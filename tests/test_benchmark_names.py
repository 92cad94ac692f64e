"""The library names that the benchmark's layer tracer wraps still exist.

perfbench/layers.py replaces psghost functions by name with timed wrappers;
a rename would otherwise pass the tests and break only `run.py --trace 1`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import psghost

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(psghost.__file__).resolve().parent.parent

CHILD = """
import json
import layers
from psghost.field import FieldSpec
tr = layers.Tracer()
layers.install(tr)
out = layers.chain_field(tr, FieldSpec.of(3), {"mul_reps": 1})
print(json.dumps({"out": out, "spans": [s[1] for s in tr.spans]}))
"""


def test_layer_tracer_installs_and_runs_the_field_chain():
    # install() patches psghost's modules for the whole process: run it in
    # a child of its own
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(SRC)]))
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"out": {"products": 9},
                                       "spans": ["field.mul"]}
