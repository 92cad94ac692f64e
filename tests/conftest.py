"""Test-session setup, run before any test module imports numpy."""

import os

# `import psghost` sets this default too, but a test module that imports
# numpy first would start OpenBLAS with one thread per core, and hand-offs
# between them made single tests of small products up to four times slower.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
