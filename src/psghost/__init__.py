"""Power sum polynomials, ghosts and the inverse problem in PG(2,q)."""

import os

# The float64 products here are small; extra OpenBLAS threads only add
# start-up and hand-off time.  Set before numpy loads, and only if unset.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .field import FieldElement, FieldSpec, multinomial_mod_p, pow_q_minus_1
from .plane import (ProjLine, ProjPoint, enumerate_lines, enumerate_points,
                    incident, line_points, pencil_lines)
from .poly import HomPoly, add_poly, evaluate, negate_poly, power_sum
from .msets import PointMultiset, complement, minverse, msum, phi
from .ghost import (GhostReport, ghost_report, is_ghost, line_ghost,
                    partial_pencil_ghost, punctured_pencil_ghost,
                    vandermonde_check)
from .tomo import SolutionCoset, enumerate_set_solutions, solve, verify_solution

__all__ = [
    "FieldElement", "FieldSpec", "multinomial_mod_p", "pow_q_minus_1",
    "ProjLine", "ProjPoint", "enumerate_lines", "enumerate_points",
    "incident", "line_points", "pencil_lines",
    "HomPoly", "add_poly", "evaluate", "negate_poly", "power_sum",
    "PointMultiset", "complement", "minverse", "msum", "phi",
    "GhostReport", "ghost_report", "is_ghost", "line_ghost",
    "partial_pencil_ghost", "punctured_pencil_ghost", "vandermonde_check",
    "SolutionCoset", "enumerate_set_solutions", "solve", "verify_solution",
]

__version__ = "0.1.0"
