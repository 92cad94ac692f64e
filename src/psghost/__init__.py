"""Power sum polynomials, ghosts and the inverse problem in PG(2,q).

The public names below are imported from their modules on first access
(PEP 562), so that importing one module, such as `psghost.cli`, does not
load the others.
"""

import os

# The float64 products here are small; extra OpenBLAS threads only add
# start-up and hand-off time.  Set before numpy loads, and only if unset.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Each public name and the module that defines it.
_MODULE_OF = {
    **dict.fromkeys(["FieldElement", "FieldSpec"], "field"),
    **dict.fromkeys(["ProjLine", "ProjPoint", "enumerate_lines",
                     "enumerate_points", "line_points", "pencil_lines"],
                    "plane"),
    **dict.fromkeys(["HomPoly", "add_poly", "evaluate", "power_sum"], "poly"),
    **dict.fromkeys(["PointMultiset", "complement", "minverse", "msum",
                     "phi"], "msets"),
    **dict.fromkeys(["GhostReport", "ghost_report", "is_ghost", "line_ghost",
                     "partial_pencil_ghost", "punctured_pencil_ghost",
                     "vandermonde_check"], "ghost"),
    **dict.fromkeys(["SolutionCoset", "enumerate_set_solutions", "solve"],
                    "tomo"),
}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    import importlib
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
