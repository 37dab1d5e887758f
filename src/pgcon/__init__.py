"""pgcon: proximal-gradient solver for l1-regularized, equality-constrained
problems over boxes, with a benchmark CLI."""

from .problem import (
    BoxSet,
    L1Regularizer,
    ProblemInstance,
    ScaleInfo,
    add_slacks,
    check_derivatives,
    load_problem,
    scale_factors,
)

__version__ = "0.1.0"

__all__ = [
    "BoxSet",
    "L1Regularizer",
    "ProblemInstance",
    "ScaleInfo",
    "add_slacks",
    "check_derivatives",
    "load_problem",
    "scale_factors",
    "__version__",
]
