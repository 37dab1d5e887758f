"""Feasibility (normal) step: backtracking projected-gradient Cauchy point
plus an inf-norm trust-region solve, with the better model value chosen.

The model is m(v) = 0.5*||c + J v||^2, the linearization of the squared
constraint violation at the current point.  The Cauchy point certifies
model decrease; the trust-region point usually improves on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import _norm, compute_delta, project_box
from .problem import BoxSet
from .qp import solve_qp

__all__ = [
    "MAX_BACKTRACKS",
    "KAPPA_V",
    "KAPPA_V_INF",
    "GAMMA",
    "ETA_M",
    "NormalStepResult",
    "model_value",
    "cauchy_search",
    "solve_tr_inf",
    "compute_normal_step",
]


# Backtracks the Cauchy search may take before it ends at the zero step.
# No solve of the tools/fingerprints.py sweep needs more than 8.
MAX_BACKTRACKS = 60
# ||v|| <= KAPPA_V * alpha * delta bounds every normal step; the inf-norm
# trust region has radius min(KAPPA_V_INF, KAPPA_V / sqrt(n)) * alpha * delta
KAPPA_V = 1e3
KAPPA_V_INF = 1e-2
# the Cauchy search's backtracking factor and model-decrease fraction
GAMMA = 0.5
ETA_M = 1e-4


def model_value(c_val, J_val, v) -> float:
    r = np.asarray(c_val, dtype=float) + np.asarray(J_val, dtype=float) @ v
    return 0.5 * float(np.dot(r, r))


@dataclass
class NormalStepResult:
    v: np.ndarray
    v_cauchy: np.ndarray
    v_inf: Optional[np.ndarray]
    v_unit: np.ndarray  # projected-gradient trial at unit step size
    beta: float
    delta: float
    infeasible_stationary: bool = False


def cauchy_search(x, c_val, J_val, alpha, delta, box: BoxSet, grad, v_unit):
    """Backtracking projected line search along -grad, where grad = J'c.

    v_unit is the trial at beta = 1.  Returns (beta, v_c, backtracks)
    where beta = GAMMA**i for the smallest i such that v(beta) fits the
    trust region and achieves the fraction ETA_M of first-order model
    decrease.  When no i up to MAX_BACKTRACKS qualifies the search ends at
    its limit beta = 0, the zero step, which passes both tests by
    construction.
    """
    radius = KAPPA_V * alpha * delta
    m0 = 0.5 * float(np.dot(c_val, c_val))
    beta, v = 1.0, v_unit
    for i in range(MAX_BACKTRACKS + 1):
        if _norm(v) <= radius:
            if model_value(c_val, J_val, v) <= m0 + ETA_M * float(np.dot(grad, v)):
                return beta, v, i
        beta *= GAMMA
        v = project_box(x - beta * grad, box) - x
    return 0.0, np.zeros_like(x), MAX_BACKTRACKS + 1


def solve_tr_inf(x, c_val, J_val, alpha, delta, box: BoxSet):
    """Minimize the model over the inf-norm ball intersected with the box.

    The radius is capped at KAPPA_V/sqrt(n) times alpha*delta so the
    2-norm bound required of any normal step holds automatically.
    """
    x = np.asarray(x, dtype=float)
    radius = min(KAPPA_V_INF, KAPPA_V / np.sqrt(x.shape[0])) * alpha * delta
    lo = np.maximum(box.lower - x, -radius)
    hi = np.minimum(box.upper - x, radius)
    return solve_qp(J_val, c_val, lo, hi).primal


def compute_normal_step(x, c_val, J_val, alpha, box: BoxSet, tol_c: float) -> NormalStepResult:
    """Full normal-step computation with the two-candidate selection rule.

    When the projected-gradient stationarity measure vanishes the step is
    zero; if the violation is above tol_c this flags an infeasible
    stationary point (the caller decides when to declare it).
    """
    x = np.asarray(x, dtype=float)
    c_val = np.asarray(c_val, dtype=float)
    J = np.asarray(J_val, dtype=float)
    n = x.shape[0]

    grad = J.T @ c_val
    delta, _ = compute_delta(x, grad, box)
    v_unit = project_box(x - grad, box) - x
    tol_delta = 1e-12 * (1.0 + _norm(grad))

    if delta <= tol_delta:
        zero = np.zeros(n)
        return NormalStepResult(
            v=zero, v_cauchy=zero, v_inf=None, v_unit=v_unit, beta=0.0,
            delta=delta, infeasible_stationary=bool(_norm(c_val) > tol_c),
        )

    beta, v_c, _ = cauchy_search(x, c_val, J, alpha, delta, box, grad, v_unit)
    v_inf = solve_tr_inf(x, c_val, J, alpha, delta, box)
    v = v_c if model_value(c_val, J, v_c) < model_value(c_val, J, v_inf) else v_inf
    return NormalStepResult(v=v, v_cauchy=v_c, v_inf=v_inf, v_unit=v_unit,
                            beta=beta, delta=delta)
