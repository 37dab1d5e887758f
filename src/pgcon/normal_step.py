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
    r = c_val + J_val @ v
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
    model_cauchy: Optional[float] = None  # m(v_cauchy); None for the zero step


def cauchy_search(x, c_val, J_val, alpha, delta, box: BoxSet, grad, v_unit):
    """Backtracking projected line search along -grad, where grad = J'c.

    v_unit is the trial at beta = 1.  Returns (beta, v_c, backtracks,
    m(v_c)) where beta = GAMMA**i for the smallest i such that v(beta)
    fits the trust region and achieves the fraction ETA_M of first-order
    model decrease.  When no i up to MAX_BACKTRACKS qualifies the search
    ends at its limit beta = 0, the zero step, which passes both tests by
    construction and whose model value is m(0) = ||c||^2 / 2.
    """
    radius = KAPPA_V * alpha * delta
    m0 = 0.5 * float(np.dot(c_val, c_val))
    beta, v = 1.0, v_unit
    for i in range(MAX_BACKTRACKS + 1):
        if _norm(v) <= radius:
            m_v = model_value(c_val, J_val, v)
            if m_v <= m0 + ETA_M * float(np.dot(grad, v)):
                return beta, v, i, m_v
        beta *= GAMMA
        v = project_box(x - beta * grad, box) - x
    return 0.0, np.zeros_like(x), MAX_BACKTRACKS + 1, m0


def solve_tr_inf(x, c_val, J_val, alpha, delta, box: BoxSet):
    """Minimize the model over the inf-norm ball intersected with the box.

    The radius is capped at KAPPA_V/sqrt(n) times alpha*delta so the
    2-norm bound required of any normal step holds automatically.
    """
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
    n = x.shape[0]

    grad = J_val.T @ c_val
    delta, _ = compute_delta(x, grad, box)
    v_unit = project_box(x - grad, box) - x
    tol_delta = 1e-12 * (1.0 + _norm(grad))

    if delta <= tol_delta:
        zero = np.zeros(n)
        return NormalStepResult(
            v=zero, v_cauchy=zero, v_inf=None, v_unit=v_unit, beta=0.0,
            delta=delta, infeasible_stationary=bool(_norm(c_val) > tol_c),
        )

    beta, v_c, _, m_c = cauchy_search(x, c_val, J_val, alpha, delta, box, grad, v_unit)
    v_inf = solve_tr_inf(x, c_val, J_val, alpha, delta, box)
    v = v_c if m_c < model_value(c_val, J_val, v_inf) else v_inf
    return NormalStepResult(v=v, v_cauchy=v_c, v_inf=v_inf, v_unit=v_unit,
                            beta=beta, delta=delta, model_cauchy=m_c)
