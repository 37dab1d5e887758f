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

from .geometry import compute_delta, project_box
from .problem import BoxSet
from .qp import QpProblem, solve_qp

__all__ = [
    "MAX_BACKTRACKS",
    "NormalStepResult",
    "model_value",
    "cauchy_search",
    "solve_tr_inf",
    "compute_normal_step",
]


# Backtracks the Cauchy search may take before it ends at the zero step.
# No solve of the tools/fingerprints.py sweep needs more than 8.
MAX_BACKTRACKS = 60


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
    backtracks: int
    delta: float
    m0: float
    m_v: float
    lin_feas_gain: float
    infeasible_stationary: bool = False


def cauchy_search(x, c_val, J_val, alpha, delta, box: BoxSet,
                  gamma: float, eta_m: float, kappa_v: float):
    """Backtracking projected line search along -J'c.

    Returns (beta, v_c, backtracks, v_unit) where beta = gamma**i for the
    smallest i such that v(beta) fits the trust region and achieves the
    fraction eta_m of first-order model decrease.  When no i up to
    MAX_BACKTRACKS qualifies the search ends at its limit beta = 0, the
    zero step, which passes both tests by construction.
    """
    x = np.asarray(x, dtype=float)
    grad0 = np.asarray(J_val, dtype=float).T @ np.asarray(c_val, dtype=float)
    radius = kappa_v * alpha * delta
    m0 = 0.5 * float(np.dot(c_val, c_val))
    beta = 1.0
    v_unit = None
    for i in range(MAX_BACKTRACKS + 1):
        v = project_box(x - beta * grad0, box) - x
        if v_unit is None:
            v_unit = v
        if np.linalg.norm(v) <= radius:
            if model_value(c_val, J_val, v) <= m0 + eta_m * float(np.dot(grad0, v)):
                return beta, v, i, v_unit
        beta *= gamma
    return 0.0, np.zeros_like(x), MAX_BACKTRACKS + 1, v_unit


def solve_tr_inf(x, c_val, J_val, alpha, delta, box: BoxSet, kappa_v_inf: float,
                 kappa_v: float):
    """Minimize the model over the inf-norm ball intersected with the box.

    The radius is capped at kappa_v/sqrt(n) times alpha*delta so the
    2-norm bound required of any normal step holds automatically.
    """
    x = np.asarray(x, dtype=float)
    J = np.asarray(J_val, dtype=float)
    n = x.shape[0]
    radius = min(kappa_v_inf, kappa_v / np.sqrt(n)) * alpha * delta
    lo = np.maximum(box.lower - x, -radius)
    hi = np.minimum(box.upper - x, radius)
    qp = QpProblem(H=None, q=np.zeros(n), Aeq=np.zeros((0, n)), beq=np.zeros(0),
                   lower=lo, upper=hi, gram=(J, np.asarray(c_val, dtype=float)))
    sol = solve_qp(qp)
    return sol.primal


def compute_normal_step(x, c_val, J_val, alpha, box: BoxSet, *,
                        kappa_v: float, kappa_v_inf: float, gamma: float,
                        eta_m: float, tol_infeas_c: float) -> NormalStepResult:
    """Full normal-step computation with the two-candidate selection rule.

    When the projected-gradient stationarity measure vanishes the step is
    zero; if the violation is still large this flags an infeasible
    stationary point (the caller decides when to declare it).
    """
    x = np.asarray(x, dtype=float)
    c_val = np.asarray(c_val, dtype=float)
    J = np.asarray(J_val, dtype=float)
    n = x.shape[0]
    m0 = 0.5 * float(np.dot(c_val, c_val))
    c_norm = float(np.linalg.norm(c_val))

    delta, _ = compute_delta(x, c_val, J, box)
    v_unit = project_box(x - J.T @ c_val, box) - x
    tol_delta = 1e-12 * (1.0 + float(np.linalg.norm(J.T @ c_val)))

    if delta <= tol_delta:
        zero = np.zeros(n)
        return NormalStepResult(
            v=zero, v_cauchy=zero, v_inf=None, v_unit=v_unit, beta=0.0,
            backtracks=0, delta=delta, m0=m0, m_v=m0, lin_feas_gain=0.0,
            infeasible_stationary=bool(c_norm > tol_infeas_c),
        )

    beta, v_c, backtracks, v_unit = cauchy_search(
        x, c_val, J, alpha, delta, box, gamma=gamma, eta_m=eta_m, kappa_v=kappa_v,
    )
    v_inf = solve_tr_inf(x, c_val, J, alpha, delta, box, kappa_v_inf, kappa_v)
    m_c = model_value(c_val, J, v_c)
    m_i = model_value(c_val, J, v_inf)
    v, m_v = (v_c, m_c) if m_c < m_i else (v_inf, m_i)

    gain = c_norm - float(np.linalg.norm(c_val + J @ v))
    return NormalStepResult(
        v=v, v_cauchy=v_c, v_inf=v_inf, v_unit=v_unit, beta=beta,
        backtracks=backtracks, delta=delta, m0=m0, m_v=m_v, lin_feas_gain=gain,
    )
