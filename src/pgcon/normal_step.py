"""Feasibility (normal) step: backtracking projected-gradient Cauchy point
and an inf-norm trust-region point, with the better model value chosen.

The model is m(v) = 0.5*||c + J v||^2, the linearization of the squared
constraint violation at the current point.  The Cauchy point certifies
model decrease, which is all the method needs; the trust-region point is
a second candidate that seldom wins (3 of the 29 active steps of an
analytic-corpus pass).

What depends on the point alone (J'c, delta and the active masks, the
unit trial, ||c|| and rho = ||(|J| 1)||, the 2-norm of J's row l1 norms)
is formed once per point by ``normal_point``; ``compute_normal_step``
forms the rest for one alpha.  No v with ||v||_inf <= r moves ||J v|| by
more than r*rho, so m(v) >= 0.5*(||c|| - r*rho)^2 over the trust region
of radius r: a Cauchy point below that bound wins, and the trust-region
QP is not solved (a safe screening test in the sense of El Ghaoui,
Viallon & Rabbani, Pacific J. Optim. 2012).  The step chosen is the one
the full comparison chooses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import _norm, active_masks, compute_delta, project_box
from .problem import BoxSet
from .qp import solve_qp

__all__ = [
    "MAX_BACKTRACKS",
    "KAPPA_V",
    "KAPPA_V_INF",
    "GAMMA",
    "ETA_M",
    "NormalStepResult",
    "NormalPoint",
    "model_value",
    "normal_point",
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
# the screen's margin, relative to ||c|| + r*rho: it covers the rounding of
# both model values while n*eps stays below about 1e-11
_SCREEN_TOL = 1e-10


def model_value(c_val, J_val, v) -> float:
    r = c_val + J_val @ v
    return 0.5 * float(np.dot(r, r))


@dataclass
class NormalStepResult:
    v: np.ndarray
    v_cauchy: np.ndarray
    v_inf: Optional[np.ndarray]  # None when the trust-region QP did not run
    beta: float
    delta: float
    model_cauchy: float  # m(v_cauchy)
    model: float  # m(v)
    infeasible_stationary: bool = False


@dataclass(frozen=True)
class NormalPoint:
    """What the normal step reads that depends on the point alone."""

    grad: np.ndarray  # J'c
    masks: tuple  # active_masks(x, box), which the ledger's active set reads too
    delta: float
    v_unit: np.ndarray  # projected-gradient trial at unit step size
    m0: float  # m(0) = ||c||^2 / 2
    c_norm: float
    rho: float  # ||(|J| 1)||; 0 where the step is zero, which never reads it
    zero: Optional[NormalStepResult]  # the step when x is stationary for ||c||, free of alpha


def normal_point(x, c_val, J_val, box: BoxSet, tol_c: float, tol_inf: float) -> NormalPoint:
    """The normal step's data at x.  When delta <= tol_inf ||c|| (or
    1e-12 (1 + ||J'c||)) the step is zero for every alpha; if ||c|| > tol_c
    this flags an infeasible stationary point, which the caller declares.
    delta/||c||, the projected gradient of ||c||, is how Byrd, Curtis &
    Nocedal (SIAM J. Optim. 2010) detect infeasibility."""
    grad = J_val.T @ c_val
    masks = active_masks(x, box)
    delta = compute_delta(x, grad, box, masks)
    cc = float(c_val.dot(c_val))
    m0, c_norm = 0.5 * cc, math.sqrt(cc)
    zero, rho = None, 0.0
    if delta <= max(1e-12 * (1.0 + _norm(grad)), tol_inf * c_norm):
        v = np.zeros(x.shape[0])
        zero = NormalStepResult(v=v, v_cauchy=v, v_inf=None, beta=0.0, delta=delta,
                                model_cauchy=m0, model=m0,
                                infeasible_stationary=c_norm > tol_c)
    else:
        rho = _norm(np.add.reduce(np.abs(J_val), axis=1))
    return NormalPoint(grad=grad, masks=masks, delta=delta,
                       v_unit=project_box(x - grad, box) - x, m0=m0,
                       c_norm=c_norm, rho=rho, zero=zero)


def cauchy_search(x, c_val, J_val, alpha, box: BoxSet, point: NormalPoint):
    """Backtracking projected line search along -grad, grad = J'c.

    Returns (beta, v_c, backtracks, m(v_c)) where beta = GAMMA**i for the
    smallest i such that v(beta) fits the trust region and achieves the
    fraction ETA_M of first-order model decrease; the trial at i = 0 is
    ``point.v_unit``.  When no i up to MAX_BACKTRACKS qualifies the search
    ends at its limit beta = 0, the zero step, which passes both tests by
    construction and whose model value is m(0) = ||c||^2 / 2.
    """
    grad, m0 = point.grad, point.m0
    radius = KAPPA_V * alpha * point.delta
    beta, v = 1.0, point.v_unit
    for i in range(MAX_BACKTRACKS + 1):
        if _norm(v) <= radius:
            m_v = model_value(c_val, J_val, v)
            if m_v <= m0 + ETA_M * float(np.dot(grad, v)):
                return beta, v, i, m_v
        beta *= GAMMA
        v = project_box(x - beta * grad, box) - x
    return 0.0, np.zeros_like(x), MAX_BACKTRACKS + 1, m0


def _tr_radius(n: int, alpha, delta):
    """The inf-norm trust region's radius, capped at KAPPA_V/sqrt(n) times
    alpha*delta so the 2-norm bound required of any normal step holds
    automatically."""
    return min(KAPPA_V_INF, KAPPA_V / math.sqrt(n)) * alpha * delta


def solve_tr_inf(x, c_val, J_val, alpha, delta, box: BoxSet):
    """Minimize the model over the inf-norm ball of radius ``_tr_radius``
    intersected with the box."""
    radius = _tr_radius(x.shape[0], alpha, delta)
    lo = np.maximum(box.lower - x, -radius)
    hi = np.minimum(box.upper - x, radius)
    return solve_qp(J_val, c_val, lo, hi).primal


def compute_normal_step(x, c_val, J_val, alpha, box: BoxSet,
                        point: NormalPoint) -> NormalStepResult:
    """The normal step at alpha: the point's zero step, or the better of
    the Cauchy point and the trust-region point (the trust-region point on
    a tie).  The QP is solved only when the screen of the module docstring
    cannot rule it out."""
    if point.zero is not None:
        return point.zero
    delta = point.delta
    beta, v_c, _, m_c = cauchy_search(x, c_val, J_val, alpha, box, point)
    reach = _tr_radius(x.shape[0], alpha, delta) * point.rho
    gap = point.c_norm - reach - _SCREEN_TOL * (point.c_norm + reach)
    if gap > 0.0 and m_c < 0.5 * gap * gap:
        return NormalStepResult(v=v_c, v_cauchy=v_c, v_inf=None, beta=beta,
                                delta=delta, model_cauchy=m_c, model=m_c)
    v_inf = solve_tr_inf(x, c_val, J_val, alpha, delta, box)
    m_inf = model_value(c_val, J_val, v_inf)
    v, m = (v_c, m_c) if m_c < m_inf else (v_inf, m_inf)
    return NormalStepResult(v=v, v_cauchy=v_c, v_inf=v_inf, beta=beta, delta=delta,
                            model_cauchy=m_c, model=m)
