"""Tangential step: minimize a strongly convex model of the objective in
the nullspace of the constraint Jacobian, keeping the point in the box.

With c = x - alpha*g and the trial point w = x + v + u, the subproblem is

    min_w (1/2 alpha)||w - c||^2 + sum_i lam_i |w_i|
    s.t.  J (w - x - v) = 0,  lower <= w <= upper.

For fixed multipliers y of the nullspace rows it splits into 1-D
problems, w_i(y) = clip(soft(c_i - alpha (J'y)_i, alpha lam_i), lower_i,
upper_i), so zeros and bounds are exact by construction.  The dual solve
finds y with F(y) = J u(y) = 0 by semismooth Newton (Li, Sun & Toh,
SIAM J. Optim. 2018): each step solves the m x m system
(alpha J_F J_F' + mu I) d = F over the free components F, those neither
zeroed nor clipped, by Cholesky, with an Armijo backtrack on the concave
dual function.  It starts from the caller's y, the previous iteration's.
The box multipliers z and the regularizer subgradient g_r follow from
stationarity, with z = 0 off the bounds and g_r in lam * d|w|.

When the Newton budget runs out, the line search or a Cholesky
factorization fails, or the answer misses the tangential KKT bar, the
solve raises TangentialError naming that cause.

The split QP (build_tangential_qp) writes each regularized component as
w_i = p_i - q_i with p_i, q_i >= 0, which turns the subproblem into a
plain QP over (u, p, q).  The solver never runs it; it is the reference
model the tests compare the dual solve against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .geometry import box_complementarity, project_box
from .problem import BoxSet, L1Regularizer
# unused here, but perfbench/layers.py rebinds tangential.solve_qp and build_tangential_qp
from .qp import QpProblem, solve_qp  # noqa: F401

__all__ = [
    "TangentialResult",
    "TangentialKktReport",
    "TangentialError",
    "build_tangential_qp",
    "kkt_bar",
    "solve_tangential",
    "verify_tangential_kkt",
]

_LINK_VALS = np.array([[1.0], [-1.0], [1.0]])  # coefficients of u_i, p_r, q_r
_NEWTON_BUDGET = 50  # Newton steps plus refinement solves per dual solve
_MAX_BACKTRACKS = 60
_ARMIJO = 1e-4
_KKT_BAR = 1e-8  # absolute part of the tangential KKT bar (see kkt_bar)
_EPS = np.finfo(float).eps
# where a component of w(y) sits: zeroed, free (by the sign of w), at a bound
_ZERO, _POS, _NEG, _LO, _HI = 0, 1, 2, 3, 4


class TangentialError(RuntimeError):
    """The dual solve failed; the message names the cause."""


@dataclass
class TangentialResult:
    u: np.ndarray
    y: np.ndarray
    z: np.ndarray
    g_r: np.ndarray
    w: np.ndarray  # x + v + u with exact zeros/bounds
    iterations: int  # Newton steps and refinement solves
    kkt_residual: float
    kkt_report: Optional["TangentialKktReport"] = None


@dataclass
class TangentialKktReport:
    stationarity: float
    nullspace: float
    box_feasibility: float
    complementarity: float
    dual_sign: float
    subgradient_margin: float

    @property
    def overall(self) -> float:
        return max(self.stationarity, self.nullspace, self.box_feasibility,
                   self.complementarity, self.dual_sign, self.subgradient_margin)


def build_tangential_qp(x, v, g, J, alpha, reg: L1Regularizer, box: BoxSet):
    """Assemble the split QP over (u, p, q).

    Only components with a positive l1 weight get split variables; the
    linking row (x+v+u)_i = p_i - q_i ties each pair to the step.
    Returns (QpProblem, reg_idx); the QP is the tests' reference model.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    g = np.asarray(g, dtype=float)
    J = np.asarray(J, dtype=float)
    n = x.shape[0]
    m = J.shape[0]
    base = x + v
    reg_idx = np.flatnonzero(reg.weights > 0)
    nr = reg_idx.shape[0]
    d = n + 2 * nr

    q_lin = np.concatenate([g + v / alpha, reg.weights[reg_idx], reg.weights[reg_idx]])
    lo = np.concatenate([box.lower - base, np.zeros(2 * nr)])
    hi = np.concatenate([box.upper - base, np.full(2 * nr, np.inf)])

    H = np.diag(np.concatenate([np.full(n, 1.0 / alpha), np.zeros(2 * nr)]))
    # linking row m + r is e_i'u - p_r + q_r with i = reg_idx[r]: entry
    # (link_rows[r], link_cols[k, r]) holds _LINK_VALS[k]
    link_rows = np.arange(m, m + nr)
    link_cols = np.vstack([reg_idx, np.arange(n, d).reshape(2, nr)])
    Aeq = np.zeros((m + nr, d))
    Aeq[:m, :n] = J
    Aeq[link_rows, link_cols] = _LINK_VALS
    beq = np.concatenate([np.zeros(m), -base[reg_idx]])
    return QpProblem(H=H, q=q_lin, Aeq=Aeq, beq=beq, lower=lo, upper=hi), reg_idx


def _piece(tau, base, alpha_lam, lower, upper):
    """u(y) in step coordinates and the code (_ZERO .. _HI) of each
    component, for tau = -(alpha g + v) - alpha J'y.

    With t = x + v + tau = c - alpha J'y, w_i = clip(soft(t_i, alpha
    lam_i)).  The free components get u = tau -+ alpha lam directly, so
    J u carries no cancellation against J (x + v).
    """
    t = base + tau
    shrunk = (alpha_lam > 0) & (np.abs(t) <= alpha_lam)
    sgn = np.where((t < 0) & (alpha_lam > 0), -1.0, 1.0)
    s = np.where(shrunk, 0.0, t - sgn * alpha_lam)
    code = np.where(shrunk, _ZERO, np.where(sgn > 0, _POS, _NEG))
    u = np.where(shrunk, -base, tau - sgn * alpha_lam)
    at_lo = s <= lower
    at_hi = (s >= upper) & ~at_lo
    code[at_lo], code[at_hi] = _LO, _HI
    u[at_lo] = lower[at_lo] - base[at_lo]
    u[at_hi] = upper[at_hi] - base[at_hi]
    return u, code


def _dual_solve(base, tau0, J, alpha, lam, lower, upper, y):
    """Semismooth Newton on F(y) = J u(y) = 0 from y.

    The dual function theta(y) = (1/2 alpha)||u - tau0||^2 + lam'|x+v+u|
    + y'J u is concave with gradient F.  Once a unit step leaves the piece
    (the codes) unchanged, or cuts the residual as the model predicts, the
    model is exact there and the remaining residual is refined in place,
    u_F -= alpha J_F' d and y += d, until |J u| <= 4 eps (1 + |J| |u|) row
    by row.  Returns (y, u, code, iterations); raises TangentialError
    when the budget runs out, the line search fails or a Cholesky
    factorization fails.
    """
    m = J.shape[0]
    alpha_lam = alpha * lam
    abs_J = np.abs(J)
    scale = alpha * float(np.max(np.einsum("ij,ij->i", J, J), initial=0.0))

    def evaluate(y):
        u, code = _piece(tau0 - alpha * (J.T @ y), base, alpha_lam, lower, upper)
        return u, code, J @ u

    def theta(y, u, F):
        r = u - tau0
        return float(r @ r) / (2.0 * alpha) + float(lam @ np.abs(base + u)) + float(y @ F)

    u, code, F = evaluate(y)
    iterations = 0
    refine = False
    while not np.all(np.abs(F) <= 4.0 * _EPS * (1.0 + abs_J @ np.abs(u))):
        if iterations == _NEWTON_BUDGET:
            raise TangentialError(f"dual solve ran out of its Newton budget "
                                  f"({_NEWTON_BUDGET} steps), |J u| = {np.linalg.norm(F):.3g}")
        iterations += 1
        free = (code == _POS) | (code == _NEG)
        J_F = J[:, free]
        F_norm = float(np.linalg.norm(F))
        # regularized as in SSNAL, since rows of J with no free entry make
        # J_F J_F' singular; the floor keeps dependent rows of J from
        # failing the factorization by roundoff
        mu = max(1e-8 * min(F_norm, 1.0), 1e-14 * m) * scale
        M = alpha * (J_F @ J_F.T) + mu * np.eye(m)
        try:
            d = scipy.linalg.cho_solve(scipy.linalg.cho_factor(M), F)
        except (np.linalg.LinAlgError, ValueError):
            raise TangentialError("dual Newton system failed its Cholesky "
                                  "factorization") from None
        if refine:
            u_ref = u.copy()
            u_ref[free] -= alpha * (J_F.T @ d)
            F_ref = J @ u_ref
            if np.linalg.norm(F_ref) < 0.5 * F_norm:
                y, u, F = y + d, u_ref, F_ref
                continue
            refine = False  # no longer contracting: back to full Newton steps
        theta0 = theta(y, u, F)
        slope = float(F @ d)
        slack = 8.0 * _EPS * (1.0 + abs(theta0))
        step = 1.0
        for _ in range(_MAX_BACKTRACKS):
            y_try = y + step * d
            u_try, code_try, F_try = evaluate(y_try)
            if theta(y_try, u_try, F_try) >= theta0 + _ARMIJO * step * slope - slack:
                break
            step *= 0.5
        else:
            raise TangentialError(f"dual line search failed after {_MAX_BACKTRACKS} "
                                  "backtracks")
        # a unit step that kept the piece, or that met the model's
        # prediction while a component sat exactly on a kink, ends on the
        # final piece
        refine = step == 1.0 and (np.array_equal(code_try, code)
                                  or np.linalg.norm(F_try) <= 1e-6 * F_norm)
        y, u, code, F = y_try, u_try, code_try, F_try
    return y, u, code, iterations


def kkt_bar(x, w, alpha) -> float:
    """The tangential KKT residual a dual answer must meet.

    Stationarity holds (u + v)/alpha, and u + v = w - x is rounded at about
    eps max(|x|, |w|), so below alpha ~ 1e-9 a correct answer's rounding
    alone would exceed a bare 1e-8.
    """
    scale = max(np.max(np.abs(x), initial=0.0), np.max(np.abs(w), initial=0.0))
    return _KKT_BAR + 4.0 * _EPS * float(scale) / alpha


def solve_tangential(x, v, g, J, alpha, reg: L1Regularizer, box: BoxSet,
                     y0: Optional[np.ndarray] = None) -> TangentialResult:
    """Solve the tangential subproblem and recover multipliers.

    The dual solve starts from ``y0``, the previous call's y, or from zero.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    g = np.asarray(g, dtype=float)
    J = np.asarray(J, dtype=float)
    m = J.shape[0]
    base = x + v
    lam = reg.weights

    y0 = np.zeros(m) if y0 is None else np.asarray(y0, dtype=float)
    y, u, code, iterations = _dual_solve(base, -(alpha * g + v), J, alpha, lam,
                                         box.lower, box.upper, y0)

    # a free component can round a hair past its bound
    w = project_box(base + u, box)
    w[code == _ZERO] = 0.0
    at_lo, at_hi = code == _LO, code == _HI
    w[at_lo] = box.lower[at_lo]
    w[at_hi] = box.upper[at_hi]
    u = w - base
    # stationarity: g + (u + v)/alpha + J'y + g_r + z = 0 with z = 0 off
    # the bounds; at a bound g_r takes the value lam * d|w| allows nearest
    # to the residual and z the rest
    resid = -(g + (u + v) / alpha + J.T @ y)
    g_bound = np.where(w == 0.0, np.clip(resid, -lam, lam), lam * np.sign(w))
    z = np.where(at_lo | at_hi, resid - g_bound, 0.0)
    g_r = resid - z

    report = verify_tangential_kkt(x, v, g, J, alpha, reg, box, u=u, y=y, z=z, g_r=g_r)
    bar = kkt_bar(x, w, alpha)
    if not report.overall <= bar:
        raise TangentialError(f"dual answer misses the tangential KKT bar: residual "
                              f"{report.overall:.3g} > {bar:.3g}")
    return TangentialResult(u=u, y=y, z=z, g_r=g_r, w=w, iterations=iterations,
                            kkt_residual=report.overall, kkt_report=report)


def verify_tangential_kkt(x, v, g, J, alpha, reg: L1Regularizer, box: BoxSet,
                          *, u, y, z, g_r) -> TangentialKktReport:
    """Residual breakdown of the tangential optimality system.

    Stationarity is evaluated with the subgradient projected onto the
    subdifferential, so membership violations cannot hide inside the
    recovered g_r; the membership gap is reported separately.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    J = np.asarray(J, dtype=float)
    w = x + v + u
    lam = reg.weights
    zero_tol = 1e-12 * (1.0 + float(np.max(np.abs(w), initial=0.0)))

    g_r_proj = np.clip(g_r, -lam, lam)
    nz = np.abs(w) > zero_tol
    g_r_proj[nz] = lam[nz] * np.sign(w[nz])
    margin = float(np.max(np.abs(g_r - g_r_proj), initial=0.0))

    stat = float(np.linalg.norm(g + (u + v) / alpha + g_r_proj + J.T @ y + z))
    nullspace = float(np.linalg.norm(J @ u)) if J.size else 0.0
    boxf = float(max(np.max(np.maximum(box.lower - w, 0.0), initial=0.0),
                     np.max(np.maximum(w - box.upper, 0.0), initial=0.0)))

    comp, sign = box_complementarity(w, z, box.lower, box.upper)
    return TangentialKktReport(
        stationarity=stat,
        nullspace=nullspace,
        box_feasibility=boxf,
        complementarity=float(np.linalg.norm(comp)),
        dual_sign=float(np.max(sign, initial=0.0)),
        subgradient_margin=margin,
    )
