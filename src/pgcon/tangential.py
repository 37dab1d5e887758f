"""Tangential step: minimize a strongly convex model of the objective in
the nullspace of the constraint Jacobian, keeping the point in the box.

The l1 term is handled exactly by splitting each regularized component w_i
of the trial point into w_i = p_i - q_i with p_i, q_i >= 0, which turns
the nonsmooth subproblem into a plain QP over (u, p, q).  Equality duals
of the nullspace rows give the constraint multipliers y; bound duals of
the u-block give the box multipliers z; the regularizer subgradient is
recovered from the stationarity identity and validated for membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .geometry import box_complementarity, project_box
from .problem import BoxSet, L1Regularizer
from .qp import QpProblem, QpSolution, solve_qp

__all__ = [
    "TangentialResult",
    "TangentialKktReport",
    "TangentialError",
    "build_tangential_qp",
    "solve_tangential",
    "verify_tangential_kkt",
]

_SPARSE_DIM = 200  # switch the QP assembly to sparse above this many columns
_LINK_VALS = np.array([[1.0], [-1.0], [1.0]])  # coefficients of u_i, p_r, q_r


class TangentialError(RuntimeError):
    def __init__(self, msg, qp_solution: Optional[QpSolution] = None):
        super().__init__(msg)
        self.qp_solution = qp_solution


@dataclass
class TangentialResult:
    u: np.ndarray
    y: np.ndarray
    z: np.ndarray
    g_r: np.ndarray
    w: np.ndarray  # x + v + u with exact zeros/bounds from the split variables
    p: np.ndarray
    q: np.ndarray
    qp_iterations: int
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
    Returns (QpProblem, reg_idx).
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

    diag = np.concatenate([np.full(n, 1.0 / alpha), np.zeros(2 * nr)])
    # linking row m + r is e_i'u - p_r + q_r with i = reg_idx[r]: entry
    # (link_rows[r], link_cols[k, r]) holds _LINK_VALS[k]
    link_rows = np.arange(m, m + nr)
    link_cols = np.vstack([reg_idx, np.arange(n, d).reshape(2, nr)])
    if d > _SPARSE_DIM:
        H = sp.diags(diag, format="csr")
        J_rows, J_cols = np.nonzero(J)
        Aeq = sp.csr_matrix((np.concatenate([J[J_rows, J_cols], np.repeat(_LINK_VALS, nr)]),
                             (np.concatenate([J_rows, np.tile(link_rows, 3)]),
                              np.concatenate([J_cols, link_cols.ravel()]))), shape=(m + nr, d))
    else:
        H = np.diag(diag)
        Aeq = np.zeros((m + nr, d))
        Aeq[:m, :n] = J
        Aeq[link_rows, link_cols] = _LINK_VALS
    beq = np.concatenate([np.zeros(m), -base[reg_idx]])
    return QpProblem(H=H, q=q_lin, Aeq=Aeq, beq=beq, lower=lo, upper=hi), reg_idx


def _default_start(base, reg_idx, n):
    """u = 0 with the split variables carrying the current point: feasible."""
    w_reg = base[reg_idx]
    return np.concatenate([np.zeros(n), np.maximum(w_reg, 0.0), np.maximum(-w_reg, 0.0)])


def solve_tangential(x, v, g, J, alpha, reg: L1Regularizer, box: BoxSet,
                     warm: Optional[np.ndarray] = None) -> tuple[TangentialResult, np.ndarray]:
    """Solve the tangential subproblem and recover multipliers.

    Returns (result, raw_primal); the raw primal is the warm-start payload
    for the next iteration.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    g = np.asarray(g, dtype=float)
    J = np.asarray(J, dtype=float)
    n = x.shape[0]
    m = J.shape[0]
    base = x + v

    qp, reg_idx = build_tangential_qp(x, v, g, J, alpha, reg, box)
    nr = reg_idx.shape[0]
    start = _default_start(base, reg_idx, n)
    if warm is not None and warm.shape == start.shape:
        # only adopt a previous primal that is still feasible as-is; the
        # generic repair would smear corrections over the split variables
        # and wreck the zero pattern that makes the warm start valuable
        eq_res = float(np.max(np.abs(np.asarray(qp.Aeq @ warm).ravel() - qp.beq), initial=0.0))
        in_box = bool(np.all(warm >= qp.lower - 1e-12) and np.all(warm <= qp.upper + 1e-12))
        if in_box and eq_res <= 1e-9 * (1.0 + float(np.abs(qp.beq).max(initial=0.0))):
            start = warm
    sol = solve_qp(qp, warm_start=start)
    if sol.status != "solved":
        raise TangentialError(f"tangential QP failed with status {sol.status}", sol)

    primal = sol.primal.copy()
    u = primal[:n]
    p = primal[n:n + nr].copy()
    q = primal[n + nr:].copy()
    overlap = np.minimum(p, q)
    if np.any(overlap > 0):
        # degenerate ties can leave both split parts positive; shifting by
        # the overlap preserves p - q and cannot increase the objective
        p -= overlap
        q -= overlap
        primal[n:n + nr] = p
        primal[n + nr:] = q

    # assemble the trial point with exact zeros/bounds, then make u consistent
    w = base + u
    w[reg_idx] = p - q
    # p - q meets the linking row only to the QP's equality tolerance,
    # which can put a split component a hair outside its bound
    w = project_box(w, box)
    snap = 1e-11 * (1.0 + np.abs(base))
    at_lo = np.isfinite(box.lower) & (np.abs(w - box.lower) <= snap)
    at_hi = np.isfinite(box.upper) & (np.abs(w - box.upper) <= snap)
    w[at_lo] = box.lower[at_lo]
    w[at_hi] = box.upper[at_hi]
    u = w - base

    y = sol.eq_duals[:m].copy()
    link_duals = sol.eq_duals[m:]
    z = sol.bound_duals[:n].copy()
    # for split components the box multiplier rides on u's bounds already;
    # recover the subgradient from stationarity of the u-block
    g_r = -(g + (u + v) / alpha + J.T @ y + z)

    report = verify_tangential_kkt(x, v, g, J, alpha, reg, box,
                                   u=u, y=y, z=z, g_r=g_r)
    result = TangentialResult(u=u, y=y, z=z, g_r=g_r, w=w, p=p, q=q,
                              qp_iterations=sol.iterations,
                              kkt_residual=report.overall, kkt_report=report)
    return result, primal


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
