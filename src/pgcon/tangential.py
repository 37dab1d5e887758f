"""Tangential step: minimize a strongly convex model of the objective in
the nullspace of the constraint Jacobian, keeping the point in the box.

With c = x - alpha*g and the trial point w = x + v + u, the subproblem is

    min_w (1/2 alpha)||w - c||^2 + sum_i lam_i |w_i|
    s.t.  J (w - x - v) = 0,  lower <= w <= upper.

For fixed multipliers y of the nullspace rows it splits into 1-D
problems: with t = c - alpha J'y and k = clip(t, -alpha lam, alpha lam),
w_i(y) = clip(t_i - k_i, lower_i, upper_i), so zeros and bounds are
exact; ``_piece`` codes each component free (_POS, _NEG: the codes below
_ZERO), zeroed or at a bound.  From the previous iteration's y, the dual
solve finds y with F(y) = J u(y) = 0 by semismooth Newton (Li, Sun &
Toh, SIAM J. Optim. 2018): each step solves (alpha J_F J_F' + mu I) d =
F over the free components F (``_cholesky_solve``).  The step along d
starts at 1, except when no component is free: M is then mu I and d ~
F/mu far too long, so it starts at the maximizer of the dual function
along d, found by walking the kinks of its piecewise-linear derivative
(``_ray_maximizer``).  An Armijo backtrack guards either start.
The box multipliers z and the regularizer subgradient g_r follow from
stationarity, with z = 0 off the bounds and g_r the point of lam * d|w|
nearest to the residual (``geometry.nearest_subgradient``).  The answer
is certified by ``geometry.kkt_parts``, the solver's one KKT
certificate, with the step's gradient g + (u + v)/alpha and residual J u
at w, against ``kkt_bar``.

When the Newton budget runs out, the line search or a Cholesky
factorization fails, or the answer misses the tangential KKT bar, the
solve raises TangentialError naming that cause.

The split QP (build_tangential_qp) writes each regularized component as
w_i = p_i - q_i with p_i, q_i >= 0, which turns the subproblem into a
plain QP over (u, p, q) with equality rows.  The solver never runs it;
the tests enumerate it on small subproblems as a second check of the
dual solve, whose own check is the KKT certificate above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import KktParts, _norm, kkt_parts, nearest_subgradient, project_box
from .problem import BoxSet, L1Regularizer
# unused here, but perfbench/layers.py rebinds tangential.solve_qp and build_tangential_qp
from .qp import solve_qp  # noqa: F401

__all__ = [
    "TangentialResult",
    "TangentialError",
    "build_tangential_qp",
    "kkt_bar",
    "solve_tangential",
]

_LINK_VALS = np.array([[1.0], [-1.0], [1.0]])  # coefficients of u_i, p_r, q_r
_NEWTON_BUDGET = 50  # Newton steps plus refinement solves per dual solve
_MAX_BACKTRACKS = 60
_ARMIJO = 1e-4
_KKT_BAR = 1e-8  # absolute part of the tangential KKT bar (see kkt_bar)
_EPS = float(np.finfo(float).eps)
# where a component of w(y) sits, in this order: free (by the sign of w),
# zeroed, at a bound; so free = code < _ZERO and at a bound = code > _ZERO
_POS, _NEG, _ZERO, _LO, _HI = 0, 1, 2, 3, 4


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
    evaluations: int  # _piece evaluations of the dual solve
    kkt: KktParts  # the certificate of (w, y, z, g_r), feasibility = |J u|


def build_tangential_qp(x, v, g, J, alpha, reg: L1Regularizer, box: BoxSet):
    """Assemble the split QP over (u, p, q).

    Only components with a positive l1 weight get split variables; the
    linking row (x+v+u)_i = p_i - q_i ties each pair to the step.
    Returns ((H, q, Aeq, beq, lower, upper), reg_idx) of the QP

        min 0.5 s'Hs + q's  s.t.  Aeq s = beq,  lower <= s <= upper,

    which the tests enumerate on small subproblems.
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
    return (H, q_lin, Aeq, beq, lo, hi), reg_idx


def _piece_constants(base, alpha_lam, lower, upper):
    """What ``_piece`` reads that does not depend on y, once per dual solve."""
    neg_al = 0.0 - alpha_lam  # +0.0, not -0.0, where lam_i = 0
    weighted = alpha_lam > 0
    return (base + 0.0, neg_al, alpha_lam, np.where(weighted, neg_al, -np.inf),
            np.where(weighted, alpha_lam, -np.inf), -base, lower, upper,
            lower - base, upper - base)


def _piece(tau, consts):
    """u(y) in step coordinates and the code of each component, for tau
    = -(alpha g + v) - alpha J'y and ``consts`` from ``_piece_constants``.

    With t = x + v + tau and k = clip(t, -alpha lam, alpha lam), a free
    component gets u = tau - k, not t - k - (x + v), so J u carries no
    cancellation; a zeroed one gets -base exactly and a clipped one its
    bound less base, through the masks.  t < cut_neg (-alpha lam) is _NEG
    and t <= cut_zero (alpha lam) _NEG or zeroed; both cuts are -inf where
    lam_i = 0, so such a component stays _POS (t = -inf ends at the lower
    bound).  base + 0.0 keeps t off -0.0, so k is +0.0 exactly where
    lam_i = 0 however np.maximum breaks a tie of zeros.
    """
    base, neg_al, alpha_lam, cut_neg, cut_zero, neg_base, lower, upper, lo_off, hi_off = consts
    t = base + tau
    k = np.minimum(np.maximum(t, neg_al), alpha_lam)
    s, u = t - k, tau - k
    low = t <= cut_zero
    code = np.add(low, low, dtype=np.int8)
    code -= t < cut_neg
    np.putmask(u, code == _ZERO, neg_base)
    # the lower bound wins where lower = upper
    for at, c, off in ((s >= upper, _HI, hi_off), (s <= lower, _LO, lo_off)):
        np.putmask(code, at, c)
        np.putmask(u, at, off)
    return u, code


def _ray_maximizer(t, Jd, alpha, alpha_lam, lower, upper, slope):
    """The first s > 0 where theta(y + s d) stops rising, or inf if it
    never does; t is x + v + tau at y and slope = F'd > 0.

    Along the ray t(s) = t - s alpha J'd, component i is free while t_i(s)
    lies in (max(alpha lam_i, lower_i + alpha lam_i), upper_i + alpha lam_i)
    or in (lower_i - alpha lam_i, min(-alpha lam_i, upper_i - alpha lam_i)),
    and there it adds alpha (J'd)_i^2 to -theta''.  So theta' falls
    piecewise linearly from slope; walk the interval ends in order until
    it reaches 0.  Ends at s = inf are never reached and are left out.
    """
    on = Jd != 0
    a = np.tile(alpha * Jd[on], 2)
    t = np.tile(t[on], 2)
    al, lo, hi = alpha_lam[on], lower[on], upper[on]
    t_lo = np.concatenate([np.maximum(al, lo + al), lo - al])
    t_hi = np.concatenate([hi + al, np.minimum(-al, hi - al)])
    with np.errstate(over="ignore"):  # an end beyond the float range is never reached
        s_lo, s_hi = (t - t_lo) / a, (t - t_hi) / a
    enter, leave = np.maximum(np.minimum(s_lo, s_hi), 0.0), np.maximum(s_lo, s_hi)
    live = (t_lo < t_hi) & (enter < np.inf) & (leave > 0.0)
    gone = live & (leave < np.inf)
    pos = np.concatenate([enter[live], leave[gone]])
    if pos.size == 0 or not slope > 0.0:
        return math.inf
    order = np.argsort(pos, kind="stable")
    pos = pos[order]
    sign = np.concatenate([np.ones(live.sum()), -np.ones(gone.sum())])[order]
    weight = np.concatenate([a[live], a[gone]])[order] ** 2 / alpha
    # the curvature on [pos[k], pos[k + 1]], exactly 0 where no interval is open
    kappa = np.where(np.cumsum(sign) > 0.0, np.maximum(np.cumsum(sign * weight), 0.0), 0.0)
    # theta' at each interval end
    rate = slope - np.concatenate([[0.0], np.cumsum(kappa[:-1] * np.diff(pos))])
    past = (rate <= 0.0).nonzero()[0]
    k = past[0] - 1 if past.size else pos.size - 1
    if kappa[k] <= 0.0:
        return math.inf
    return float(pos[k] + rate[k] / kappa[k])


def _cholesky(G, alpha=1.0, mu=0.0):
    """Rows of L, M = L L' for the symmetric positive definite M = alpha G
    + mu I, up to the diagonal, and the reciprocals of L's diagonal, in
    Python floats.

    Each entry a_ij of M's lower triangle is alpha g_ij, plus mu on the
    diagonal: the operations of numpy's ``alpha * G`` and diagonal shift.
    From those, by LAPACK's dpotf2 formulas: L_jj is the root of a_jj less
    the sum of L_jk^2, and L_ij is a_ij less the sum of L_ik L_jk, times
    1 / L_jj.  Raises ``np.linalg.LinAlgError`` when a pivot is not
    positive, as a NaN in G makes it.
    """
    L, inv = [], []
    for i, g in enumerate(G.tolist()):
        row = []
        for j in range(i):
            s, row_j = 0.0, L[j]
            for k in range(j):
                s += row[k] * row_j[k]
            row.append((alpha * g[j] - s) * inv[j])
        s = 0.0
        for l_ik in row:
            s += l_ik * l_ik
        pivot = alpha * g[i] + mu - s
        if not pivot > 0.0:
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        row.append(math.sqrt(pivot))
        inv.append(1.0 / row[i])
        L.append(row)
    return L, inv


def _cholesky_solve(G, b, alpha=1.0, mu=0.0):
    """Solve M d = b for the symmetric positive definite M = alpha G + mu I
    by Cholesky, M = L L'.

    The factor (``_cholesky``) and both triangular substitutions run in
    Python floats, which beat numpy calls at the m <= 5 of the shipped
    problems.  The factor is numpy's bit for bit for m <= 2; for m >= 3
    OpenBLAS fuses multiply-adds and the bits differ, so d depends on no
    BLAS kernel.  Like OpenBLAS's trsm the substitutions multiply by the
    reciprocal of L's diagonal, so for m = 1 d equals LAPACK's
    dpotrf/dpotrs answer bit for bit.  Raises ``np.linalg.LinAlgError``
    when the factorization fails or d is not finite, as a NaN or inf in b
    leaves it.
    """
    L, inv = _cholesky(G, alpha, mu)
    d = b.tolist()
    m = len(d)
    for i in range(m):  # L z = b
        di, row = d[i], L[i]
        for k in range(i):
            di -= row[k] * d[k]
        d[i] = di * inv[i]
    for i in range(m - 1, -1, -1):  # L' d = z
        di = d[i]
        for k in range(m - 1, i, -1):
            di -= L[k][i] * d[k]
        d[i] = di * inv[i]
    if not all(map(math.isfinite, d)):
        raise np.linalg.LinAlgError("non-finite solution")
    return np.array(d)


def _converged(F, Ju_abs) -> bool:
    """The dual solve's stop test |F_i| <= 4 eps (1 + (|J| |u|)_i) for
    every row i, in Python floats: the m rows are too few for numpy.
    -bar <= f <= bar is |f| <= bar, a NaN in either failing both."""
    for f, b in zip(F.tolist(), Ju_abs.tolist()):
        bar = 4.0 * _EPS * (1.0 + b)
        if not -bar <= f <= bar:
            return False
    return True


def _dual_solve(base, tau0, J, alpha, lam, lower, upper, y):
    """Semismooth Newton on F(y) = J u(y) = 0 from y.

    The dual function theta(y) = (1/2 alpha)||u - tau0||^2 + lam'|x+v+u|
    + y'J u is concave with gradient F.  Each Newton direction d is tried
    from step 1, or from the exact maximizer along d when no component is
    free, and halved until theta passes the Armijo test, whose theta is the
    next test's theta0.  The maximizer passes at once unless kinks before
    it cut theta's curvature sharply (theta rises by s F'd / 2 there on one
    quadratic piece).

    Once a unit step leaves the piece (the codes) unchanged, or cuts the
    residual as the model predicts, the model is exact there and the
    remaining residual is refined in place, u_F -= alpha J_F' d and
    y += d, until |J u| <= 4 eps (1 + |J| |u|) row by row.  Returns (y, u,
    code, iterations, evaluations), with evaluations the ``_piece`` calls
    made; raises TangentialError when the budget runs out, the line
    search fails or a Cholesky factorization fails.
    """
    m = J.shape[0]
    alpha_lam = alpha * lam
    consts = _piece_constants(base, alpha_lam, lower, upper)
    abs_J = np.abs(J)
    evaluations = 0

    def evaluate(y):
        nonlocal evaluations
        evaluations += 1
        u, code = _piece(tau0 - alpha * (J.T @ y), consts)
        return u, code, J @ u

    def theta(y, u, F):
        r = u - tau0
        return float(r @ r) / (2.0 * alpha) + float(lam @ np.abs(base + u)) + float(y @ F)

    u, code, F = evaluate(y)
    theta_y = None  # theta at y, once the line search has formed it
    iterations = 0
    refine = False
    while not _converged(F, abs_J @ np.abs(u)):
        if iterations == _NEWTON_BUDGET:
            raise TangentialError(f"dual solve ran out of its Newton budget "
                                  f"({_NEWTON_BUDGET} steps), |J u| = {_norm(F):.3g}")
        if iterations == 0:
            # the largest squared row norm of J, in alpha units; a solve
            # that starts at its answer takes no step and never needs it
            scale = alpha * float(np.maximum.reduce(np.einsum("ij,ij->i", J, J), initial=0.0))
        iterations += 1
        free = (code < _ZERO).nonzero()[0]
        J_F = J[:, free]
        F_norm = _norm(F)
        # regularized as in SSNAL, since rows of J with no free entry make
        # J_F J_F' singular; the floor keeps dependent rows of J from
        # failing the factorization by roundoff
        mu = max(1e-8 * min(F_norm, 1.0), 1e-14 * m) * scale
        try:
            d = _cholesky_solve(J_F @ J_F.T, F, alpha, mu)
        except np.linalg.LinAlgError:
            raise TangentialError("dual Newton system failed its Cholesky "
                                  "factorization") from None
        if refine:
            u_ref = u.copy()
            u_ref[free] -= alpha * (J_F.T @ d)
            F_ref = J @ u_ref
            if _norm(F_ref) < 0.5 * F_norm:
                y, u, F, theta_y = y + d, u_ref, F_ref, None
                continue
            refine = False  # no longer contracting: back to full Newton steps
        theta0 = theta(y, u, F) if theta_y is None else theta_y
        slope = float(F @ d)
        slack = 8.0 * _EPS * (1.0 + abs(theta0))
        step = 1.0
        if free.size == 0:
            # M = mu I makes d ~ F/mu far too long: start at the ray's maximizer
            t = base + (tau0 - alpha * (J.T @ y))
            step = min(step, _ray_maximizer(t, J.T @ d, alpha, alpha_lam, lower, upper,
                                            slope))
        for _ in range(_MAX_BACKTRACKS):
            y_try = y + step * d
            u_try, code_try, F_try = evaluate(y_try)
            theta_try = theta(y_try, u_try, F_try)
            if theta_try >= theta0 + _ARMIJO * step * slope - slack:
                break
            step *= 0.5
        else:
            raise TangentialError(f"dual line search failed after {_MAX_BACKTRACKS} "
                                  "backtracks")
        # a unit step that kept the piece, or that met the model's
        # prediction while a component sat exactly on a kink, ends on the
        # final piece
        refine = step == 1.0 and (not np.logical_or.reduce(code_try != code)
                                  or _norm(F_try) <= 1e-6 * F_norm)
        y, u, code, F, theta_y = y_try, u_try, code_try, F_try, theta_try
    return y, u, code, iterations, evaluations


def kkt_bar(x, w, alpha) -> float:
    """The tangential KKT residual a dual answer must meet.

    Stationarity holds (u + v)/alpha, and u + v = w - x is rounded at about
    eps max(|x|, |w|), so below alpha ~ 1e-9 a correct answer's rounding
    alone would exceed a bare 1e-8.
    """
    scale = max(np.maximum.reduce(np.abs(x), initial=0.0),
                np.maximum.reduce(np.abs(w), initial=0.0))
    return _KKT_BAR + 4.0 * _EPS * float(scale) / alpha


def solve_tangential(x, v, g, J, alpha, reg: L1Regularizer, box: BoxSet,
                     y0: Optional[np.ndarray] = None) -> TangentialResult:
    """Solve the tangential subproblem and recover multipliers.

    The dual solve starts from ``y0``, the previous call's y, or from zero.
    """
    base = x + v
    lam = reg.weights

    y0 = np.zeros(J.shape[0]) if y0 is None else y0
    y, u, code, iterations, evaluations = _dual_solve(
        base, -(alpha * g + v), J, alpha, lam, box.lower, box.upper, y0)

    # a free component can round a hair past its bound
    w = project_box(base + u, box)
    np.putmask(w, code == _LO, box.lower)
    np.putmask(w, code == _HI, box.upper)
    u = w - base
    # stationarity: g + (u + v)/alpha + J'y + g_r + z = 0 with z = 0 off
    # the bounds; at a bound g_r takes the value lam * d|w| allows nearest
    # to the residual and z the rest
    grad = g + (u + v) / alpha
    resid = -(grad + J.T @ y)
    z = np.zeros(w.shape)
    at_bound = (code > _ZERO).nonzero()[0]
    if at_bound.size:
        r = resid[at_bound]
        z[at_bound] = r - nearest_subgradient(w[at_bound], r, lam[at_bound], 0.0)
    g_r = resid - z

    kkt = kkt_parts(grad, J @ u, J, box, lam, w, y, z, g_r)
    bar = kkt_bar(x, w, alpha)
    if not kkt.chi <= bar:
        raise TangentialError(f"dual answer misses the tangential KKT bar: residual "
                              f"{kkt.chi:.3g} > {bar:.3g}")
    return TangentialResult(u=u, y=y, z=z, g_r=g_r, w=w, iterations=iterations,
                            evaluations=evaluations, kkt=kkt)
