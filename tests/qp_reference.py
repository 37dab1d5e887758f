"""General convex QP over equality constraints and box bounds: the tests'
reference solver for the tangential split QP.

Solves

    min 0.5 x'Hx + q'x   s.t.  Aeq x = beq,  lower <= x <= upper

by a primal active-set method on the bound constraints with direct KKT
solves per working set and least-index (Bland-style) anti-cycling: both
the ratio test (``_ratio_test``) and the choice of the bound to release
break ties by the least index.  When every release from a degenerate
point bounces straight back, the solve stops with status "cycling".
Bound-active components are exact bound values and the returned duals
satisfy the KKT system to factorization accuracy, so the split QP's
active set and multipliers can be compared with the dual solve's.

The KKT matrix is assembled once per solve (``_Kkt``) and each working
set solves a principal submatrix of it by one dense chain
(``_solve_subspace``): a symmetric solve, then QR least squares.  A
working set with no stationary point yields a curvature-free descent
ray instead of a target, and a target exploding along a numerically null
direction is re-solved on the same system with that direction truncated.

Dual sign convention:  H x + q + Aeq' y + z = 0  with  z_i <= 0 when x_i
is at its lower bound, z_i >= 0 at its upper bound, z_i = 0 otherwise.
A scipy sparse H or Aeq is densified once on construction.

``box_complementarity`` splits a bound dual's complementarity residual
into its part at finite bounds and its sign violation at infinite ones;
``verify_kkt`` reports the two apart, and the geometry tests check
``geometry.kkt_parts``' complementarity against their sum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from pgcon.qp import solve_qp as solve_box_lsq

__all__ = ["QpProblem", "QpSolution", "QpKktReport", "solve_qp", "verify_kkt"]

_FREE, _LO, _HI, _FIX = 0, 1, 2, 3


@dataclass
class QpProblem:
    """Strongly convex (or PSD) QP data; see module docstring for the form."""

    H: np.ndarray  # (d, d); sparse is densified
    q: np.ndarray
    Aeq: np.ndarray  # (p, d), p may be 0; sparse is densified
    beq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.beq = np.asarray(self.beq, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        self.H = _dense(self.H)
        self.Aeq = _dense(self.Aeq)
        if np.any(self.lower > self.upper):
            raise ValueError("box has lower_i > upper_i")

    @property
    def dim(self) -> int:
        return self.q.shape[0]

    @property
    def n_eq(self) -> int:
        return self.beq.shape[0]

    def grad(self, x) -> np.ndarray:
        return self.H @ x + self.q

    def objective(self, x) -> float:
        return 0.5 * float(np.dot(x, self.H @ x)) + float(np.dot(self.q, x))


@dataclass
class QpSolution:
    primal: np.ndarray
    eq_duals: np.ndarray
    bound_duals: np.ndarray
    kkt_residual: float
    iterations: int
    status: str  # "solved" | "max_iter" | "cycling" | "infeasible_eq"


@dataclass
class QpKktReport:
    stationarity: float
    eq_feasibility: float
    box_feasibility: float
    complementarity: float
    dual_sign: float

    @property
    def overall(self) -> float:
        return max(self.stationarity, self.eq_feasibility, self.box_feasibility,
                   self.complementarity, self.dual_sign)


def _ratio_test(x, step, lo, hi):
    """(t, blocking): the step length in [0, 1] to the first bound hit
    along step, and that bound's index, or (1, -1) when none is hit first.

    Among step lengths within 1e-15 of the shortest, the least index
    blocks (anti-cycling).  Zero steps (all of the working set) and
    infinite bounds give infinite step lengths.
    """
    ratios = np.divide(np.where(step > 0, hi, lo) - x, step,
                       out=np.full(step.shape[0], np.inf), where=step != 0.0)
    t = ratios.min(initial=np.inf)
    if t < 1.0 - 1e-15:
        j = int(np.argmax((ratios - 1e-15 <= t) & (ratios < 1.0 - 1e-15)))
        return max(ratios[j], 0.0), j
    return 1.0, -1


def _dense(M) -> np.ndarray:
    return M.toarray() if sp.issparse(M) else np.asarray(M, dtype=float)


def _eq_residual(qp: QpProblem, x) -> np.ndarray:
    if qp.n_eq == 0:
        return np.zeros(0)
    return qp.Aeq @ x - qp.beq


def box_complementarity(x, z, lower, upper):
    """Per-component (comp, sign) residuals of bound duals z at x.

    A nonzero z_i pointing at a finite bound (z_i < 0 at lower, z_i > 0 at
    upper) gives comp_i = min(slack_i, |z_i|); one pointing at an infinite
    bound gives sign_i = |z_i|, a pure sign violation.  Fixed variables and
    z_i == 0 give 0 in both, so the two parts never overlap, and comp + sign
    is the m of ``geometry.kkt_parts``' complementarity.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    slack = np.where(z < 0, x - lower, upper - x)  # inf where that bound is infinite
    m = np.minimum(slack, np.abs(z))
    m[(z == 0.0) | (lower == upper)] = 0.0
    comp = np.where(np.isfinite(slack), m, 0.0)
    return comp, m - comp


def verify_kkt(qp: QpProblem, sol: QpSolution) -> QpKktReport:
    """Residual breakdown for a candidate primal/dual pair.

    Complementarity per component is min(active-slack, |dual|); a dual
    whose sign points at an infinite bound is charged to the dual_sign
    residual at magnitude |z_i| (see box_complementarity).
    """
    x, y, z = sol.primal, sol.eq_duals, sol.bound_duals
    grad = qp.grad(x)
    if qp.n_eq:
        grad = grad + qp.Aeq.T @ y
    stat = float(np.linalg.norm(grad + z))
    eqf = float(np.linalg.norm(_eq_residual(qp, x)))
    boxf = float(max(np.max(np.maximum(qp.lower - x, 0.0), initial=0.0),
                     np.max(np.maximum(x - qp.upper, 0.0), initial=0.0)))
    comp, sign = box_complementarity(x, z, qp.lower, qp.upper)
    return QpKktReport(
        stationarity=stat,
        eq_feasibility=eqf,
        box_feasibility=boxf,
        complementarity=float(np.linalg.norm(comp)),
        dual_sign=float(np.max(sign, initial=0.0)),
    )


# --- feasible-start construction ---------------------------------------------


def _repair_rounds(qp: QpProblem, x, tol_eq, pinned, rounds):
    for _ in range(rounds):
        r = _eq_residual(qp, x)
        if r.size == 0 or np.linalg.norm(r, ord=np.inf) <= tol_eq:
            return x, True
        free = np.flatnonzero(~pinned)
        if free.size == 0:
            break
        dx = np.linalg.lstsq(qp.Aeq[:, free], -r, rcond=None)[0]
        trial = x.copy()
        trial[free] += dx
        clipped = (trial < qp.lower) | (trial > qp.upper)
        x = np.minimum(np.maximum(trial, qp.lower), qp.upper)
        if not np.any(clipped):
            # lstsq left the smallest possible residual on this subspace
            r = _eq_residual(qp, x)
            return x, bool(np.linalg.norm(r, ord=np.inf) <= tol_eq)
        pinned |= clipped
    r = _eq_residual(qp, x)
    return x, bool(np.linalg.norm(r, ord=np.inf) <= tol_eq)


def _equality_repair(qp: QpProblem, x, tol_eq, rounds=40):
    """Restore equality feasibility while staying in the box.

    Variables sitting exactly on a bound are held there first, so machine
    noise never smears onto an exact active set; if the equality cannot be
    met that way, a second pass may move them.  Within a pass, a variable
    whose correction leaves the box is pinned for the remaining rounds, so
    each round either converges or shrinks the correction space.
    """
    x = np.minimum(np.maximum(x, qp.lower), qp.upper)
    d = qp.dim
    rounds = min(rounds, d + 2)
    at_bound = (x == qp.lower) | (x == qp.upper)
    if np.any(at_bound) and not np.all(at_bound):
        x_try, ok = _repair_rounds(qp, x.copy(), tol_eq, at_bound.copy(), rounds)
        if ok:
            return x_try, True
    return _repair_rounds(qp, x, tol_eq, np.zeros(d, dtype=bool), rounds)


def _phase1(qp: QpProblem, x_ref, mu):
    """Elastic feasibility solve: min 0.5||a||^2 + 0.5 mu ||x - x_ref||^2
    s.t. Aeq x + a = beq, x in box.  The elastic start is exactly feasible,
    so the recursive solve cannot re-enter phase 1."""
    d, p = qp.dim, qp.n_eq
    H = np.zeros((d + p, d + p))
    H[:d, :d] = mu * np.eye(d)
    H[d:, d:] = np.eye(p)
    A_ext = np.hstack([qp.Aeq, np.eye(p)])
    lo = np.concatenate([qp.lower, np.full(p, -np.inf)])
    hi = np.concatenate([qp.upper, np.full(p, np.inf)])
    x0 = np.minimum(np.maximum(x_ref, qp.lower), qp.upper)
    start = np.concatenate([x0, qp.beq - qp.Aeq @ x0])
    sub = QpProblem(H=H, q=np.concatenate([-mu * x0, np.zeros(p)]), Aeq=A_ext,
                    beq=qp.beq, lower=lo, upper=hi)
    sol = solve_qp(sub, tol=1e-12, warm_start=start)
    return sol.primal[:d], float(np.linalg.norm(sol.primal[d:], ord=np.inf))


def _feasible_start(qp: QpProblem, warm_start, tol_eq):
    x = np.zeros(qp.dim) if warm_start is None else np.asarray(warm_start, dtype=float).copy()
    x, ok = _equality_repair(qp, x, tol_eq)
    if ok:
        return x, True
    beq_scale = float(np.abs(qp.beq).max(initial=0.0))
    for mu in (1e-4, 1e-8):
        x_p1, elastic = _phase1(qp, x, mu)
        x, ok = _equality_repair(qp, x_p1, tol_eq)
        if ok:
            return x, True
        if elastic > 1e-4 * (1.0 + beq_scale):
            break  # the elastic gap is genuine, not a mu artifact
    return x, False


# --- working-set subspace solves ----------------------------------------------


class _Kkt:
    """K = [[H, Aeq'], [Aeq, 0]] and b = [-q; beq] of one QP, assembled
    once per solve."""

    def __init__(self, qp: QpProblem):
        d = qp.dim
        self.K = np.zeros((d + qp.n_eq, d + qp.n_eq))
        self.K[:d, :d], self.K[d:, :d] = qp.H, qp.Aeq
        self.K[:d, d:] = self.K[d:, :d].T
        self.b = np.concatenate([-qp.q, qp.beq])


def _solve_subspace(qp: QpProblem, kkt: _Kkt, free, x):
    """Minimize over the free variables with working-set variables fixed.

    Returns (x_target_free, y, descent_ray).  With keep = the free
    variables and the equality rows, the system sliced from ``kkt``

        K[keep, keep] [x_f; y] = b[keep] - K[keep, fixed] x_fixed

    is solved by the first method whose residual passes: a symmetric
    solve, then QR least squares, which also covers the consistent
    singular systems of PSD Hessian blocks and rank-deficient equality
    rows.  If least squares still leaves a residual, the working set has
    no stationary point and a curvature-free feasible descent ray is
    returned instead of a target.  Otherwise a solution beyond
    1e7*(1 + ||x||inf + ||q||inf) is near-null-space noise from
    rank-deficient data and is re-solved with singular values below 1e-9
    (relative) truncated.
    """
    p = qp.n_eq
    nf = free.shape[0]
    mask = np.zeros(qp.dim, dtype=bool)
    mask[free] = True
    fixed = np.flatnonzero(~mask)
    if nf == 0 and p == 0:
        return np.zeros(0), np.zeros(0), None

    if nf == 0:
        y = np.linalg.lstsq(qp.Aeq.T, -qp.grad(x), rcond=None)[0]
        return np.zeros(0), y, None

    keep = np.concatenate([free, np.arange(qp.dim, qp.dim + p)])
    K = kkt.K[np.ix_(keep, keep)]
    rhs = kkt.b[keep]
    if fixed.size:
        # free and equality rows apart: a stacked dense matvec sums in another order
        K_w = kkt.K[np.ix_(keep, fixed)]
        rhs[:nf] -= K_w[:nf] @ x[fixed]
        rhs[nf:] -= K_w[nf:] @ x[fixed]
    rhs_scale = 1.0 + np.linalg.norm(rhs, ord=np.inf)

    sol = None
    try:
        with warnings.catch_warnings():
            # near-singular systems are caught by the residual check below
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            trial = scipy.linalg.solve(K, rhs, assume_a="sym")
        if (np.all(np.isfinite(trial))
                and np.linalg.norm(K @ trial - rhs, ord=np.inf) <= 1e-8 * rhs_scale):
            sol = trial
    except (scipy.linalg.LinAlgError, ValueError):
        pass

    if sol is None:
        # QR-based least squares: minimum-norm on the (consistent) singular
        # systems that arise from PSD Hessian blocks, and immune to SVD
        # non-convergence
        sol = scipy.linalg.lstsq(K, rhs, lapack_driver="gelsy")[0]
        if np.linalg.norm(K @ sol - rhs, ord=np.inf) > 1e-7 * rhs_scale:
            # no stationary point on this working set: the objective descends
            # linearly along a curvature-free equality-feasible ray.  Hand the
            # caller that ray so the ratio test can run to a blocking bound.
            N = scipy.linalg.null_space(K[:, :nf])
            if N.size:
                g_free = qp.grad(x)[free]
                direction = -N @ (N.T @ g_free)
                dn = float(np.max(np.abs(direction), initial=0.0))
                if dn > 1e-12 * (1.0 + np.max(np.abs(g_free), initial=0.0)):
                    return None, np.zeros(p), direction / dn

    # explosion guard: a solution far beyond the problem's own scale is
    # noise along a numerically null direction of rank-deficient data
    limit = 1e7 * (1.0 + float(np.max(np.abs(x), initial=0.0))
                   + float(np.max(np.abs(qp.q), initial=0.0)))
    if not float(np.max(np.abs(sol))) <= limit:
        sol = scipy.linalg.lstsq(K, rhs, cond=1e-9, lapack_driver="gelsy")[0]
    return sol[:nf], sol[nf:], None


def _refine_duals(qp: QpProblem, x, state):
    """Sign-feasible multiplier recovery at a candidate optimum.

    When equality rows are redundant the multipliers are non-unique and
    the minimum-norm y from a rank-deficient KKT solve can carry the wrong
    sign pattern onto the bound duals, which looks like a violation and
    can cycle the working set.  This picks the multipliers minimizing the
    stationarity residual subject to the correct dual signs, a small
    bounded least-squares problem handled by the kernel ``pgcon.qp``.
    """
    d, p = qp.dim, qp.n_eq
    wset = np.flatnonzero(state != _FREE)
    grad0 = qp.grad(x)  # H x + q only
    At = qp.Aeq.T if p else np.zeros((d, 0))
    E = np.zeros((d, wset.size))
    E[wset, np.arange(wset.size)] = 1.0
    G = np.hstack([At, E])
    lo = np.concatenate([np.full(p, -np.inf),
                         np.where(state[wset] == _HI, 0.0, -np.inf)])
    hi = np.concatenate([np.full(p, np.inf),
                         np.where(state[wset] == _LO, 0.0, np.inf)])
    # fixed variables keep a free multiplier
    fix = state[wset] == _FIX
    lo[p:][fix] = -np.inf
    hi[p:][fix] = np.inf
    refined = solve_box_lsq(G, grad0, lo, hi)
    y = refined.primal[:p]
    z = np.zeros(d)
    z[wset] = refined.primal[p:]
    return y, z


def solve_qp(qp: QpProblem, tol: float = 1e-10,
             warm_start: Optional[np.ndarray] = None) -> QpSolution:
    """Primal active-set solve; see module docstring for conventions.

    warm_start is a primal hint: it is clipped to the box and repaired to
    equality feasibility, and its active bounds seed the working set.  A
    solve that takes 50*max(d, 1) iterations ends with status "max_iter".
    """
    d = qp.dim
    p = qp.n_eq
    max_iter = 50 * max(d, 1)
    beq_scale = float(np.abs(qp.beq).max(initial=0.0))
    tol_eq = max(tol, 1e-12 * (1.0 + beq_scale))

    x, ok = _feasible_start(qp, warm_start, tol_eq)
    if not ok:
        z = np.zeros(d)
        sol = QpSolution(primal=x, eq_duals=np.zeros(p), bound_duals=z,
                         kkt_residual=np.inf, iterations=0, status="infeasible_eq")
        return sol

    lo, hi = qp.lower, qp.upper
    snap = 1e-11 * (1.0 + np.maximum(np.where(np.isfinite(lo), np.abs(lo), 0.0),
                                     np.where(np.isfinite(hi), np.abs(hi), 0.0)))
    state = np.full(d, _FREE, dtype=np.int8)
    state[(lo == hi)] = _FIX
    at_lo = (state == _FREE) & np.isfinite(lo) & (x - lo <= snap)
    state[at_lo] = _LO
    at_hi = (state == _FREE) & np.isfinite(hi) & (hi - x <= snap)
    state[at_hi] = _HI
    x[state == _LO] = lo[state == _LO]
    x[state == _HI] = hi[state == _HI]
    x[state == _FIX] = lo[state == _FIX]

    scale = 1.0 + float(np.linalg.norm(qp.q, ord=np.inf))
    kkt = _Kkt(qp)
    y = np.zeros(p)
    iters = 0
    need_solve = True
    xf_target = None
    descent = None
    visited = set()  # working sets seen since the last productive move
    tabu = set()     # indices whose removal led straight back (degeneracy)
    last_removed = -1
    status = "max_iter"

    while iters < max_iter:
        iters += 1
        free = np.flatnonzero(state == _FREE)
        if need_solve:
            xf_target, y, descent = _solve_subspace(qp, kkt, free, x)
        step = np.zeros(d)
        if descent is not None:
            # working set admits no stationary point: ride the descent ray
            step[free] = descent * 1e8 * (1.0 + np.max(np.abs(x), initial=0.0))
        elif free.size:
            step[free] = xf_target - x[free]
        step_inf = float(np.max(np.abs(step), initial=0.0))

        if step_inf <= max(tol, 1e-13 * (1.0 + np.max(np.abs(x), initial=0.0))):
            # at the working-set minimizer: check bound multipliers
            grad = qp.grad(x)
            if p:
                grad = grad + qp.Aeq.T @ y
            z = np.where(state == _FREE, 0.0, -grad)
            z[state == _FIX] = -grad[state == _FIX]
            viol_lo = (state == _LO) & (z > tol * scale)
            viol_hi = (state == _HI) & (z < -tol * scale)
            viol = np.flatnonzero(viol_lo | viol_hi)
            key = state.tobytes()
            if viol.size and key in visited:
                # a revisited working set means the violation may be an
                # artifact of non-unique multipliers (redundant equality
                # rows at a degenerate point): re-derive sign-feasible ones
                y2, z2 = _refine_duals(qp, x, state)
                stat = qp.grad(x) + (qp.Aeq.T @ y2 if p else 0.0) + z2
                # the whole vector: a refit that leaves the working-set rows
                # unbalanced would certify a point that is not stationary
                if float(np.max(np.abs(stat), initial=0.0)) <= 10 * tol * scale:
                    bad_lo = (state == _LO) & (z2 > tol * scale)
                    bad_hi = (state == _HI) & (z2 < -tol * scale)
                    if not np.any(bad_lo | bad_hi):
                        y, z = y2, z2
                        viol = np.zeros(0, dtype=int)
            if viol.size == 0:
                z[state == _FREE] = 0.0
                sol = QpSolution(primal=x, eq_duals=y, bound_duals=z,
                                 kkt_residual=0.0, iterations=iters,
                                 status="solved")
                sol.kkt_residual = verify_kkt(qp, sol).overall
                return sol
            visited.add(key)
            candidates = [i for i in viol if i not in tabu]
            if not candidates:
                # every exchange from this degenerate point bounced straight
                # back; no single-index move makes progress, so stop honestly
                status = "cycling"
                break
            last_removed = candidates[0]
            state[last_removed] = _FREE  # least non-tabu index (anti-cycling)
            need_solve = True
            continue

        t, blocking = _ratio_test(x, step, lo, hi)
        if t * step_inf > 1e-13 * (1.0 + np.max(np.abs(x), initial=0.0)):
            visited.clear()  # real progress: cycle bookkeeping restarts
            tabu.clear()
        elif blocking == last_removed and blocking >= 0:
            # zero-length bounce straight back onto the bound just freed:
            # keep it out of the removal pool until progress is made
            tabu.add(blocking)
        x = x + t * step
        if blocking >= 0:
            if step[blocking] > 0:
                state[blocking] = _HI
                x[blocking] = hi[blocking]
            else:
                state[blocking] = _LO
                x[blocking] = lo[blocking]
            need_solve = True
        elif descent is not None:
            break  # descent ray met no bound: unbounded below on this data
        else:
            x[free] = xf_target  # full step: now exactly at the subspace minimizer
            need_solve = False

    grad = qp.grad(x)
    if p:
        grad = grad + qp.Aeq.T @ y
    z = np.where(state == _FREE, 0.0, -grad)
    sol = QpSolution(primal=x, eq_duals=y, bound_duals=z,
                     kkt_residual=np.inf, iterations=iters, status=status)
    sol.kkt_residual = verify_kkt(qp, sol).overall
    return sol
