"""Bounded-variable least squares: the trust-region step's QP kernel.

Solves

    min 0.5*||c0 + G x||^2   s.t.  lower <= x <= upper

by a primal active-set method on the bounds (Stark & Parker, "Bounded-
variable least squares", Comput. Stat. 1995; Lawson & Hanson, *Solving
Least Squares Problems*, 1974).  Each working set is solved by rank-
truncated least squares on the free columns of G, and both the ratio
test and the choice of the bound to release break ties by the least
index (Bland-style anti-cycling).  When every release from a degenerate
point bounces straight back, the solve stops with status "cycling".
Bound-active components are exact bound values, which the normal step's
model comparison and the outer solver's active-set tracking rely on.

Dual sign convention:  G'(c0 + G x) + z = 0  with  z_i <= 0 when x_i is
at its lower bound, z_i >= 0 at its upper bound, z_i = 0 otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QpSolution", "solve_qp"]

_FREE, _LO, _HI, _FIX = 0, 1, 2, 3
_TOL = 1e-10


@dataclass
class QpSolution:
    primal: np.ndarray
    bound_duals: np.ndarray
    iterations: int
    status: str  # "solved" | "max_iter" | "cycling"


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


def solve_qp(G, c0, lower, upper) -> QpSolution:
    """Active-set solve from zero clipped into the box; see the module
    docstring.  A solve that takes 50*max(d, 1) iterations ends with
    status "max_iter"."""
    G = np.asarray(G, dtype=float)
    c0 = np.asarray(c0, dtype=float)
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    if (lo > hi).any():
        raise ValueError("box has lower_i > upper_i")
    d = G.shape[1]
    max_iter = 50 * max(d, 1)

    x = np.minimum(np.maximum(np.zeros(d), lo), hi)
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

    iters = 0
    need_solve = True
    xf_target = None
    visited = set()  # working sets seen since the last productive move
    tabu = set()     # indices whose removal led straight back (degeneracy)
    last_removed = -1
    status = "max_iter"

    while iters < max_iter:
        iters += 1
        free = np.flatnonzero(state == _FREE)
        if need_solve:
            xf_target = np.zeros(0)
            if free.size:
                fixed = np.flatnonzero(state != _FREE)
                resid = c0 + (G[:, fixed] @ x[fixed] if fixed.size else 0.0)
                # rank-truncated: near-null directions of G carry no model
                # decrease and would otherwise blow the target up
                xf_target = np.linalg.lstsq(G[:, free], -resid, rcond=1e-9)[0]
        step = np.zeros(d)
        if free.size:
            step[free] = xf_target - x[free]
        step_inf = float(np.abs(step).max(initial=0.0))

        if step_inf <= max(_TOL, 1e-13 * (1.0 + np.abs(x).max(initial=0.0))):
            # at the working-set minimizer: check bound multipliers
            grad = G.T @ (c0 + G @ x)
            z = np.where(state == _FREE, 0.0, -grad)
            viol_lo = (state == _LO) & (z > _TOL)
            viol_hi = (state == _HI) & (z < -_TOL)
            viol = np.flatnonzero(viol_lo | viol_hi)
            key = state.tobytes()
            if viol.size and key in visited:
                # a revisited working set: accept the point when the best
                # sign-feasible multipliers, the clip of -grad to each
                # bound's sign, leave every free-gradient entry and every
                # sign violation within 10*tol
                z2 = np.clip(z, np.where(state == _HI, 0.0, -np.inf),
                             np.where(state == _LO, 0.0, np.inf))
                if float(np.abs(grad + z2).max(initial=0.0)) <= 10 * _TOL:
                    z, viol = z2, np.zeros(0, dtype=int)
            if viol.size == 0:
                return QpSolution(primal=x, bound_duals=z, iterations=iters, status="solved")
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
        if t * step_inf > 1e-13 * (1.0 + np.abs(x).max(initial=0.0)):
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
        else:
            x[free] = xf_target  # full step: now exactly at the subspace minimizer
            need_solve = False

    z = np.where(state == _FREE, 0.0, -(G.T @ (c0 + G @ x)))
    return QpSolution(primal=x, bound_duals=z, iterations=iters, status=status)
