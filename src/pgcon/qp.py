"""Box-constrained least squares: the trust-region step's QP kernel.

Solves  min 0.5*||c0 + G x||^2  s.t.  lower <= x <= upper  by projected
Newton (Bertsekas, SIAM J. Control Optim. 1982; More & Toraldo, SIAM J.
Optim. 1991) from zero clipped into the box.  Each iteration holds the
components at a bound whose gradient points outward, takes the
rank-truncated least-squares step on the rest (near-null directions of G
carry no model decrease), and backtracks along its projection onto the
box to an Armijo decrease.  Many bounds change per iteration; active
components are exact bound values.  The solve ends "solved" when the
unheld gradient is at most 1e-10*||G||_F*||r0||, r0 = c0 + G x0 (|G'r|
never exceeds ||G||_F*||r0|| on a decreasing path), or when the path
gives no decrease: the normal step compares the answer with the Cauchy
point, which alone supplies the decrease the method needs.

Dual sign convention:  G'(c0 + G x) + z = 0  with  z_i <= 0 when x_i is
at its lower bound, z_i >= 0 at its upper bound, z_i = 0 otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QpSolution", "solve_qp"]


@dataclass
class QpSolution:
    primal: np.ndarray
    bound_duals: np.ndarray
    iterations: int
    status: str  # "solved" | "max_iter"


def _armijo(G, x, r, direction, lo, hi):
    """The first clip(x + t*direction) over t = 1, 1/2, ... (60 halvings)
    whose model change (G s)'(r + 0.5 G s) is at most 1e-4 times a
    negative r'G s, or None when none is."""
    for i in range(60):
        xt = np.minimum(np.maximum(x + 0.5 ** i * direction, lo), hi)
        Gs = G @ (xt - x)
        slope = float(r @ Gs)
        if slope < 0.0 and float(Gs @ (r + 0.5 * Gs)) <= 1e-4 * slope:
            return xt
    return None


def solve_qp(G, c0, lower, upper) -> QpSolution:
    """Projected-Newton solve over a box with lower <= upper; see the
    module docstring.  A solve that takes 50*max(d, 1) iterations ends
    with status "max_iter"."""
    d = G.shape[1]
    x = np.minimum(np.maximum(np.zeros(d), lower), upper)
    r = c0 + G @ x
    tol = 1e-10 * float(np.linalg.norm(G)) * float(np.linalg.norm(r))
    status = "solved"
    for iters in range(1, 50 * max(d, 1) + 1):
        g = G.T @ r
        held = ((x <= lower) & (g > 0.0)) | ((x >= upper) & (g < 0.0))
        free = (~held).nonzero()[0]
        if float(np.maximum.reduce(np.abs(g[free]), initial=0.0)) <= tol:
            break
        step = np.zeros(d)
        step[free] = np.linalg.lstsq(G.take(free, axis=1), -r, rcond=1e-9)[0]
        xt = _armijo(G, x, r, step, lower, upper)
        if xt is None:
            break  # no descent left at working precision
        x, r = xt, c0 + G @ xt
    else:
        g, status = G.T @ r, "max_iter"
        held = ((x <= lower) & (g > 0.0)) | ((x >= upper) & (g < 0.0))
    return QpSolution(primal=x, bound_duals=np.where(held, -g, 0.0),
                      iterations=iters, status=status)
