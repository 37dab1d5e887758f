"""Box projections, tangent-cone operations, active sets, and the KKT
certificate of the l1-regularized problem over a box.

Everything here is a pure function of its arguments.  For a box the
tangent cone at x is itself a box-shaped cone, so projections onto it are
componentwise clamps; no iterative solve is needed.  ``kkt_parts`` is the
one KKT certificate: the driver's stop test, ledger and ``kkt_residual``,
the tangential step's check against its bar, and the corpus oracles all
call it, and it measures stationarity with the l1 subgradient projected
onto lam * d|x| at the point it certifies.  It runs on every iteration,
so its reductions call numpy's ufuncs directly rather than through the
``ndarray`` methods' Python wrappers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import BoxSet

__all__ = [
    "ActiveSet",
    "project_box",
    "project_tangent_cone",
    "compute_delta",
    "active_set",
    "KktParts",
    "kkt_parts",
    "nearest_subgradient",
]


def _norm(v) -> float:
    """np.linalg.norm of a 1-D contiguous float vector, bit for bit,
    without its dispatch: sqrt(v'v)."""
    return math.sqrt(v.dot(v))


@dataclass(frozen=True)
class ActiveSet:
    """Indices at the lower/upper bound; ties (fixed variables) go to lower."""

    at_lower: tuple
    at_upper: tuple


def _active_masks(x, box: BoxSet):
    tol = box.active_tol
    at_lo = box.lower_finite & (x - box.lower <= tol)
    at_hi = box.upper_finite & (box.upper - x <= tol)
    return at_lo, at_hi


def project_box(x, box: BoxSet) -> np.ndarray:
    """Componentwise clamp of x into the box (Euclidean projection)."""
    return np.minimum(np.maximum(x, box.lower), box.upper)


def project_tangent_cone(d, x, box: BoxSet) -> np.ndarray:
    """Euclidean projection of d onto the tangent cone of the box at x.

    At a lower-active component the cone admits only nonnegative
    directions (nonpositive at upper; zero when the variable is fixed),
    elsewhere the cone is all of R.
    """
    at_lo, at_hi = _active_masks(x, box)
    out = np.maximum(d, 0.0, out=d.copy(), where=at_lo)
    return np.minimum(out, 0.0, out=out, where=at_hi)


def compute_delta(x, grad, box: BoxSet):
    """Stationarity measure of the squared-violation function over the box.

    grad = J'c is the gradient of 0.5*||c(x)||^2.  Returns (delta, dir)
    where dir is the projection of -grad onto the tangent cone at x and
    delta = ||dir||_2.  delta = 0 at any feasible x and, more generally,
    exactly when x is first-order stationary for minimizing 0.5*||c(x)||^2
    over the box.
    """
    direction = project_tangent_cone(-grad, x, box)
    return _norm(direction), direction


def active_set(x, box: BoxSet) -> ActiveSet:
    """Classify components at their lower/upper bound at x, within
    ``box.active_tol``."""
    at_lo, at_hi = _active_masks(x, box)
    at_hi = at_hi & ~at_lo  # fixed variables count as lower
    return ActiveSet(
        at_lower=tuple(at_lo.nonzero()[0].tolist()),
        at_upper=tuple(at_hi.nonzero()[0].tolist()),
    )


def nearest_subgradient(x, v, lam, zero_tol):
    """The point of lam * d|x| nearest to v: lam_i sign(x_i) where |x_i| >
    zero_tol, v_i clamped to [-lam_i, lam_i] elsewhere.  There x_i is
    nonzero and lam_i >= 0, so copysign gives the bits of lam_i sign(x_i)."""
    return np.where(np.abs(x) > zero_tol, np.copysign(lam, x),
                    np.minimum(np.maximum(v, -lam), lam))


@dataclass(frozen=True)
class KktParts:
    """The parts of a KKT certificate; ``chi`` is the largest."""

    stationarity: float
    feasibility: float
    complementarity: float
    box_violation: float
    subgradient_margin: float

    @property
    def chi(self) -> float:
        return max(self.stationarity, self.feasibility, self.complementarity,
                   self.box_violation, self.subgradient_margin)


def kkt_parts(grad, resid, J, box: BoxSet, lam, point, y, z, g_r) -> KktParts:
    """Certify ``point`` for min f + sum lam_i |x_i| s.t. c = 0 in the box.

    ``grad`` is the smooth gradient and ``resid`` the constraint residual
    at ``point``.  Stationarity is ||grad + P(g_r) + J'y + z|| with P the
    projection onto lam * d|point| (``nearest_subgradient``, zero
    tolerance 1e-12 (1 + max|point|)), and ``subgradient_margin`` is
    max|g_r - P(g_r)|, so a g_r outside lam * d|point| shows in both.
    Complementarity is ||m|| with m_i = min(slack_i, |z_i|), slack_i the
    distance to the bound z_i points at (z_i < 0 at lower, z_i > 0 at
    upper), and m_i = 0 where z_i = 0 or the variable is fixed.  A z_i
    pointing at an infinite bound gives m_i = |z_i|, a sign violation; on
    the nonnegative orthant m_i = |min(x_i, -z_i)|.
    """
    zero_tol = 1e-12 * (1.0 + float(np.maximum.reduce(np.abs(point), initial=0.0)))
    g_r_proj = nearest_subgradient(point, g_r, lam, zero_tol)
    slack = np.where(z < 0, point - box.lower, box.upper - point)
    m = np.minimum(slack, np.abs(z))
    m[(z == 0.0) | box.fixed] = 0.0
    return KktParts(
        stationarity=_norm(grad + g_r_proj + J.T @ y + z),
        feasibility=_norm(resid),
        complementarity=_norm(m),
        box_violation=float(np.maximum.reduce(
            np.maximum(box.lower - point, point - box.upper), initial=0.0)),
        subgradient_margin=float(np.maximum.reduce(np.abs(g_r - g_r_proj), initial=0.0)),
    )
