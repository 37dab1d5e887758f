"""Box projections, tangent-cone operations, active sets, and the KKT
certificate of the l1-regularized problem over a box.

Everything here is a pure function of its arguments.  For a box the
tangent cone at x is itself a box-shaped cone, so projections onto it are
componentwise clamps; no iterative solve is needed.  ``kkt_parts`` is the
one KKT certificate: the driver's stop test, ledger and ``kkt_residual``,
the tangential step's check against its bar, and the corpus oracles all
call it, and it measures stationarity with the l1 subgradient projected
onto lam * d|x| at the point it certifies.  It runs twice on every
iteration, at the trial point and at the iterate, so what it reads of the
point and the box alone is a ``PointData``, formed once per point, and
J'y comes from the caller, who forms it once.  Its reductions call
numpy's ufuncs directly rather than through the ``ndarray`` methods'
Python wrappers, and its selections write through ufuncs' ``where=`` and
``out=`` rather than ``np.where`` and boolean stores.

A side of the box with no finite bound (``BoxSet.has_lower``,
``has_upper``) costs nothing: ``project_box``, ``active_masks``,
``project_tangent_cone``, ``PointData``'s gaps and box violation and the
certificate's complementarity skip it, with the bits of the two-sided
forms (max(x, -inf) is x, and at a finite x a gap to an infinite bound
is +inf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import BoxSet

__all__ = [
    "ActiveSet",
    "active_masks",
    "project_box",
    "project_tangent_cone",
    "compute_delta",
    "active_set",
    "KktParts",
    "PointData",
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


def active_masks(x, box: BoxSet):
    """(at_lower, at_upper): the components within ``box.active_tol`` of a
    finite lower / upper bound; a fixed variable is in both.  A side with
    no finite bound gets the box's all-False, read-only finite mask."""
    tol = box.active_tol
    at_lo = box.lower_finite & (x - box.lower <= tol) if box.has_lower else box.lower_finite
    at_hi = box.upper_finite & (box.upper - x <= tol) if box.has_upper else box.upper_finite
    return at_lo, at_hi


def project_box(x, box: BoxSet) -> np.ndarray:
    """Componentwise clamp of the float array x into the box (Euclidean
    projection).  A side with no finite bound clamps nothing (max(x, -inf)
    is x, bit for bit), so it is skipped; with neither side finite the
    result is x itself."""
    if box.has_lower:
        x = np.maximum(x, box.lower)
    return np.minimum(x, box.upper) if box.has_upper else x


def project_tangent_cone(d, x, box: BoxSet, masks=None) -> np.ndarray:
    """Euclidean projection of d onto the tangent cone of the box at x.

    At a lower-active component the cone admits only nonnegative
    directions (nonpositive at upper; zero when the variable is fixed),
    elsewhere the cone is all of R.  ``masks`` is ``active_masks(x, box)``
    when the caller has it.  A side with no finite bound has no active
    component and is skipped; with neither side finite the result is d
    itself.
    """
    if not (box.has_lower or box.has_upper):
        return d
    at_lo, at_hi = active_masks(x, box) if masks is None else masks
    out = d.copy()
    if box.has_lower:
        np.maximum(out, 0.0, out=out, where=at_lo)
    if box.has_upper:
        np.minimum(out, 0.0, out=out, where=at_hi)
    return out


def compute_delta(x, grad, box: BoxSet, masks=None):
    """Stationarity measure of the squared-violation function over the box.

    grad = J'c is the gradient of 0.5*||c(x)||^2.  Returns delta, the
    2-norm of the projection of -grad onto the tangent cone at x.
    delta = 0 at any feasible x and, more generally, exactly when x is
    first-order stationary for minimizing 0.5*||c(x)||^2 over the box.
    ``masks`` is ``active_masks(x, box)`` when the caller has it.
    """
    return _norm(project_tangent_cone(-grad, x, box, masks))


def active_set(x, box: BoxSet, masks=None) -> ActiveSet:
    """Classify components at their lower/upper bound at x, within
    ``box.active_tol``; ``masks`` is ``active_masks(x, box)`` when the
    caller has it."""
    at_lo, at_hi = active_masks(x, box) if masks is None else masks
    at_hi = at_hi & ~at_lo  # fixed variables count as lower
    return ActiveSet(
        at_lower=tuple(at_lo.nonzero()[0].tolist()),
        at_upper=tuple(at_hi.nonzero()[0].tolist()),
    )


def nearest_subgradient(x, v, lam, nonzero):
    """The point of lam * d|x| nearest to v: lam_i sign(x_i) where
    ``nonzero``, v_i clamped to [-lam_i, lam_i] elsewhere.  ``nonzero`` is
    |x| > tol for some tol >= 0, so there x_i is a nonzero number, and with
    lam_i >= 0 copysign gives the bits of lam_i sign(x_i)."""
    out = np.minimum(np.maximum(v, -lam), lam)
    return np.copysign(lam, x, out=out, where=nonzero)


@dataclass(frozen=True)
class KktParts:
    """The parts of a KKT certificate; ``chi`` is the largest, NaN when one
    is NaN."""

    stationarity: float
    feasibility: float
    complementarity: float
    box_violation: float
    subgradient_margin: float

    @property
    def chi(self) -> float:
        parts = (self.stationarity, self.feasibility, self.complementarity,
                 self.box_violation, self.subgradient_margin)
        # the builtin max keeps a finite first value over a later NaN
        return math.nan if any(map(math.isnan, parts)) else max(parts)


class PointData:
    """What ``kkt_parts`` reads of its point x and the box alone: max|x|,
    where |x| > 1e-12 (1 + max|x|) (the l1 projection's zero tolerance),
    x - lower, upper - x and the box violation.  It holds no l1 weight, so
    one point's data serves a certificate with any weights.

    At a finite x a side with no finite bound has gaps of +inf and adds
    nothing to the violation (max(a, -inf) is a), so its gap is None and
    its term is left out; the violation of a box free on both sides is
    0.0.  An x with an entry that is not finite (max|x| is not) gets the
    two-sided forms, whose NaN the certificate must show.
    """

    __slots__ = ("x", "x_max", "nonzero", "lo_gap", "hi_gap", "box_violation")

    def __init__(self, x, box: BoxSet):
        abs_x = np.abs(x)
        self.x = x
        self.x_max = float(np.maximum.reduce(abs_x, initial=0.0))
        self.nonzero = abs_x > 1e-12 * (1.0 + self.x_max)
        every = not math.isfinite(self.x_max)
        lower, upper = every or box.has_lower, every or box.has_upper
        self.lo_gap = x - box.lower if lower else None
        self.hi_gap = box.upper - x if upper else None
        if lower and upper:
            violation = np.maximum(box.lower - x, x - box.upper)
        elif lower or upper:
            violation = box.lower - x if lower else x - box.upper
        else:
            violation = None
        self.box_violation = (0.0 if violation is None
                              else float(np.maximum.reduce(violation, initial=0.0)))


def kkt_parts(grad, resid, Jty, box: BoxSet, lam, point: PointData, z, g_r) -> KktParts:
    """Certify ``point.x`` for min f + sum lam_i |x_i| s.t. c = 0 in the box.

    ``grad`` is the smooth gradient, ``resid`` the constraint residual and
    ``Jty`` J'y at the point, whose ``PointData`` is ``point``.
    Stationarity is ||grad + P(g_r) + J'y + z|| with P the projection onto
    lam * d|x| (``nearest_subgradient``, zero tolerance 1e-12 (1 +
    max|x|)), and ``subgradient_margin`` is max|g_r - P(g_r)|, so a g_r
    outside lam * d|x| shows in both.  Complementarity is ||m|| with m_i =
    min(slack_i, |z_i|), slack_i the distance to the bound z_i points at
    (z_i < 0 at lower, z_i > 0 at upper), and m_i = 0 where z_i = 0 or the
    variable is fixed.  A z_i pointing at an infinite bound gives m_i =
    |z_i|, a sign violation; on the nonnegative orthant m_i = |min(x_i,
    -z_i)|.
    """
    g_r_proj = nearest_subgradient(point.x, g_r, lam, point.nonzero)
    # |z| is +0.0 where z = 0; a side with no gap has gaps of +inf
    m = np.abs(z)
    if point.lo_gap is not None:
        np.minimum(m, point.lo_gap, out=m, where=z < 0.0)
    if point.hi_gap is not None:
        np.minimum(m, point.hi_gap, out=m, where=z > 0.0)
    if box.has_fixed:
        m[box.fixed] = 0.0
    return KktParts(
        stationarity=_norm(grad + g_r_proj + Jty + z),
        feasibility=_norm(resid),
        complementarity=_norm(m),
        box_violation=point.box_violation,
        subgradient_margin=float(np.maximum.reduce(np.abs(g_r - g_r_proj), initial=0.0)),
    )
