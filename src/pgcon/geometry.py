"""Box projections, tangent-cone operations, active sets.

Everything here is a pure function of its arguments.  For a box the
tangent cone at x is itself a box-shaped cone, so projections onto it are
componentwise clamps; no iterative solve is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import BoxSet

__all__ = [
    "ActiveSet",
    "project_box",
    "project_tangent_cone",
    "compute_delta",
    "active_set",
    "box_complementarity",
    "default_active_tol",
]


def default_active_tol(box: BoxSet) -> np.ndarray:
    """Per-component classification tolerance 1e-10 * (1 + |bound|)."""
    lo = np.where(np.isfinite(box.lower), np.abs(box.lower), 0.0)
    hi = np.where(np.isfinite(box.upper), np.abs(box.upper), 0.0)
    return 1e-10 * (1.0 + np.maximum(lo, hi))


@dataclass(frozen=True)
class ActiveSet:
    """Indices at the lower/upper bound; ties (fixed variables) go to lower."""

    at_lower: tuple
    at_upper: tuple


def _active_masks(x, box: BoxSet):
    x = np.asarray(x, dtype=float)
    tol = default_active_tol(box)
    at_lo = np.isfinite(box.lower) & (x - box.lower <= tol)
    at_hi = np.isfinite(box.upper) & (box.upper - x <= tol)
    return at_lo, at_hi


def project_box(x, box: BoxSet) -> np.ndarray:
    """Componentwise clamp of x into the box (Euclidean projection)."""
    return np.minimum(np.maximum(np.asarray(x, dtype=float), box.lower), box.upper)


def project_tangent_cone(d, x, box: BoxSet) -> np.ndarray:
    """Euclidean projection of d onto the tangent cone of the box at x.

    At a lower-active component the cone admits only nonnegative
    directions (nonpositive at upper; zero when the variable is fixed),
    elsewhere the cone is all of R.
    """
    d = np.asarray(d, dtype=float)
    at_lo, at_hi = _active_masks(x, box)
    out = d.copy()
    out[at_lo] = np.maximum(out[at_lo], 0.0)
    out[at_hi] = np.minimum(out[at_hi], 0.0)
    return out


def compute_delta(x, grad, box: BoxSet):
    """Stationarity measure of the squared-violation function over the box.

    grad = J'c is the gradient of 0.5*||c(x)||^2.  Returns (delta, dir)
    where dir is the projection of -grad onto the tangent cone at x and
    delta = ||dir||_2.  delta = 0 at any feasible x and, more generally,
    exactly when x is first-order stationary for minimizing 0.5*||c(x)||^2
    over the box.
    """
    direction = project_tangent_cone(-np.asarray(grad, dtype=float), x, box)
    return float(np.linalg.norm(direction)), direction


def active_set(x, box: BoxSet) -> ActiveSet:
    """Classify components at their lower/upper bound at x, within
    default_active_tol."""
    at_lo, at_hi = _active_masks(x, box)
    at_hi = at_hi & ~at_lo  # fixed variables count as lower
    return ActiveSet(
        at_lower=tuple(np.flatnonzero(at_lo).tolist()),
        at_upper=tuple(np.flatnonzero(at_hi).tolist()),
    )


def box_complementarity(x, z, lower, upper):
    """Per-component (comp, sign) residuals of bound duals z at x.

    A nonzero z_i pointing at a finite bound (z_i < 0 at lower, z_i > 0 at
    upper) gives comp_i = min(slack_i, |z_i|); one pointing at an infinite
    bound gives sign_i = |z_i|, a pure sign violation.  Fixed variables and
    z_i == 0 give 0 in both, so the two parts never overlap.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    slack = np.where(z < 0, x - lower, upper - x)  # inf where that bound is infinite
    m = np.minimum(slack, np.abs(z))
    m[(z == 0.0) | (lower == upper)] = 0.0
    comp = np.where(np.isfinite(slack), m, 0.0)
    return comp, m - comp
