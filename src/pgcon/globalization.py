"""Merit function, its parameter update, step acceptance, and the
proximal-parameter update.

The merit function is  Phi_tau(x) = tau*(f(x) + r(x)) + ||c(x)||_2.  Its
weight tau is only ever decreased, and only when needed to keep the trial
step a sufficient-descent direction; the proximal parameter alpha shrinks
on rejected steps and may grow on accepted ones.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ALPHA_FLOOR",
    "SIGMA_C",
    "EPS_TAU",
    "ETA_PHI",
    "XI",
    "ALPHA_CAP",
    "ALPHA_MAX",
    "merit_from_parts",
    "compute_Ak",
    "tau_trial",
    "update_tau",
    "sufficient_decrease",
    "update_alpha",
]

ALPHA_FLOOR = 1e-16
# share of the linearized violation decrease the merit weight keeps back
SIGMA_C = 0.1
# a decreased merit weight drops at least to (1 - EPS_TAU) times its value
EPS_TAU = 0.1
# fraction of the predicted decrease an accepted step must achieve
ETA_PHI = 1e-4
# a rejected step multiplies alpha by XI; growth on acceptance divides by it
XI = 0.5
# the most alpha grows to by doubling
ALPHA_CAP = 10.0
# the most alpha grows to where the Lagrangian is flat
ALPHA_MAX = 1e6


def merit_from_parts(f_val: float, r_val: float, c_norm: float, tau: float) -> float:
    return tau * (f_val + r_val) + c_norm


def compute_Ak(g, s, s_sq: float, alpha: float, r_at_xs: float, r_at_x: float) -> float:
    """Curvature-plus-regularizer part of the directional-derivative bound;
    ``s_sq`` is s's squared norm s's, which the caller forms once."""
    return float(np.dot(g, s)) + s_sq / (2.0 * alpha) + r_at_xs - r_at_x


def tau_trial(A_k: float, ck_norm: float, ck_Jk_sk_norm: float) -> float:
    """Largest merit weight keeping the step a descent direction; inf when
    the step already reduces the smooth-plus-regularized model, or its
    linearized gain ||c|| - ||c + J s|| is not positive, which no weight
    mends: rounding, or with v = 0 the J u of a budget-cut dual answer
    (within the KKT bar).  The weight is kept, and the merit test judges."""
    gain = ck_norm - ck_Jk_sk_norm
    if A_k <= 0.0 or gain <= 0.0:
        return np.inf
    return (1.0 - SIGMA_C) * gain / A_k


def update_tau(tau_prev: float, tau_trial_val: float) -> float:
    if tau_prev <= tau_trial_val:
        return tau_prev
    return min((1.0 - EPS_TAU) * tau_prev, tau_trial_val)


def sufficient_decrease(phi_new: float, phi_old: float, tau: float, alpha: float,
                        s_sq: float, ck_norm: float, ck_Jk_sk_norm: float) -> bool:
    """Merit decrease test with an absolute slack for cancellation noise;
    ``s_sq`` is the step's squared norm s's."""
    rhs = -ETA_PHI * (tau / (4.0 * alpha) * s_sq
                      + SIGMA_C * (ck_norm - ck_Jk_sk_norm))
    slack = 1e-14 * (1.0 + abs(phi_old))
    return phi_new - phi_old <= rhs + slack


def update_alpha(alpha: float, accepted: bool, lipschitz: float | None = None,
                 prev_accepted: bool = True) -> float:
    """Next proximal parameter.  Callers watch for values below ALPHA_FLOOR
    and convert them into a stall signal.

    A rejected step gives XI*alpha.  An accepted step gives
    min(alpha/XI, ALPHA_CAP), the blind doubling, unless the step's local
    Lipschitz estimate |grad L(w) - grad L(x)| / |s| is at most
    1/(2 ALPHA_CAP): alpha then becomes min(ALPHA_MAX, 1/(2 l)), the bound
    of Malitsky & Mishchenko (ICML 2020), and ALPHA_MAX where the
    Lagrangian's gradient did not move.  ``lipschitz`` None means the
    estimate was not computed, which gives the doubling.  When the
    previous step was rejected (``prev_accepted`` False) alpha does not
    double: it becomes min(alpha, ALPHA_CAP), so the next trial does not
    repeat the alpha just rejected, as a trust region does not grow right
    after an unsuccessful step.  The flat-Lagrangian bound still applies.
    """
    if not accepted:
        return XI * alpha
    if lipschitz is not None and lipschitz <= 1.0 / (2.0 * ALPHA_CAP):
        return ALPHA_MAX if lipschitz == 0.0 else min(ALPHA_MAX, 1.0 / (2.0 * lipschitz))
    return min(alpha / XI if prev_accepted else alpha, ALPHA_CAP)
