"""Merit function, its parameter update, step acceptance, and the
proximal-parameter update rules.

The merit function is  Phi_tau(x) = tau*(f(x) + r(x)) + ||c(x)||_2.  Its
weight tau is only ever decreased, and only when needed to keep the trial
step a sufficient-descent direction; the proximal parameter alpha shrinks
on rejected steps and, depending on the rule, may grow on accepted ones.
"""

from __future__ import annotations

import numpy as np

from .problem import ProblemInstance

__all__ = [
    "ALPHA_FLOOR",
    "TAU_FLOOR",
    "ALPHA_RULES",
    "merit_value",
    "merit_from_parts",
    "compute_Ak",
    "tau_trial",
    "update_tau",
    "sufficient_decrease",
    "update_alpha",
]

ALPHA_FLOOR = 1e-16
TAU_FLOOR = 1e-12
ALPHA_RULES = ("hold", "min_cap", "verbatim_max")


def merit_from_parts(f_val: float, r_val: float, c_norm: float, tau: float) -> float:
    return tau * (f_val + r_val) + c_norm


def merit_value(p: ProblemInstance, x, tau: float) -> float:
    """Phi_tau(x); evaluates the problem functions at x."""
    if tau <= 0:
        raise ValueError("merit weight must be positive")
    return merit_from_parts(p.f(x), p.reg.value(x), float(np.linalg.norm(p.c(x))), tau)


def compute_Ak(g, s, alpha: float, r_at_xs: float, r_at_x: float) -> float:
    """Curvature-plus-regularizer part of the directional-derivative bound."""
    s = np.asarray(s, dtype=float)
    return float(np.dot(g, s)) + float(np.dot(s, s)) / (2.0 * alpha) + r_at_xs - r_at_x


def tau_trial(A_k: float, ck_norm: float, ck_Jk_sk_norm: float, sigma_c: float) -> float:
    """Largest merit weight keeping the step a descent direction; inf when
    the step already reduces the smooth-plus-regularized model."""
    if A_k <= 0.0:
        return np.inf
    return (1.0 - sigma_c) * (ck_norm - ck_Jk_sk_norm) / A_k


def update_tau(tau_prev: float, tau_trial_val: float, eps_tau: float) -> float:
    if tau_prev <= tau_trial_val:
        return tau_prev
    return min((1.0 - eps_tau) * tau_prev, tau_trial_val)


def sufficient_decrease(phi_new: float, phi_old: float, tau: float, alpha: float,
                        s, ck_norm: float, ck_Jk_sk_norm: float,
                        eta_phi: float, sigma_c: float) -> bool:
    """Merit decrease test with an absolute slack for cancellation noise."""
    s = np.asarray(s, dtype=float)
    rhs = -eta_phi * (tau / (4.0 * alpha) * float(np.dot(s, s))
                      + sigma_c * (ck_norm - ck_Jk_sk_norm))
    slack = 1e-14 * (1.0 + abs(phi_old))
    return phi_new - phi_old <= rhs + slack


def update_alpha(alpha: float, accepted: bool, rule: str, xi: float,
                 alpha_cap: float = 10.0) -> float:
    """Next proximal parameter.  Callers watch for values below ALPHA_FLOOR
    and convert them into a stall signal."""
    if rule not in ALPHA_RULES:
        raise ValueError(f"unknown alpha rule {rule!r}")
    if not accepted:
        return xi * alpha
    if rule == "hold":
        return alpha
    if rule == "verbatim_max":
        return max(alpha / xi, 10.0)
    return min(alpha / xi, alpha_cap)
