"""Randomized robustness sweeps: the solver must finish with a taxonomy
status (never raise) and keep every monitored inequality, on random
instances with one-sided, two-sided and fixed bounds, l1 weights and
curved constraints."""

import warnings

import numpy as np
import pytest

from pgcon.driver import TOL_STEP, SolverConfig, kkt_residual, solve
from pgcon.geometry import compute_delta
from pgcon.problem import BoxSet, L1Regularizer, ProblemInstance, scale_factors

STATUSES = {"KktPoint", "InfeasibleStationary", "MaxIter", "TimeLimit", "Stalled"}


def random_instance(rng, trial):
    n = int(rng.integers(1, 7))
    m = int(rng.integers(0, min(3, n) + 1))
    B = rng.standard_normal((n, n))
    Q = B.T @ B + (0.2 + rng.random()) * np.eye(n)
    center = rng.standard_normal(n) * 2
    A = rng.standard_normal((m, n))
    quad = rng.random(m) < 0.4
    qcoef = rng.standard_normal(m) * 0.3

    def f(x):
        d = x - center
        return 0.5 * float(d @ Q @ d)

    def g(x):
        return Q @ (x - center)

    def cfun(x):
        base = A @ x - 0.3
        if m:
            base = base + np.where(quad, qcoef * (x[:1] ** 2), 0.0)
        return base

    def Jfun(x):
        Jm = A.copy()
        if m:
            Jm[:, 0] += np.where(quad, 2 * qcoef * x[0], 0.0)
        return Jm

    lo = np.where(rng.random(n) < 0.5, rng.standard_normal(n) - 1.5, -np.inf)
    hi = np.where(rng.random(n) < 0.5, rng.standard_normal(n) + 1.5, np.inf)
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    if rng.random() < 0.15 and np.isfinite(lo[0]):
        hi[0] = lo[0]
    w = np.where(rng.random(n) < 0.5, rng.random(n) * 2, 0.0)
    return ProblemInstance(
        name=f"fuzz{trial}", n=n, m=m, f_eval=f, g_eval=g, c_eval=cfun,
        J_eval=Jfun, reg=L1Regularizer(w), box=BoxSet(lo, hi),
        x0=np.clip(rng.standard_normal(n), lo, hi),
    )


def fuzz_case(rng, trial):
    """A random instance and the config drawn for it."""
    p = random_instance(rng, trial)
    alpha0 = float(10 ** rng.uniform(-2, 1))
    # once drew an alpha rule and a scaling switch; kept so later draws
    # stay the same
    rng.choice(3)
    rng.random()
    cfg = SolverConfig(alpha0=alpha0, max_iter=600)
    return p, cfg


def test_solver_never_raises_and_keeps_invariants():
    rng = np.random.default_rng(99)
    statuses = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for trial in range(60):
            p, cfg = fuzz_case(rng, trial)
            rep = solve(p, cfg)
            assert rep.status in STATUSES
            assert rep.iterations == len(rep.records), trial
            statuses[rep.status] = statuses.get(rep.status, 0) + 1
            assert rep.invariant_violations == [], (trial, rep.invariant_violations)
    assert statuses.get("KktPoint", 0) >= 45


def test_degenerate_draw_ends_infeasible_stationary():
    # rng 7, trial 8 (n = m = 3): a stationary point of the violation
    # whose delta stalls far above the rounding-level bar 1e-12 (1 +
    # ||J'c||); the relative test certifies it at 21 under each of
    # OpenBLAS's SkylakeX, Haswell, Zen and Sandybridge kernels, with
    # ||c|| = 0.196 > tol_c and delta / ||c|| = 9.6e-5 <= tol_stat on the
    # caller's problem
    rng = np.random.default_rng(7)
    for trial in range(9):
        p, cfg = fuzz_case(rng, trial)
    assert (p.n, p.m) == (3, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = solve(p, cfg)
    assert (rep.status, rep.iterations) == ("InfeasibleStationary", 21)
    c = p.c_eval(rep.x)
    c_norm = np.linalg.norm(c)
    assert abs(c_norm - 0.196) < 5e-4 and rep.c_norm == pytest.approx(c_norm)
    delta = compute_delta(rep.x, p.J(rep.x).T @ c, p.box)
    assert 9e-5 * c_norm < delta <= cfg.tol_stat * c_norm
    # the last two recorded trials are flagged, and their steps vanish
    assert [r.norm_s / r.alpha <= TOL_STEP for r in rep.records[-3:]] == [False, True, True]
    assert rep.invariant_violations == []


def test_scaled_start_known_answer():
    # rng 6, trial 149 (n = 5, m = 1): the only one of the 510 fuzz
    # draws whose start gradient exceeds 100 in inf-norm, so the method
    # works on f times 0.8358
    rng = np.random.default_rng(6)
    for trial in range(150):
        p, cfg = fuzz_case(rng, trial)
    assert (p.n, p.m) == (5, 1)
    scale = scale_factors(p.g(p.x0), p.J(p.x0))
    assert 0.8357 < scale.objective_factor < 0.8358
    assert scale.constraint_factors.tolist() == [1.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = solve(p, cfg)
    assert (rep.status, rep.iterations) == ("KktPoint", 34)
    # the report holds for the caller's problem, not the scaled one
    chi, _ = kkt_residual(p, rep.x, rep.y, rep.z, rep.g_r)
    assert chi == rep.chi <= cfg.tol_stat
    assert rep.invariant_violations == []
