"""Randomized robustness sweeps: the solver must finish with a taxonomy
status (never raise) and keep every monitored inequality, including on
deliberately degenerate data (PSD-only Hessians, duplicated constraint
rows, fixed variables, near-rank-deficient Jacobians)."""

import warnings

import numpy as np

from pgcon.driver import SolverConfig, solve
from pgcon.problem import BoxSet, L1Regularizer, ProblemInstance
from pgcon.qp import QpProblem, solve_qp, verify_kkt
from qp_oracle import enumerate_qp

STATUSES = {"KktPoint", "InfeasibleStationary", "MaxIter", "TimeLimit",
            "Stalled", "MeritCollapse"}


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
    cfg = SolverConfig(
        alpha0=float(10 ** rng.uniform(-2, 1)),
        alpha_rule=str(rng.choice(["hold", "min_cap", "verbatim_max"])),
        scaling=bool(rng.random() < 0.5), max_iter=600,
        check_invariants=True)
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
            statuses[rep.status] = statuses.get(rep.status, 0) + 1
            assert rep.invariant_violations == [], (trial, rep.invariant_violations)
    assert statuses.get("KktPoint", 0) >= 45


def test_five_vanishing_steps_end_stalled():
    # rng 7, trial 8 (n = m = 3, min_cap, no scaling): of 510 draws from
    # rngs 5, 6, 7 (150 each) and 99 (60), the only one that leaves
    # through the vanishing-step exit
    rng = np.random.default_rng(7)
    for trial in range(9):
        p, cfg = fuzz_case(rng, trial)
    assert (p.n, p.m, cfg.alpha_rule, cfg.scaling) == (3, 3, "min_cap", False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = solve(p, cfg)
    assert (rep.status, rep.iterations) == ("Stalled", 47)
    vanished = [r.norm_s / r.alpha <= cfg.tol_step for r in rep.records]
    assert vanished[-6:] == [False] + [True] * 5
    assert rep.invariant_violations == []


def test_qp_kernel_on_degenerate_data():
    rng = np.random.default_rng(31337)
    n_cmp = 0
    for trial in range(150):
        d = int(rng.integers(1, 9))
        p = int(rng.integers(0, min(4, d) + 1))
        B = rng.standard_normal((d, d))
        mu = rng.choice([0.0, 0.0, 0.3, 1.0])
        H = B.T @ B * rng.choice([0.0, 1.0]) + mu * np.eye(d)
        if not np.any(H):
            H = 0.01 * np.eye(d)
        q = rng.standard_normal(d) * 3
        lower = np.where(rng.random(d) < 0.6, rng.standard_normal(d) - 1, -np.inf)
        upper = np.where(rng.random(d) < 0.6, rng.standard_normal(d) + 1, np.inf)
        lower, upper = np.minimum(lower, upper), np.maximum(lower, upper)
        if rng.random() < 0.2 and np.isfinite(lower[0]):
            upper[0] = lower[0]
        if p:
            Aeq = rng.standard_normal((p, d))
            if p >= 2 and rng.random() < 0.3:
                Aeq[1] = 2.0 * Aeq[0]
            x_f = np.clip(rng.standard_normal(d), lower, upper)
            beq = Aeq @ x_f
        else:
            Aeq, beq = np.zeros((0, d)), np.zeros(0)
        qp = QpProblem(H=H, q=q, Aeq=Aeq, beq=beq, lower=lower, upper=upper)
        sol = solve_qp(qp)
        assert sol.status in ("solved", "max_iter", "cycling", "infeasible_eq")
        if sol.status == "solved":
            assert verify_kkt(qp, sol).overall <= 1e-6
        if mu > 0 and sol.status == "solved":
            ref = enumerate_qp(H, q, Aeq, beq, lower, upper)
            if ref is not None:
                n_cmp += 1
                np.testing.assert_allclose(sol.primal, ref[0], atol=1e-7)
    assert n_cmp >= 50
