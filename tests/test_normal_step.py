import numpy as np
import pytest

import pgcon.normal_step as normal_step
from pgcon.corpus import corpus
from pgcon.driver import SolverConfig, solve
from pgcon.geometry import compute_delta, project_box
from pgcon.normal_step import (
    ETA_M,
    GAMMA,
    KAPPA_V,
    cauchy_search,
    compute_normal_step,
    model_value,
    solve_tr_inf,
)
from pgcon.problem import BoxSet


def search(x, c, J, alpha, delta, box):
    """cauchy_search from its own J'c and unit trial, as compute_normal_step
    calls it."""
    grad = J.T @ c
    return cauchy_search(x, c, J, alpha, delta, box, grad, project_box(x - grad, box) - x)


def grid_oracle_beta(x, c, J, alpha, delta, box, imax=200):
    """Reference: scan beta = GAMMA^i directly and return the first hit."""
    grad0 = J.T @ c
    m0 = 0.5 * float(c @ c)
    for i in range(imax):
        beta = GAMMA ** i
        v = project_box(x - beta * grad0, box) - x
        if (np.linalg.norm(v) <= KAPPA_V * alpha * delta
                and model_value(c, J, v) <= m0 + ETA_M * float(grad0 @ v)):
            return beta, v
    raise AssertionError("oracle found no step")


class TestCauchySearch:
    def test_linear_1d_full_step(self):
        # c
        # = -1, J = [1], interior x: v(beta) = beta, model 0.5(beta-1)^2;
        # beta = 1 satisfies both conditions immediately
        x = np.array([5.0])
        c = np.array([-1.0])
        J = np.array([[1.0]])
        box = BoxSet.nonnegative(1)
        delta = np.linalg.norm(J.T @ c)
        beta, v, i, m_v = search(x, c, J, 1.0, delta, box)
        assert beta == 1.0 and i == 0 and m_v == 0.0
        np.testing.assert_allclose(v, [1.0])

    def test_radius_binding_backtracks(self):
        # huge gradient against a small trust region forces backtracking
        # until the norm condition holds
        x = np.array([5.0, 5.0])
        c = np.array([-30.0])
        J = np.array([[1.0, 1.0]])
        box = BoxSet.free(2)
        delta = float(np.linalg.norm(J.T @ c))
        alpha = 1e-6  # radius 1e-3 * delta
        beta, v, i, _ = search(x, c, J, alpha, delta, box)
        assert i > 0
        assert np.linalg.norm(v) <= KAPPA_V * alpha * delta + 1e-15
        ob, ov = grid_oracle_beta(x, c, J, alpha, delta, box)
        assert beta == ob
        np.testing.assert_allclose(v, ov)

    def test_matches_grid_oracle_random(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            if m > n:
                continue
            J = rng.standard_normal((m, n))
            c = rng.standard_normal(m)
            lo = np.where(rng.random(n) < 0.5, -rng.random(n), -np.inf)
            box = BoxSet(lo, np.full(n, np.inf))
            x = project_box(rng.standard_normal(n), box)
            grad0 = J.T @ c
            delta = compute_delta(x, grad0, box)
            if delta < 1e-10:
                continue
            # KAPPA_V * alpha spans 1e-1 .. 1e3, so the radius binds in some draws
            alpha = float(10 ** rng.uniform(-4, 0))
            beta, v, i, m_v = search(x, c, J, alpha, delta, box)
            ob, ov = grid_oracle_beta(x, c, J, alpha, delta, box)
            assert beta == ob
            # the model value it returns is that of its step, bit for bit
            assert m_v == model_value(c, J, v)
            np.testing.assert_allclose(v, ov, atol=1e-14)
            # first-order decrease direction: grad' v < 0 always at return
            assert float(grad0 @ v) < 0

    def test_backtrack_cap_gives_zero_step(self, monkeypatch):
        monkeypatch.setattr(normal_step, "MAX_BACKTRACKS", 5)
        x = np.array([5.0])
        c = np.array([-1.0])
        J = np.array([[1.0]])
        box = BoxSet.free(1)
        # delta tiny: the norm condition needs beta ~ delta, below the cap
        beta, v, i, m_v = search(x, c, J, 1e-33, 1e-15, box)
        assert beta == 0.0 and i == 6
        np.testing.assert_array_equal(v, [0.0])
        assert m_v == model_value(c, J, v) == 0.5

    def test_step_norm_monotonicity_in_beta(self):
        # ||v(beta)|| nondecreasing and ||v(beta)||/beta nonincreasing
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = 4
            J = rng.standard_normal((2, n))
            c = rng.standard_normal(2)
            box = BoxSet(np.full(n, -rng.random()), np.full(n, rng.random()))
            x = project_box(rng.standard_normal(n) * 0.3, box)
            grad0 = J.T @ c
            betas = [0.5 ** i for i in range(12)]
            norms = []
            ratios = []
            for b in betas:
                v = project_box(x - b * grad0, box) - x
                norms.append(np.linalg.norm(v))
                ratios.append(np.linalg.norm(v) / b)
            # betas decrease along the list: norms must not increase,
            # ratios must not decrease
            for a, b in zip(norms, norms[1:]):
                assert b <= a + 1e-12
            for a, b in zip(ratios, ratios[1:]):
                assert b >= a - 1e-9 * max(1.0, a)


class TestTrInf:
    def test_clipped_1d(self):
        # c = -1, J = [1], radius 0.5: unconstrained minimizer 1, clipped
        x = np.array([5.0])
        c = np.array([-1.0])
        J = np.array([[1.0]])
        box = BoxSet.free(1)
        delta = 1.0
        v = solve_tr_inf(x, c, J, alpha=50.0, delta=delta, box=box)
        assert v[0] == pytest.approx(0.5, abs=1e-10)

    def test_interior_solves_normal_equations(self):
        rng = np.random.default_rng(12)
        J = rng.standard_normal((2, 5))
        c = rng.standard_normal(2)
        x = np.zeros(5)
        box = BoxSet.free(5)
        # radius 1e6, large enough that the least-squares minimizer is interior
        v = solve_tr_inf(x, c, J, alpha=1e8, delta=1.0, box=box)
        ref, *_ = np.linalg.lstsq(J, -c, rcond=None)
        np.testing.assert_allclose(J.T @ (c + J @ v), np.zeros(5), atol=1e-8)
        assert model_value(c, J, v) <= model_value(c, J, ref) + 1e-10

    def test_two_norm_bound_respected(self, monkeypatch):
        kappa_v = 1.0  # kappa_v / sqrt(6) < KAPPA_V_INF: the cap sets the inf radius
        monkeypatch.setattr(normal_step, "KAPPA_V", kappa_v)
        monkeypatch.setattr(normal_step, "KAPPA_V_INF", 0.9)
        rng = np.random.default_rng(13)
        J = rng.standard_normal((2, 6))
        c = rng.standard_normal(2) * 5
        box = BoxSet.nonnegative(6)
        x = rng.random(6)
        alpha, delta = 0.3, 2.0
        v = solve_tr_inf(x, c, J, alpha, delta, box)
        # the inf radius is capped at KAPPA_V/sqrt(n), so the 2-norm bound holds
        assert np.linalg.norm(v) <= kappa_v * alpha * delta + 1e-12
        # and the capped radius binds
        assert np.max(np.abs(v)) == pytest.approx(kappa_v / np.sqrt(6) * alpha * delta)


class TestComputeNormalStep:
    def test_feasible_point_no_step(self):
        box = BoxSet.nonnegative(2)
        res = compute_normal_step(np.array([1.0, 0.5]), np.zeros(1),
                                  np.array([[1.0, 1.0]]), 1.0, box, 1e-6)
        assert res.delta == 0.0
        assert not res.infeasible_stationary
        np.testing.assert_allclose(res.v, np.zeros(2))

    def test_infeasible_stationary_signal(self):
        # J'c = 0 with large violation
        box = BoxSet.nonnegative(1)
        res = compute_normal_step(np.array([0.0]), np.array([1.0]),
                                  np.array([[0.0]]), 1.0, box, 1e-6)
        assert res.infeasible_stationary

    def test_selection_never_worse_than_cauchy(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = 5
            J = rng.standard_normal((2, n))
            c = rng.standard_normal(2)
            box = BoxSet.nonnegative(n)
            x = rng.random(n)
            alpha = float(10 ** rng.uniform(-3, 1))
            res = compute_normal_step(x, c, J, alpha, box, 1e-6)
            if res.delta == 0.0:
                continue
            beta, v_c, _, m_c = search(x, c, J, alpha, res.delta, box)
            assert beta == res.beta and m_c == res.model_cauchy
            np.testing.assert_array_equal(v_c, res.v_cauchy)
            m_v = model_value(c, J, res.v)
            assert m_v <= model_value(c, J, v_c) + 1e-12
            assert m_v <= model_value(c, J, res.v_inf) + 1e-12
            assert m_v <= 0.5 * float(c @ c) + 1e-12
            assert np.linalg.norm(c) - np.linalg.norm(c + J @ res.v) >= -1e-12
            assert np.all(x + res.v >= box.lower - 1e-12)
            assert np.linalg.norm(res.v) <= 1e3 * alpha * res.delta * (1 + 1e-10)

    def test_zero_cauchy_step_leaves_the_trust_region_point(self, monkeypatch):
        monkeypatch.setattr(normal_step, "MAX_BACKTRACKS", 0)
        # the unit trial overshoots the radius, so the search ends at zero
        x, c, J = np.array([5.0]), np.array([-1.0]), np.array([[1.0]])
        res = compute_normal_step(x, c, J, 1e-4, BoxSet.free(1), 1e-6)
        beta, _, backtracks, m_c = search(x, c, J, 1e-4, res.delta, BoxSet.free(1))
        assert (beta, backtracks) == (0.0, 1) and res.beta == 0.0
        assert m_c == res.model_cauchy == model_value(c, J, res.v_cauchy)
        np.testing.assert_array_equal(res.v_cauchy, [0.0])
        np.testing.assert_array_equal(res.v_unit, [1.0])  # the beta = 1 trial
        np.testing.assert_array_equal(res.v, res.v_inf)
        assert model_value(c, J, res.v) < model_value(c, J, res.v_cauchy)

    def test_v_zero_iff_delta_zero(self):
        rng = np.random.default_rng(22)
        box = BoxSet.nonnegative(4)
        for _ in range(30):
            J = rng.standard_normal((2, 4))
            c = rng.standard_normal(2) * rng.choice([0.0, 1.0])
            x = rng.random(4)
            res = compute_normal_step(x, c, J, 1.0, box, 1e-6)
            if res.delta <= 1e-12 * (1 + np.linalg.norm(J.T @ c)):
                assert np.linalg.norm(res.v) == 0.0
            else:
                assert np.linalg.norm(res.v) > 0.0


def test_corpus_solves_with_no_backtracking_budget(monkeypatch):
    # with no backtrack allowed every Cauchy search that misses at beta = 1
    # ends at the zero step, and the solve still ends in its status
    monkeypatch.setattr(normal_step, "MAX_BACKTRACKS", 0)
    for inst in corpus():
        cfg = SolverConfig(**inst.config_overrides)
        rep = solve(inst.problem, cfg)
        assert rep.status == inst.expected_status, inst.name
        assert rep.invariant_violations == [], inst.name
