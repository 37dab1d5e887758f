import dataclasses
import warnings

import numpy as np
import pytest

import pgcon.driver as driver
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
    normal_point,
    solve_tr_inf,
)
from pgcon.problem import BoxSet
from test_fuzz import fuzz_case


def search(x, c, J, alpha, delta, box):
    """cauchy_search from the point's own J'c and unit trial, with the
    given delta."""
    point = dataclasses.replace(normal_point(x, c, J, box, 1e-6, 1e-4), delta=delta)
    return cauchy_search(x, c, J, alpha, box, point)


def step(x, c, J, alpha, box, tol_c=1e-6, tol_inf=1e-4):
    """compute_normal_step at alpha from the point's own data, as the
    driver calls it."""
    return compute_normal_step(x, c, J, alpha, box,
                               normal_point(x, c, J, box, tol_c, tol_inf))


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
        res = step(np.array([1.0, 0.5]), np.zeros(1), np.array([[1.0, 1.0]]), 1.0, box)
        assert res.delta == 0.0
        assert not res.infeasible_stationary
        np.testing.assert_allclose(res.v, np.zeros(2))

    def test_infeasible_stationary_signal(self):
        # J'c = 0 with large violation
        box = BoxSet.nonnegative(1)
        res = step(np.array([0.0]), np.array([1.0]), np.array([[0.0]]), 1.0, box)
        assert res.infeasible_stationary

    @pytest.mark.parametrize("tol_c", [1e-6, 2.0])
    def test_relative_infeasibility_test_at_its_margin(self, tol_c):
        # c = 1 and J = a in a free box: delta = a and ||c|| = 1, so the
        # margin tol_inf ||c|| is tol_inf itself.  At or one ulp below it
        # the step is zero, flagged where ||c|| > tol_c; one ulp above it
        # the step moves
        tol_inf = 1e-4
        x, c, box = np.zeros(1), np.ones(1), BoxSet.free(1)
        for a, zero in ((np.nextafter(tol_inf, 0.0), True), (tol_inf, True),
                        (np.nextafter(tol_inf, 1.0), False)):
            res = step(x, c, np.array([[a]]), 1.0, box, tol_c, tol_inf)
            assert res.delta == a
            assert (not np.any(res.v)) == zero
            assert res.infeasible_stationary == (zero and tol_c < 1.0)

    def test_tolerance_in_units_of_the_start_jacobian(self):
        # c = 5e-5 (x - 1) at x = 0: delta / ||c|| = 5e-5 is below tol_stat,
        # yet the violation is met at x = 1.  With tol_inf = tol_stat
        # max|J(x0)|, as the driver passes it, the step moves
        x, c, J, box = np.zeros(1), np.array([-5e-5]), np.array([[5e-5]]), BoxSet.free(1)
        assert step(x, c, J, 1.0, box, tol_inf=1e-4).infeasible_stationary
        res = step(x, c, J, 1.0, box, tol_inf=1e-4 * 5e-5)
        assert not res.infeasible_stationary and res.v[0] > 0.0

    def test_selection_never_worse_than_cauchy(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = 5
            J = rng.standard_normal((2, n))
            c = rng.standard_normal(2)
            box = BoxSet.nonnegative(n)
            x = rng.random(n)
            alpha = float(10 ** rng.uniform(-3, 1))
            res = step(x, c, J, alpha, box)
            if res.delta == 0.0:
                continue
            beta, v_c, _, m_c = search(x, c, J, alpha, res.delta, box)
            assert beta == res.beta and m_c == res.model_cauchy
            np.testing.assert_array_equal(v_c, res.v_cauchy)
            m_v = model_value(c, J, res.v)
            assert m_v == res.model
            assert m_v <= model_value(c, J, v_c) + 1e-12
            # the trust-region point, solved here where the screen skipped it
            v_inf = (solve_tr_inf(x, c, J, alpha, res.delta, box) if res.v_inf is None
                     else res.v_inf)
            assert m_v <= model_value(c, J, v_inf) + 1e-12
            if res.v_inf is None:
                assert res.v is res.v_cauchy and m_c < model_value(c, J, v_inf)
            assert m_v <= 0.5 * float(c @ c) + 1e-12
            assert np.linalg.norm(c) - np.linalg.norm(c + J @ res.v) >= -1e-12
            assert np.all(x + res.v >= box.lower - 1e-12)
            assert np.linalg.norm(res.v) <= 1e3 * alpha * res.delta * (1 + 1e-10)

    def test_zero_cauchy_step_leaves_the_trust_region_point(self, monkeypatch):
        monkeypatch.setattr(normal_step, "MAX_BACKTRACKS", 0)
        # the unit trial overshoots the radius, so the search ends at zero
        x, c, J = np.array([5.0]), np.array([-1.0]), np.array([[1.0]])
        point = normal_point(x, c, J, BoxSet.free(1), 1e-6, 1e-4)
        np.testing.assert_array_equal(point.v_unit, [1.0])  # the beta = 1 trial
        res = compute_normal_step(x, c, J, 1e-4, BoxSet.free(1), point)
        beta, _, backtracks, m_c = search(x, c, J, 1e-4, res.delta, BoxSet.free(1))
        assert (beta, backtracks) == (0.0, 1) and res.beta == 0.0
        assert m_c == res.model_cauchy == model_value(c, J, res.v_cauchy)
        np.testing.assert_array_equal(res.v_cauchy, [0.0])
        # m(0) = 1/2 lies above the screen's bound (1 - 1e-6)^2 / 2, so the
        # trust-region QP runs, and its point wins
        assert res.v_inf is not None and res.v is res.v_inf
        assert model_value(c, J, res.v) < model_value(c, J, res.v_cauchy)

    def test_v_zero_iff_delta_zero(self):
        rng = np.random.default_rng(22)
        box = BoxSet.nonnegative(4)
        for _ in range(30):
            J = rng.standard_normal((2, 4))
            c = rng.standard_normal(2) * rng.choice([0.0, 1.0])
            x = rng.random(4)
            res = step(x, c, J, 1.0, box)
            if res.delta <= max(1e-12 * (1 + np.linalg.norm(J.T @ c)),
                                1e-4 * np.linalg.norm(c)):
                assert np.linalg.norm(res.v) == 0.0
            else:
                assert np.linalg.norm(res.v) > 0.0


class TestScreen:
    """The trust-region QP is skipped only where its point cannot win."""

    @staticmethod
    def at_radius(r):
        """c = 1, J = 1, x = 0 in a free box: the Cauchy point is v = -1 with
        m = 0, and the trust-region point -min(r, 1) has m = (1 - r)^2 / 2
        for r < 1, a tie at r = 1.  The radius r is alpha / 100 here, and the
        screen's margin 1e-10 (|c| + r rho) about 2e-10."""
        x, c, J, box = np.zeros(1), np.ones(1), np.ones((1, 1)), BoxSet.free(1)
        res = step(x, c, J, 100.0 * r, box)
        assert res.model_cauchy == 0.0 and res.v_cauchy[0] == -1.0
        return res

    def test_skips_the_qp_outside_its_margin(self):
        # 1 - r = 1e-9 is five times the margin: skipped
        res = self.at_radius(1.0 - 1e-9)
        assert res.v_inf is None and res.v is res.v_cauchy and res.model == 0.0

    def test_runs_the_qp_inside_its_margin(self):
        # the Cauchy point still wins, but 1 - r = 1e-12 lies inside the
        # margin, so the QP runs
        res = self.at_radius(1.0 - 1e-12)
        assert res.v_inf is not None and res.v is res.v_cauchy
        assert model_value(np.ones(1), np.ones((1, 1)), res.v_inf) > 0.0

    def test_a_tie_goes_to_the_qp(self):
        # at r = 1 the QP reaches v = -1 too; the trust-region point wins
        # a tie, so the screen must not skip it
        res = self.at_radius(1.0)
        assert res.v_inf is not None and res.v is res.v_inf and res.model == 0.0

    def test_screened_steps_lose_to_no_qp_point(self, monkeypatch):
        # solve the QP anyway at every active normal step of the corpus and
        # of 30 fuzz draws: where it was skipped, the Cauchy point beats it
        counts = {"active": 0, "screened": 0, "qp_won": 0}

        def compute(x, c, J, alpha, box, point):
            res = normal_step.compute_normal_step(x, c, J, alpha, box, point)
            if point.zero is None:
                counts["active"] += 1
                if res.v_inf is None:
                    counts["screened"] += 1
                    v_inf = solve_tr_inf(x, c, J, alpha, point.delta, box)
                    assert res.model_cauchy < model_value(c, J, v_inf)
                counts["qp_won"] += res.v is res.v_inf
            return res

        monkeypatch.setattr(driver, "compute_normal_step", compute)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for inst in corpus():
                solve(inst.problem, SolverConfig(**inst.config_overrides))
            # the QP runs only at the 3 steps its point wins
            assert counts == {"active": 29, "screened": 26, "qp_won": 3}
            rng = np.random.default_rng(99)
            for trial in range(30):
                solve(*fuzz_case(rng, trial))
        assert counts["screened"] > 26  # the draws skip QPs too


def test_corpus_solves_with_no_backtracking_budget(monkeypatch):
    # with no backtrack allowed every Cauchy search that misses at beta = 1
    # ends at the zero step, and the solve still ends in its status
    monkeypatch.setattr(normal_step, "MAX_BACKTRACKS", 0)
    for inst in corpus():
        cfg = SolverConfig(**inst.config_overrides)
        rep = solve(inst.problem, cfg)
        assert rep.status == inst.expected_status, inst.name
        assert rep.invariant_violations == [], inst.name
