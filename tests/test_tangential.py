import numpy as np
import pytest

from pgcon.problem import BoxSet, L1Regularizer
from pgcon.tangential import (
    build_tangential_qp,
    solve_tangential,
    verify_tangential_kkt,
)
from qp_oracle import enumerate_qp


class TestBuild:
    def test_no_weights_no_split(self):
        n = 3
        qp, reg_idx = build_tangential_qp(
            np.zeros(n), np.zeros(n), np.ones(n), np.ones((1, n)), 1.0,
            L1Regularizer(np.zeros(n)), BoxSet.nonnegative(n))
        assert reg_idx.size == 0
        assert qp.dim == n
        assert qp.n_eq == 1

    def test_one_split_component(self):
        qp, reg_idx = build_tangential_qp(
            np.zeros(1), np.zeros(1), np.zeros(1), np.zeros((0, 1)), 1.0,
            L1Regularizer(np.array([2.0])), BoxSet.free(1))
        assert qp.dim == 3  # u, p, q
        assert qp.n_eq == 1  # the linking row
        A = np.asarray(qp.Aeq)
        np.testing.assert_allclose(A, [[1.0, -1.0, 1.0]])

    def test_dimension_count_regularized_block(self):
        # n variables with m of them regularized: n + 2m columns
        n, mreg = 7, 4
        w = np.zeros(n)
        w[:mreg] = 0.3
        qp, reg_idx = build_tangential_qp(
            np.zeros(n), np.zeros(n), np.zeros(n), np.zeros((2, n)), 0.5,
            L1Regularizer(w), BoxSet.free(n))
        assert qp.dim == n + 2 * mreg
        assert reg_idx.size == mreg
        assert qp.n_eq == 2 + mreg


class TestHandSolved:
    def test_zero_data_zero_step(self):
        n = 2
        res, _ = solve_tangential(
            np.array([1.0, 2.0]), np.zeros(n), np.zeros(n), np.zeros((0, n)),
            1.0, L1Regularizer(np.zeros(n)), BoxSet.free(n))
        np.testing.assert_allclose(res.u, np.zeros(n), atol=1e-12)
        np.testing.assert_allclose(res.z, np.zeros(n), atol=1e-12)
        assert res.kkt_residual <= 1e-10

    def test_scalar_prox_step(self):
        # min u + 0.5 u^2 s.t. x+u >= 0 with x=5: u = -1 interior, z = 0
        res, _ = solve_tangential(
            np.array([5.0]), np.zeros(1), np.array([1.0]), np.zeros((0, 1)),
            1.0, L1Regularizer(np.zeros(1)), BoxSet.nonnegative(1))
        assert res.u[0] == pytest.approx(-1.0, abs=1e-12)
        assert res.z[0] == pytest.approx(0.0, abs=1e-12)

    def test_scalar_bound_active(self):
        # same but x = 0.5: unconstrained -1 clips at the bound, z = -0.5
        res, _ = solve_tangential(
            np.array([0.5]), np.zeros(1), np.array([1.0]), np.zeros((0, 1)),
            1.0, L1Regularizer(np.zeros(1)), BoxSet.nonnegative(1))
        assert res.w[0] == 0.0  # exact zero from the bound snap
        assert res.z[0] == pytest.approx(-0.5, abs=1e-12)

    def test_regularized_zero_stays_zero(self):
        # g = 0, x = 0, weight 2: u = 0 and any |g_r| <= 2 certifies
        res, _ = solve_tangential(
            np.zeros(1), np.zeros(1), np.zeros(1), np.zeros((0, 1)),
            1.0, L1Regularizer(np.array([2.0])), BoxSet.free(1))
        assert res.u[0] == 0.0
        assert abs(res.g_r[0]) <= 2.0 + 1e-12
        assert res.kkt_residual <= 1e-10

    def test_soft_threshold_shrinkage(self):
        # min g u + 0.5 u^2 + |x+u| with g=-3, x=0, weight 1:
        # minimizer of (u-3)^2/2 + |u| is u = 2 with g_r = 1
        res, _ = solve_tangential(
            np.zeros(1), np.zeros(1), np.array([-3.0]), np.zeros((0, 1)),
            1.0, L1Regularizer(np.array([1.0])), BoxSet.free(1))
        assert res.u[0] == pytest.approx(2.0, abs=1e-10)
        assert res.g_r[0] == pytest.approx(1.0, abs=1e-10)


class TestAgainstEnumeration:
    def test_random_instances_match(self):
        rng = np.random.default_rng(31)
        n_checked = 0
        for _ in range(40):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(0, min(2, n - 1) + 1))
            x = rng.standard_normal(n)
            v = 0.1 * rng.standard_normal(n)
            g = rng.standard_normal(n)
            J = rng.standard_normal((m, n))
            alpha = float(10 ** rng.uniform(-2, 1))
            w = np.where(rng.random(n) < 0.5, rng.random(n), 0.0)
            lo = np.where(rng.random(n) < 0.4, np.minimum(x + v, 0) - rng.random(n), -np.inf)
            box = BoxSet(lo, np.full(n, np.inf))
            reg = L1Regularizer(w)
            qp, reg_idx = build_tangential_qp(x, v, g, J, alpha, reg, box)
            if qp.dim > 9:
                continue
            H = np.asarray(qp.H if not hasattr(qp.H, "toarray") else qp.H.toarray())
            A = np.asarray(qp.Aeq if not hasattr(qp.Aeq, "toarray") else qp.Aeq.toarray())
            ref = enumerate_qp(H, qp.q, A, qp.beq, qp.lower, qp.upper)
            if ref is None:
                continue
            res, _ = solve_tangential(x, v, g, J, alpha, reg, box)
            np.testing.assert_allclose(res.u, ref[0][:n], atol=2e-8)
            assert res.kkt_residual <= 1e-8
            # split parts never simultaneously positive
            assert np.all(res.p * res.q == 0.0)
            # the step is at least as good as staying put
            def obj(u):
                wpt = x + v + u
                return (g @ u + (u @ u) / (2 * alpha) + (v @ u) / alpha
                        + reg.value(wpt))
            assert obj(res.u) <= obj(np.zeros(n)) + 1e-10
            n_checked += 1
        assert n_checked >= 20


class TestVerify:
    def test_exact_solution_tiny_residuals(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal(3)
        g = rng.standard_normal(3)
        J = rng.standard_normal((1, 3))
        reg = L1Regularizer(np.array([0.5, 0.0, 0.7]))
        box = BoxSet.free(3)
        res, _ = solve_tangential(x, np.zeros(3), g, J, 0.7, reg, box)
        rep = res.kkt_report
        assert rep.overall <= 1e-10

    def test_perturbed_u_shows_in_stationarity(self):
        x = np.array([5.0])
        res, _ = solve_tangential(
            x, np.zeros(1), np.array([1.0]), np.zeros((0, 1)), 1.0,
            L1Regularizer(np.zeros(1)), BoxSet.nonnegative(1))
        eps = 1e-3
        rep = verify_tangential_kkt(
            x, np.zeros(1), np.array([1.0]), np.zeros((0, 1)), 1.0,
            L1Regularizer(np.zeros(1)), BoxSet.nonnegative(1),
            u=res.u + eps, y=res.y, z=res.z, g_r=res.g_r)
        assert rep.stationarity == pytest.approx(eps / 1.0, rel=1e-6)

    def test_wrong_dual_sign_reported(self):
        x = np.array([0.5])
        res, _ = solve_tangential(
            x, np.zeros(1), np.array([1.0]), np.zeros((0, 1)), 1.0,
            L1Regularizer(np.zeros(1)), BoxSet.nonnegative(1))
        rep = verify_tangential_kkt(
            x, np.zeros(1), np.array([1.0]), np.zeros((0, 1)), 1.0,
            L1Regularizer(np.zeros(1)), BoxSet.nonnegative(1),
            u=res.u, y=res.y, z=-res.z, g_r=res.g_r)
        # z flipped positive at a lower-bound-active component with no
        # upper bound: pure sign violation of size |z|
        assert rep.dual_sign == pytest.approx(0.5, abs=1e-12)


class TestWarmStart:
    """The previous raw primal is offered every iteration; the feasibility
    check in solve_tangential alone decides whether it is used."""

    @staticmethod
    def instance(seed):
        rng = np.random.default_rng(seed)
        n, m = 12, 2
        x = rng.standard_normal(n)
        v = 0.1 * rng.standard_normal(n)
        g = rng.standard_normal(n)
        J = rng.standard_normal((m, n))
        reg = L1Regularizer(np.where(rng.random(n) < 0.7, rng.random(n), 0.0))
        lo = np.where(rng.random(n) < 0.4, np.minimum(x + v, 0) - rng.random(n), -np.inf)
        return x, v, g, J, 1.0, reg, BoxSet(lo, np.full(n, np.inf))

    @pytest.mark.parametrize("seed", range(3))
    def test_feasible_warm_primal_adopted(self, seed):
        args = self.instance(seed)
        cold, raw = solve_tangential(*args)
        warm, _ = solve_tangential(*args, warm=raw)
        for name in ("u", "y", "z", "g_r", "w"):
            np.testing.assert_allclose(getattr(warm, name), getattr(cold, name),
                                       rtol=0, atol=1e-12)
        # starting on the optimal working set leaves one confirming iteration
        assert warm.qp_iterations < cold.qp_iterations

    @pytest.mark.parametrize("seed", range(3))
    def test_infeasible_warm_primal_ignored(self, seed):
        args = self.instance(seed)
        cold, raw = solve_tangential(*args)
        bad = raw.copy()
        bad[0] += 1.0  # breaks the nullspace rows
        again, raw_again = solve_tangential(*args, warm=bad)
        assert again.qp_iterations == cold.qp_iterations
        assert np.array_equal(raw_again, raw)
        for name in ("u", "y", "z", "g_r", "w"):
            assert np.array_equal(getattr(again, name), getattr(cold, name))
