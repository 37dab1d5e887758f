import numpy as np
import pytest

from pgcon.driver import SolverConfig, solve
from pgcon.problem import BoxSet, L1Regularizer, ProblemInstance
from pgcon.qp import solve_qp
from pgcon.tangential import (
    TangentialError,
    build_tangential_qp,
    kkt_bar,
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
        res = solve_tangential(
            np.array([1.0, 2.0]), np.zeros(n), np.zeros(n), np.zeros((0, n)),
            1.0, L1Regularizer(np.zeros(n)), BoxSet.free(n))
        np.testing.assert_allclose(res.u, np.zeros(n), atol=1e-12)
        np.testing.assert_allclose(res.z, np.zeros(n), atol=1e-12)
        assert res.kkt_residual <= 1e-10

    def test_scalar_prox_step(self):
        # min u + 0.5 u^2 s.t. x+u >= 0 with x=5: u = -1 interior, z = 0
        res = solve_tangential(
            np.array([5.0]), np.zeros(1), np.array([1.0]), np.zeros((0, 1)),
            1.0, L1Regularizer(np.zeros(1)), BoxSet.nonnegative(1))
        assert res.u[0] == pytest.approx(-1.0, abs=1e-12)
        assert res.z[0] == pytest.approx(0.0, abs=1e-12)

    def test_scalar_bound_active(self):
        # same but x = 0.5: unconstrained -1 clips at the bound, z = -0.5
        res = solve_tangential(
            np.array([0.5]), np.zeros(1), np.array([1.0]), np.zeros((0, 1)),
            1.0, L1Regularizer(np.zeros(1)), BoxSet.nonnegative(1))
        assert res.w[0] == 0.0  # exact zero from the bound snap
        assert res.z[0] == pytest.approx(-0.5, abs=1e-12)

    def test_regularized_zero_stays_zero(self):
        # g = 0, x = 0, weight 2: u = 0 and any |g_r| <= 2 certifies
        res = solve_tangential(
            np.zeros(1), np.zeros(1), np.zeros(1), np.zeros((0, 1)),
            1.0, L1Regularizer(np.array([2.0])), BoxSet.free(1))
        assert res.u[0] == 0.0
        assert abs(res.g_r[0]) <= 2.0 + 1e-12
        assert res.kkt_residual <= 1e-10

    def test_soft_threshold_shrinkage(self):
        # min g u + 0.5 u^2 + |x+u| with g=-3, x=0, weight 1:
        # minimizer of (u-3)^2/2 + |u| is u = 2 with g_r = 1
        res = solve_tangential(
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
            res = solve_tangential(x, v, g, J, alpha, reg, box)
            np.testing.assert_allclose(res.u, ref[0][:n], atol=2e-8)
            assert res.kkt_residual <= 1e-8
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
        res = solve_tangential(x, np.zeros(3), g, J, 0.7, reg, box)
        rep = res.kkt_report
        assert rep.overall <= 1e-10

    def test_perturbed_u_shows_in_stationarity(self):
        x = np.array([5.0])
        res = solve_tangential(
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
        res = solve_tangential(
            x, np.zeros(1), np.array([1.0]), np.zeros((0, 1)), 1.0,
            L1Regularizer(np.zeros(1)), BoxSet.nonnegative(1))
        rep = verify_tangential_kkt(
            x, np.zeros(1), np.array([1.0]), np.zeros((0, 1)), 1.0,
            L1Regularizer(np.zeros(1)), BoxSet.nonnegative(1),
            u=res.u, y=res.y, z=-res.z, g_r=res.g_r)
        # z flipped positive at a lower-bound-active component with no
        # upper bound: pure sign violation of size |z|
        assert rep.dual_sign == pytest.approx(0.5, abs=1e-12)


def random_tangential(rng, n_max=12, m_max=4):
    """A tangential subproblem with x + v in the box, so u = 0 is feasible."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(0, min(m_max, n) + 1))
    x = rng.standard_normal(n)
    v = 0.1 * rng.standard_normal(n)
    base = x + v
    g = rng.standard_normal(n)
    J = rng.standard_normal((m, n))
    alpha = float(10 ** rng.uniform(-2, 1))
    lam = np.where(rng.random(n) < 0.7, rng.random(n), 0.0)
    lo = np.where(rng.random(n) < 0.4, np.minimum(base, 0) - rng.random(n), -np.inf)
    hi = np.where(rng.random(n) < 0.4, np.maximum(base, 0) + rng.random(n), np.inf)
    return x, v, g, J, alpha, L1Regularizer(lam), BoxSet(lo, hi)


def split_qp_oracle(x, v, g, J, alpha, reg, box):
    """(u, y, zero, at_lo, at_hi) from the split QP: w_i = p_i - q_i is
    zero when both split parts sit on their bound, and u is at a bound
    exactly when the QP's active set holds it there."""
    qp, reg_idx = build_tangential_qp(x, v, g, J, alpha, reg, box)
    sol = solve_qp(qp)
    assert sol.status == "solved"
    n, nr = x.shape[0], reg_idx.shape[0]
    u = sol.primal[:n]
    zero = np.zeros(n, dtype=bool)
    zero[reg_idx] = (sol.primal[n:n + nr] == 0.0) & (sol.primal[n + nr:] == 0.0)
    return (u, sol.eq_duals[:J.shape[0]], zero,
            u == qp.lower[:n], u == qp.upper[:n])


def dual_formula(x, g, J, alpha, reg, box, y):
    """w(y) = clip(soft(x - alpha g - alpha J'y, alpha lam), lower, upper)."""
    t = x - alpha * g - alpha * (J.T @ y)
    soft = np.sign(t) * np.maximum(np.abs(t) - alpha * reg.weights, 0.0)
    return np.clip(soft, box.lower, box.upper)


def kink_margin(x, g, J, alpha, reg, box, y):
    """Distance of the oracle's t = c - alpha J'y from the nearest kink of
    w(y): the soft threshold and the two bounds."""
    t = x - alpha * g - alpha * (J.T @ y)
    soft = np.sign(t) * np.maximum(np.abs(t) - alpha * reg.weights, 0.0)
    gaps = [np.abs(np.abs(t) - alpha * reg.weights)[reg.weights > 0],
            np.abs(soft - box.lower), np.abs(soft - box.upper)]
    return min(float(np.min(gap, initial=np.inf)) for gap in gaps)


def assert_matches_oracle(args, res, tol=1e-10):
    x, v, g, J, alpha, reg, box = args
    u_ref, _, _, _, _ = split_qp_oracle(*args)
    scale = 1.0 + float(np.max(np.abs(x + v), initial=0.0))
    np.testing.assert_allclose(res.u, u_ref, rtol=0, atol=tol * scale)
    rep = verify_tangential_kkt(x, v, g, J, alpha, reg, box,
                                u=res.u, y=res.y, z=res.z, g_r=res.g_r)
    assert rep.overall <= 1e-8
    assert res.kkt_residual == rep.overall
    assert box.contains(res.w)


class TestDualAgainstSplitQp:
    """Differential fuzz of the dual solve against the split-QP oracle."""

    def test_random_instances(self):
        rng = np.random.default_rng(2024)
        n_patterns = 0
        for _ in range(300):
            args = random_tangential(rng)
            x, v, g, J, alpha, reg, box = args
            res = solve_tangential(*args)
            assert_matches_oracle(args, res)
            # the returned y reproduces w through the dual formula
            scale = 1.0 + float(np.max(np.abs(x + v), initial=0.0))
            np.testing.assert_allclose(dual_formula(x, g, J, alpha, reg, box, res.y),
                                       res.w, rtol=0, atol=1e-10 * scale)
            _, y_ref, zero, at_lo, at_hi = split_qp_oracle(*args)
            if kink_margin(x, g, J, alpha, reg, box, y_ref) > 1e-6:
                # nondegenerate: the same zeros and active bounds, exactly
                n_patterns += 1
                np.testing.assert_array_equal(res.w[reg.weights > 0] == 0.0,
                                              zero[reg.weights > 0])
                np.testing.assert_array_equal(res.w == box.lower, at_lo)
                np.testing.assert_array_equal(res.w == box.upper, at_hi)
        assert n_patterns >= 200


class TestDegenerate:
    """Cases where the dual Newton system or the piece structure degenerates."""

    def check(self, *args):
        res = solve_tangential(*args)
        assert_matches_oracle(args, res)
        return res

    def test_no_constraints(self):
        rng = np.random.default_rng(7)
        x, v, g, _, alpha, reg, box = random_tangential(rng, n_max=8)
        n = x.shape[0]
        res = self.check(x, v, g, np.zeros((0, n)), alpha, reg, box)
        assert res.iterations == 0
        assert res.y.shape == (0,)
        np.testing.assert_allclose(res.w, dual_formula(x, g, np.zeros((0, n)),
                                                       alpha, reg, box, res.y),
                                   rtol=0, atol=1e-15 * (1.0 + np.max(np.abs(x + v))))

    def test_more_rows_than_free_components(self):
        # J is square and nonsingular, so u = 0 is the only feasible step;
        # two of its three components sit on a bound
        x = np.array([0.5, -0.25, 1.0])
        box = BoxSet(np.array([-np.inf, -0.25, -np.inf]), np.array([np.inf, np.inf, 1.0]))
        J = np.array([[1.0, 2.0, 0.5], [0.0, 1.0, -1.0], [2.0, 0.0, 1.0]])
        g = np.array([0.3, 2.0, -4.0])
        res = self.check(x, np.zeros(3), g, J, 1.0, L1Regularizer(np.zeros(3)), box)
        np.testing.assert_array_equal(res.u, np.zeros(3))

    @pytest.mark.parametrize("seed", range(5))
    def test_duplicated_and_zero_rows(self, seed):
        rng = np.random.default_rng(100 + seed)
        x, v, g, J, alpha, reg, box = random_tangential(rng, n_max=10)
        n = x.shape[0]
        row = rng.standard_normal(n)
        J = np.vstack([row, 2.0 * row, np.zeros(n), rng.standard_normal(n)])
        res = self.check(x, v, g, J, alpha, reg, box)
        np.testing.assert_allclose(J @ res.u, np.zeros(4), atol=1e-12)

    def test_fixed_variables(self):
        # lower == upper, one fixed at 0 with a positive weight
        x = np.array([0.0, 1.5, -0.3, 0.7])
        box = BoxSet(np.array([0.0, 1.5, -1.0, -np.inf]), np.array([0.0, 1.5, 1.0, np.inf]))
        reg = L1Regularizer(np.array([0.5, 0.2, 0.1, 0.0]))
        J = np.array([[1.0, 1.0, 1.0, 1.0]])
        res = self.check(x, np.zeros(4), np.array([3.0, -1.0, 0.4, 0.2]), J, 0.5, reg, box)
        assert res.w[0] == 0.0 and res.w[1] == 1.5

    def test_bound_at_zero_with_weight(self):
        # the soft threshold and the lower bound meet at w_0 = 0
        x = np.array([0.2, 0.5, 0.4])
        box = BoxSet(np.array([0.0, 0.0, -np.inf]), np.full(3, np.inf))
        reg = L1Regularizer(np.array([1.0, 0.3, 0.2]))
        J = np.array([[1.0, -1.0, 0.5]])
        res = self.check(x, np.zeros(3), np.array([2.0, 0.1, -0.3]), J, 0.5, reg, box)
        assert res.w[0] == 0.0
        assert res.z[0] <= 0.0 and abs(res.g_r[0]) <= reg.weights[0]

    def test_threshold_ties(self):
        # J has no entry on the first two components, so t_i = x_i - alpha
        # g_i = +-alpha lam_i exactly, whatever y is
        x = np.array([0.75, -0.5, 1.0, 0.25])
        g = np.array([0.25, 0.5, 1.0, -1.0])
        reg = L1Regularizer(np.array([0.5, 1.0, 0.25, 0.5]))
        J = np.array([[0.0, 0.0, 1.0, 1.0]])
        res = self.check(x, np.zeros(4), g, J, 1.0, reg, BoxSet.free(4))
        assert res.w[0] == 0.0 and res.w[1] == 0.0
        assert res.g_r[0] == pytest.approx(0.5, abs=1e-12)
        assert res.g_r[1] == pytest.approx(-1.0, abs=1e-12)


class TestFallback:
    """The dual solve has no fallback: a failure raises, naming its cause."""

    # J = [1] forces u = 0 and y = -g = 1, but w(y) is off its bounds only
    # for y within 1e-8 of 1: from y = 0 the Newton steps halve their way
    # toward that window and run out of budget
    BOX = BoxSet(np.array([-1e-8]), np.array([1e-8]))

    def test_narrow_window_exhausts_newton_budget(self):
        with pytest.raises(TangentialError, match="Newton budget"):
            solve_tangential(np.zeros(1), np.zeros(1), np.array([-1.0]),
                             np.array([[1.0]]), 1.0, L1Regularizer(np.zeros(1)), self.BOX)

    def test_driver_run_stalls_naming_the_cause(self):
        # min -x s.t. x = 0 in the same window: the first tangential
        # subproblem is the one above
        p = ProblemInstance(
            name="window", n=1, m=1, f_eval=lambda x: -float(x[0]),
            g_eval=lambda x: np.array([-1.0]), c_eval=lambda x: x.copy(),
            J_eval=lambda x: np.ones((1, 1)), reg=L1Regularizer(np.zeros(1)),
            box=self.BOX, x0=np.zeros(1))
        with pytest.warns(UserWarning, match="iteration 0: .*Newton budget"):
            rep = solve(p, SolverConfig(alpha0=1.0, scaling=False))
        assert rep.status == "Stalled"
        assert rep.iterations == 0

    def test_kkt_bar_allows_rounding_at_tiny_alpha(self):
        # iteration 63 of the nan-grad run in test_driver: alpha = 2^-31,
        # and the rounding of (u + v)/alpha alone, eps 0.1/alpha = 4.8e-8,
        # exceeds an absolute 1e-8 bar although |J u| is ~1e-17
        x = np.array([0.09999999945396254, 5.460374878892433e-10])
        v, g = np.zeros(2), x - np.array([2.0, 0.0])
        J, alpha = np.ones((1, 2)), 2.0 ** -31
        reg, box = L1Regularizer(np.zeros(2)), BoxSet.free(2)
        res = solve_tangential(x, v, g, J, alpha, reg, box,
                               y0=np.array([0.9499999999999998]))
        assert 1e-8 < res.kkt_residual <= kkt_bar(x, res.w, alpha)
        assert float(np.linalg.norm(J @ res.u)) < 1e-15
        # the bar still tells a wrong multiplier apart
        off = verify_tangential_kkt(x, v, g, J, alpha, reg, box, u=res.u,
                                    y=res.y + 1e-6, z=res.z, g_r=res.g_r)
        assert off.overall > kkt_bar(x, res.w, alpha)


class TestWarmStart:
    """The previous call's y is offered every iteration."""

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
    def test_warm_y_same_answer_fewer_iterations(self, seed):
        args = self.instance(seed)
        cold = solve_tangential(*args)
        warm = solve_tangential(*args, y0=cold.y)
        for name in ("u", "y", "z", "g_r", "w"):
            np.testing.assert_allclose(getattr(warm, name), getattr(cold, name),
                                       rtol=0, atol=1e-12)
        assert warm.iterations < cold.iterations
