import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from pgcon.qp import QpProblem, _Kkt, _ratio_test, _solve_subspace, solve_qp, verify_kkt
from qp_oracle import enumerate_qp


def random_qp(rng, d=None, p=None):
    d = int(rng.integers(2, 9)) if d is None else d
    p = int(rng.integers(0, min(4, d))) if p is None else p
    B = rng.standard_normal((d, d))
    H = B.T @ B + (0.1 + rng.random()) * np.eye(d)
    q = rng.standard_normal(d) * 2
    # mixed finite/infinite bounds
    lower = np.where(rng.random(d) < 0.7, rng.standard_normal(d) - 1.0, -np.inf)
    upper = np.where(rng.random(d) < 0.7, rng.standard_normal(d) + 1.5, np.inf)
    lower, upper = np.minimum(lower, upper), np.maximum(lower, upper)
    if p:
        Aeq = rng.standard_normal((p, d))
        # anchor feasibility at a point inside the box
        x_feas = np.clip(rng.standard_normal(d), lower, upper)
        beq = Aeq @ x_feas
    else:
        Aeq, beq = np.zeros((0, d)), np.zeros(0)
    return QpProblem(H=H, q=q, Aeq=Aeq, beq=beq, lower=lower, upper=upper)


class TestBasics:
    def test_interior_minimum(self):
        # min 0.5||v||^2 over [-1, 1]^n: minimizer 0, no active bounds
        n = 4
        qp = QpProblem(H=np.eye(n), q=np.zeros(n), Aeq=np.zeros((0, n)),
                       beq=np.zeros(0), lower=-np.ones(n), upper=np.ones(n))
        sol = solve_qp(qp)
        assert sol.status == "solved"
        np.testing.assert_allclose(sol.primal, np.zeros(n), atol=1e-12)
        np.testing.assert_allclose(sol.bound_duals, np.zeros(n), atol=1e-12)

    def test_simplexlike_projection(self):
        # min 0.5||u - a||^2 s.t. sum(u) = 0, u >= 0 with a = (2, -1):
        # the only feasible nonneg point with zero sum along the oracle
        a = np.array([2.0, -1.0])
        qp = QpProblem(H=np.eye(2), q=-a, Aeq=np.ones((1, 2)), beq=np.zeros(1),
                       lower=np.zeros(2), upper=np.full(2, np.inf))
        sol = solve_qp(qp)
        ref = enumerate_qp(qp.H, qp.q, qp.Aeq, qp.beq, qp.lower, qp.upper)
        assert ref is not None
        np.testing.assert_allclose(sol.primal, ref[0], atol=1e-10)
        assert verify_kkt(qp, sol).overall <= 1e-9

    def test_one_dim_box_exact(self):
        # min 0.5 (x - 3)^2 on [0, 1] -> x = 1, z = 2 at the upper bound
        qp = QpProblem(H=np.eye(1), q=np.array([-3.0]), Aeq=np.zeros((0, 1)),
                       beq=np.zeros(0), lower=np.zeros(1), upper=np.ones(1))
        sol = solve_qp(qp)
        assert sol.primal[0] == pytest.approx(1.0, abs=1e-14)
        assert sol.bound_duals[0] == pytest.approx(2.0, abs=1e-12)
        rep = verify_kkt(qp, sol)
        assert rep.overall <= 1e-12

    def test_fixed_variable(self):
        qp = QpProblem(H=np.eye(2), q=np.array([1.0, 1.0]), Aeq=np.zeros((0, 2)),
                       beq=np.zeros(0), lower=np.array([0.5, -1.0]),
                       upper=np.array([0.5, 1.0]))
        sol = solve_qp(qp)
        assert sol.primal[0] == 0.5
        assert sol.primal[1] == pytest.approx(-1.0)

    def test_infeasible_equality(self):
        # x in [0, 1], constraint x = 5
        qp = QpProblem(H=np.eye(1), q=np.zeros(1), Aeq=np.ones((1, 1)),
                       beq=np.array([5.0]), lower=np.zeros(1), upper=np.ones(1))
        sol = solve_qp(qp)
        assert sol.status == "infeasible_eq"

    def test_warm_start_does_not_hurt(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            qp = random_qp(rng)
            cold = solve_qp(qp)
            if cold.status != "solved":
                continue
            warm = solve_qp(qp, warm_start=cold.primal + 1e-3 * rng.standard_normal(qp.dim))
            assert warm.status == "solved"
            assert warm.kkt_residual <= max(cold.kkt_residual, 1e-10) + 1e-12

    def test_sparse_inputs(self):
        rng = np.random.default_rng(3)
        qp = random_qp(rng, d=6, p=2)
        qps = QpProblem(H=sp.csr_matrix(qp.H), q=qp.q, Aeq=sp.csr_matrix(qp.Aeq),
                        beq=qp.beq, lower=qp.lower, upper=qp.upper)
        a = solve_qp(qp)
        b = solve_qp(qps)
        np.testing.assert_allclose(a.primal, b.primal, atol=1e-9)

    def test_gram_form_matches_dense(self):
        rng = np.random.default_rng(11)
        G = rng.standard_normal((2, 5))
        c0 = rng.standard_normal(2)
        lower = -0.3 * np.ones(5)
        upper = 0.3 * np.ones(5)
        qg = QpProblem(H=None, q=np.zeros(5), Aeq=np.zeros((0, 5)), beq=np.zeros(0),
                       lower=lower, upper=upper, gram=(G, c0))
        # dense equivalent with a tiny ridge for uniqueness
        qd = QpProblem(H=G.T @ G + 1e-12 * np.eye(5), q=G.T @ c0,
                       Aeq=np.zeros((0, 5)), beq=np.zeros(0), lower=lower, upper=upper)
        a = solve_qp(qg)
        b = solve_qp(qd)
        assert a.status == "solved"
        assert qg.objective(a.primal) <= qg.objective(b.primal) + 1e-9


class TestVerifyKkt:
    def test_exact_solution_zero_residuals(self):
        qp = QpProblem(H=np.eye(1), q=np.array([-3.0]), Aeq=np.zeros((0, 1)),
                       beq=np.zeros(0), lower=np.zeros(1), upper=np.ones(1))
        sol = solve_qp(qp)
        rep = verify_kkt(qp, sol)
        assert rep.stationarity == 0.0
        assert rep.complementarity == 0.0
        assert rep.dual_sign == 0.0

    def test_perturbed_primal_stationarity(self):
        qp = QpProblem(H=2.0 * np.eye(1), q=np.array([-3.0]), Aeq=np.zeros((0, 1)),
                       beq=np.zeros(0), lower=np.full(1, -np.inf), upper=np.full(1, np.inf))
        sol = solve_qp(qp)
        sol.primal = sol.primal + 1e-3
        rep = verify_kkt(qp, sol)
        assert rep.stationarity == pytest.approx(2.0 * 1e-3, rel=1e-9)

    def test_flipped_dual_sign(self):
        qp = QpProblem(H=np.eye(1), q=np.array([1.0]), Aeq=np.zeros((0, 1)),
                       beq=np.zeros(0), lower=np.zeros(1), upper=np.full(1, np.inf))
        sol = solve_qp(qp)
        assert sol.primal[0] == 0.0 and sol.bound_duals[0] == pytest.approx(-1.0)
        sol.bound_duals = -sol.bound_duals  # wrong side for a lower bound
        rep = verify_kkt(qp, sol)
        assert rep.dual_sign == pytest.approx(1.0)


class TestOracleEquivalence:
    def test_random_qps_match_enumeration(self):
        rng = np.random.default_rng(2024)
        n_match = 0
        for _ in range(60):
            qp = random_qp(rng)
            ref = enumerate_qp(qp.H, qp.q, qp.Aeq, qp.beq, qp.lower, qp.upper)
            if ref is None:
                continue
            sol = solve_qp(qp)
            assert sol.status == "solved"
            np.testing.assert_allclose(sol.primal, ref[0], atol=1e-8)
            assert verify_kkt(qp, sol).overall <= 1e-8
            n_match += 1
        assert n_match >= 55

    def test_objective_monotone_under_warm_start_chain(self):
        rng = np.random.default_rng(5)
        qp = random_qp(rng, d=6, p=2)
        sol = solve_qp(qp)
        assert sol.status == "solved"
        # re-solving from the solution terminates immediately at the optimum
        again = solve_qp(qp, warm_start=sol.primal)
        assert again.iterations <= 2
        np.testing.assert_allclose(again.primal, sol.primal, atol=1e-10)


class TestSubspaceBranches:
    """Each branch of the working-set solve chain in qp._solve_subspace."""

    def test_curvature_free_descent_ray(self):
        # zero curvature along x2 with q pulling it up: the free working set
        # has no stationary point, so the solve hands back a descent ray and
        # the ratio test rides it to the upper bound
        for H in (np.diag([1.0, 0.0]), sp.csr_matrix(np.diag([1.0, 0.0]))):
            qp = QpProblem(H=H, q=np.array([0.0, -1.0]), Aeq=np.zeros((0, 2)),
                           beq=np.zeros(0), lower=-np.ones(2), upper=np.ones(2))
            xf, y, ray = _solve_subspace(qp, _Kkt(qp), np.arange(2), np.zeros(2))
            assert xf is None and y.size == 0
            np.testing.assert_array_equal(ray, [0.0, 1.0])
            sol = solve_qp(qp)
            ref = enumerate_qp(np.diag([1.0, 0.0]), qp.q, qp.Aeq, qp.beq, qp.lower, qp.upper)
            assert sol.status == "solved"
            np.testing.assert_array_equal(sol.primal, ref[0])
            np.testing.assert_allclose(sol.bound_duals, ref[2], atol=1e-12)
            assert verify_kkt(qp, sol).overall <= 1e-12

    def test_explosion_guard_truncates_near_null_direction(self):
        # equality rows dependent up to 1e-12: the direct solve returns
        # multipliers near 3e12, far beyond 1e7*(1 + |x| + |q|), and the
        # guard re-solves the same system with that direction truncated
        A = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0 + 1e-12]])
        K = np.block([[np.eye(3), A.T], [A, np.zeros((2, 2))]])
        rhs = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            direct = scipy.linalg.solve(K, rhs, assume_a="sym")
        assert np.max(np.abs(direct)) > 1e7 * 2.0
        truncated = scipy.linalg.lstsq(K, rhs, cond=1e-9, lapack_driver="gelsy")[0]
        for Aeq in (A, sp.csr_matrix(A)):
            qp = QpProblem(H=np.eye(3), q=np.array([0.0, 0.0, -1.0]), Aeq=Aeq,
                           beq=np.ones(2), lower=np.full(3, -np.inf), upper=np.full(3, np.inf))
            xf, y, ray = _solve_subspace(qp, _Kkt(qp), np.arange(3), np.zeros(3))
            assert ray is None
            np.testing.assert_allclose(np.concatenate([xf, y]), truncated, rtol=0, atol=1e-15)
            sol = solve_qp(qp)
            ref = enumerate_qp(np.eye(3), qp.q, A, qp.beq, qp.lower, qp.upper)
            assert sol.status == "solved"
            np.testing.assert_allclose(sol.primal, ref[0], atol=1e-9)
            assert verify_kkt(qp, sol).overall <= 1e-9

    @pytest.mark.parametrize("upper1", [2.0, np.nextafter(2.0, 0.0)])
    def test_ratio_tie_blocks_least_index(self, upper1):
        # from the interior point 0 toward the target (2, 4) both upper
        # bounds are reached at step length 0.5, exactly or one ulp apart
        # (within the 1e-15 tie tolerance): index 0 blocks first either way
        qp = QpProblem(H=np.eye(2), q=np.array([-2.0, -4.0]), Aeq=np.zeros((0, 2)),
                       beq=np.zeros(0), lower=-np.ones(2), upper=np.array([1.0, upper1]))
        one_step = solve_qp(qp, max_iter=1)
        assert one_step.status == "max_iter"
        assert one_step.primal[0] == 1.0
        assert one_step.bound_duals[0] != 0.0 and one_step.bound_duals[1] == 0.0
        sol = solve_qp(qp)
        ref = enumerate_qp(qp.H, qp.q, qp.Aeq, qp.beq, qp.lower, qp.upper)
        assert sol.status == "solved"
        np.testing.assert_array_equal(sol.primal, ref[0])
        np.testing.assert_allclose(sol.bound_duals, ref[2], atol=1e-12)


def blocked_subspace(qp, free, x, sparse):
    """Reference: the per-working-set block assembly _solve_subspace
    replaced, solved directly (nonsingular working sets only)."""
    p = qp.n_eq
    fixed = np.setdiff1d(np.arange(qp.dim), free)
    H, A = sp.csr_matrix(qp.H), sp.csr_matrix(qp.Aeq)
    rhs = -(qp.q[free] + H[free][:, fixed] @ x[fixed])
    if p:
        rhs = np.concatenate([rhs, qp.beq - A[:, fixed] @ x[fixed]])
        K = sp.bmat([[H[free][:, free], A[:, free].T], [A[:, free], None]], format="csc")
    else:
        K = H[free][:, free].tocsc()
    if sparse:
        sol = scipy.sparse.linalg.splu(K).solve(rhs)
    else:
        sol = scipy.linalg.solve(K.toarray(), rhs, assume_a="sym")
    return sol[:free.size], sol[free.size:]


@pytest.mark.parametrize("sparse", [False, True])
def test_sliced_kkt_matches_blocked_assembly(sparse):
    # working sets of random QPs, with and without equality rows; each
    # keeps at least as many free variables as equality rows, so its
    # system is nonsingular and the direct solve answers.  Sparse inputs
    # are densified on construction and checked against a sparse LU.
    rng = np.random.default_rng(17)
    seen_p = set()
    for _ in range(200):
        qp = random_qp(rng)
        if sparse:
            qp = QpProblem(H=sp.csr_matrix(qp.H), q=qp.q, Aeq=sp.csr_matrix(qp.Aeq),
                           beq=qp.beq, lower=qp.lower, upper=qp.upper)
        d, p = qp.dim, qp.n_eq
        free = np.flatnonzero(rng.random(d) < 0.6)
        if free.size < max(p, 1):
            continue
        seen_p.add(p > 0)
        x = rng.standard_normal(d)
        xf, y, ray = _solve_subspace(qp, _Kkt(qp), free, x)
        ref_x, ref_y = blocked_subspace(qp, free, x, sparse)
        assert ray is None
        np.testing.assert_allclose(xf, ref_x, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(y, ref_y, rtol=1e-12, atol=1e-12)
    assert seen_p == {False, True}


def ratio_test_loop(x, step, lo, hi):
    """Scalar reference: the per-index loop _ratio_test replaced."""
    t, blocking = 1.0, -1
    for i in range(x.shape[0]):
        if step[i] > 0 and np.isfinite(hi[i]):
            ti = (hi[i] - x[i]) / step[i]
        elif step[i] < 0 and np.isfinite(lo[i]):
            ti = (lo[i] - x[i]) / step[i]
        else:
            continue
        if ti < t - 1e-15:
            t, blocking = ti, i
    return max(t, 0.0), blocking


def test_ratio_test_matches_loop():
    rng = np.random.default_rng(21)
    for _ in range(2000):
        d = int(rng.integers(1, 10))
        lo = np.where(rng.random(d) < 0.7, -rng.random(d) - 0.1, -np.inf)
        hi = np.where(rng.random(d) < 0.7, rng.random(d) + 0.1, np.inf)
        x = rng.uniform(np.maximum(lo, -1.0), np.minimum(hi, 1.0))
        on_bound = rng.random(d) < 0.2
        x[on_bound] = np.where(np.isfinite(lo), lo, x)[on_bound]
        step = rng.standard_normal(d) * rng.choice([0.1, 1.0, 10.0])
        step[rng.random(d) < 0.2] = 0.0
        if d >= 2 and rng.random() < 0.5:
            # two indices reaching a bound at the same step length, exactly
            # or a few ulps apart
            i, j = rng.choice(d, size=2, replace=False)
            r = rng.uniform(0.0, 1.2)
            lo[[i, j]], hi[[i, j]] = -np.inf, np.inf
            x[[i, j]] = 0.0
            step[[i, j]] = np.abs(step[[i, j]]) + 0.1
            hi[i] = r * step[i]
            hi[j] = (hi[i] / step[i]) * step[j]
            for _ in range(int(rng.integers(-3, 4))):
                hi[j] = np.nextafter(hi[j], np.inf)
        assert _ratio_test(x, step, lo, hi) == ratio_test_loop(x, step, lo, hi)


class TestRefinedDuals:
    """Degenerate QPs with redundant equality rows, where the working-set
    multipliers are not unique and _refine_duals re-derives them."""

    H = 1e-3 * np.eye(6)

    def test_refined_duals_must_balance_every_row(self):
        # warm-started at a point whose working set revisits; refined duals
        # that balance only the free rows used to certify x_4 = 1 as
        # optimal, 2 above the true minimum
        qp = QpProblem(
            H=self.H, q=np.array([3.0, -3, 3, 3, 2, 2]),
            Aeq=np.array([[-1.0, 1, 1, -2, 0, 0], [0, 0, -1, 2, 0, 1],
                          [1, -1, 1, -2, 0, -2], [1, -1, 3, -6, 0, -4],
                          [0, 0, -1, 2, 0, 1]]),
            beq=np.array([1.0, -1, 1, 3, -1]),
            lower=np.array([0, 0, -np.inf, -np.inf, 0, 0]),
            upper=np.array([np.inf, 1, np.inf, np.inf, 1, np.inf]))
        sol = solve_qp(qp, warm_start=np.array([0.0, 0, 1, 0, 1, 0]))
        ref = enumerate_qp(self.H, qp.q, qp.Aeq, qp.beq, qp.lower, qp.upper)
        assert sol.status == "solved"
        assert sol.kkt_residual <= 1e-8
        assert qp.objective(sol.primal) == pytest.approx(qp.objective(ref[0]), abs=1e-6)
        np.testing.assert_allclose(sol.primal, ref[0], atol=1e-6)

    def test_refined_duals_rescue_cold_start(self):
        # without the sign-feasible refit the working set cycles to max_iter
        qp = QpProblem(
            H=self.H, q=np.array([3.0, -3, 0, -2, 3, -3]),
            Aeq=np.array([[-4.0, -1, 0, -3, 0, 1], [-2, -2, 0, -2, -2, 2],
                          [-1, 2, 2, 2, 2, 0], [2, -1, 0, 1, -2, 1]]),
            beq=np.zeros(4),
            lower=np.array([0, 0, -np.inf, 0, 0, 0]),
            upper=np.array([np.inf, np.inf, np.inf, np.inf, 1, np.inf]))
        sol = solve_qp(qp)
        ref = enumerate_qp(self.H, qp.q, qp.Aeq, qp.beq, qp.lower, qp.upper)
        assert sol.status == "solved"
        assert sol.kkt_residual <= 1e-8
        assert qp.objective(sol.primal) == pytest.approx(-6000.0, abs=1e-6)
        assert qp.objective(ref[0]) == pytest.approx(-6000.0, abs=1e-6)


def test_anti_cycling_exhaustion_has_own_status():
    # a tangential split QP from the driver fuzz (u in R^3, two split
    # pairs, three nullspace rows and two linking rows), started where the
    # split variables carry the current point: every bound release from
    # that degenerate point bounces straight back, which used to be
    # reported as "max_iter" after 4 of the 350 allowed iterations
    H = np.diag([0.1, 0.1, 0.1, 0.0, 0.0, 0.0, 0.0])
    q = np.array([-1.490737826906788, -1.1865547345237477, 2.3247391813414167,
                  1.0728556091325017, 1.1159721852404867, 1.0728556091325017,
                  1.1159721852404867])
    Aeq = np.array([
        [-0.1857885359089904, -0.6511671623770117, -1.2201908368770655, 0, 0, 0, 0],
        [-0.11129299057625369, 0.11157571100568703, -1.032756728114285, 0, 0, 0, 0],
        [0.07445221264803822, -0.9253003995434455, 1.2027040634870014, 0, 0, 0, 0],
        [1.0, 0, 0, -1, 0, 1, 0],
        [0, 0, 1.0, 0, -1, 0, 1]])
    beq = np.array([0.0, 0.0, 0.0, 0.012248648851277948, 0.11853410095175454])
    lower = np.array([-np.inf, -0.7843088430180412, -np.inf, 0, 0, 0, 0])
    upper = np.array([np.inf, 0.43131637993027255, np.inf, np.inf, np.inf, np.inf, np.inf])
    qp = QpProblem(H=H, q=q, Aeq=Aeq, beq=beq, lower=lower, upper=upper)
    start = np.array([0.0, 0, 0, 0, 0, 0.012248648851277948, 0.11853410095175454])
    for sol in (solve_qp(qp, warm_start=start), solve_qp(qp)):
        assert sol.status == "cycling"
        assert sol.iterations < 50 * qp.dim
        assert sol.kkt_residual > 1e-8
