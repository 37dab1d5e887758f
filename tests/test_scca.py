import dataclasses

import numpy as np
import pytest

from pgcon.driver import SolverConfig, solve
from pgcon.problem import check_derivatives
from pgcon.scca import (
    ALPHA0,
    pattern_vectors,
    scca_generate,
    scca_init,
    scca_metrics,
    scca_problem,
)


class TestGenerate:
    def test_shapes(self):
        data = scca_generate(200, 200, 200, seed=0)
        assert data.X.shape == (200, 200)
        assert data.Y.shape == (200, 200)
        assert data.sigma_xx.shape == (200, 200)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            scca_generate(100, 96, 50, seed=0)
        with pytest.raises(ValueError):
            scca_generate(96, 96, 0, seed=0)

    def test_deterministic_under_seed(self):
        a = scca_generate(64, 64, 32, seed=11)
        b = scca_generate(64, 64, 32, seed=11)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.Y, b.Y)
        c = scca_generate(64, 64, 32, seed=12)
        assert not np.array_equal(a.X, c.X)

    def test_zero_noise_rank_one_block_pattern(self):
        data = scca_generate(32, 32, 16, seed=0, noise_std=0.0)
        bx, by = pattern_vectors(32, 32)
        # every column proportional to the block pattern
        assert np.linalg.matrix_rank(data.X) == 1
        col = data.X[:, 0]
        j = np.argmax(np.abs(col))
        np.testing.assert_allclose(col / col[j] * bx[j], bx, atol=1e-12)

    def test_noise_variance_moment(self):
        # empirical entry variance of the drawn pattern noise near 0.01
        n = 512
        data = scca_generate(n, n, 8, seed=5)
        xi = np.concatenate([data.xi_x, data.xi_y])
        var = float(np.var(xi))
        assert abs(var - 0.01) <= 0.2 * 0.01

    def test_symmetry_psd(self):
        data = scca_generate(32, 32, 32, seed=1)
        np.testing.assert_allclose(data.sigma_xx, data.sigma_xx.T)
        evals = np.linalg.eigvalsh(data.sigma_xx)
        assert evals.min() >= -1e-9


class TestProblem:
    def test_dimensions(self):
        data = scca_generate(200, 200, 200, seed=0)
        p = scca_problem(data, 1e-2)
        assert p.n == 402  # two weight blocks plus one slack per constraint
        assert p.m == 2

    def test_value_at_zero(self):
        data = scca_generate(32, 32, 16, seed=0)
        p = scca_problem(data, 1e-2)
        z = np.zeros(p.n)
        z[-2:] = [0.3, 0.7]
        assert p.f(z) == 0.0
        np.testing.assert_allclose(p.c(z), [-0.3, -0.7])

    def test_derivative_check(self):
        data = scca_generate(64, 64, 64, seed=2)
        p = scca_problem(data, 1e-2)
        rng = np.random.default_rng(0)
        for _ in range(3):
            z = rng.standard_normal(p.n) * 0.05
            rep = check_derivatives(p, z)
            assert rep.max_err <= 1e-6

    def test_rejects_nonpositive_lambda(self):
        data = scca_generate(32, 32, 16, seed=0)
        with pytest.raises(ValueError):
            scca_problem(data, 0.0)

    def test_objective_matches_metric_correlation(self):
        # at unit-variance weights, f = -rho
        data = scca_generate(64, 64, 64, seed=3)
        p = scca_problem(data, 1e-3)
        x0 = p.x0
        nx = data.n_x
        met = scca_metrics(x0[:nx], x0[nx:nx + data.n_y], data, zero_tol=0.0)
        assert p.f(x0) == pytest.approx(-met.rho_xy, abs=1e-12)


class TestInit:
    def test_variances_exactly_one(self):
        data = scca_generate(64, 64, 64, seed=4)
        x0 = scca_init(data)
        wx, wy = x0[:64], x0[64:128]
        assert wx @ data.sigma_xx @ wx == pytest.approx(1.0, abs=1e-8)
        assert wy @ data.sigma_yy @ wy == pytest.approx(1.0, abs=1e-8)
        np.testing.assert_allclose(x0[-2:], [1.0, 1.0])

    def test_noiseless_recovers_blocks(self):
        data = scca_generate(32, 32, 32, seed=0, noise_std=0.0)
        x0 = scca_init(data)
        met = scca_metrics(x0[:32], x0[32:64], data, zero_tol=1e-10)
        assert met.rho_xy == pytest.approx(1.0, abs=1e-6)
        bx, _ = pattern_vectors(32, 32)
        wx = x0[:32]
        # recovered direction proportional to the pattern, up to the
        # whitening ridge
        scale = wx[0] / bx[0]
        np.testing.assert_allclose(wx, scale * bx, atol=1e-6)

    def test_deterministic(self):
        data = scca_generate(64, 64, 64, seed=9)
        np.testing.assert_array_equal(scca_init(data), scca_init(data))

    def test_zero_cross_covariance_warns_and_stays_finite(self):
        # M = 0: the power iteration has no direction to follow
        data = scca_generate(32, 32, 32, seed=0)
        data = dataclasses.replace(data, sigma_xy=np.zeros_like(data.sigma_xy))
        with pytest.warns(UserWarning, match="did not converge"):
            x0 = scca_init(data)
        assert x0.shape == (66,) and np.all(np.isfinite(x0))


class TestMetrics:
    def test_ground_truth_support_sl_zero(self):
        data = scca_generate(32, 32, 16, seed=0)
        wx = np.zeros(32)
        wx[:8] = 1.0
        wy = np.zeros(32)
        wy[24:] = 1.0
        met = scca_metrics(wx, wy, data)
        assert met.sl == 0
        assert met.sr_x == pytest.approx(0.75)

    def test_zero_vector_flagged(self):
        data = scca_generate(32, 32, 16, seed=0)
        met = scca_metrics(np.zeros(32), np.zeros(32), data)
        assert met.sr_x == 1.0
        assert met.rho_xy == 0.0
        assert not met.rho_defined

    def test_off_support_counted(self):
        data = scca_generate(32, 32, 16, seed=0)
        wx = np.zeros(32)
        wx[10] = 0.5  # outside the first quarter
        wy = np.zeros(32)
        wy[5] = 0.5   # inside the first three quarters
        met = scca_metrics(wx, wy, data)
        assert met.sl == 2


class TestGateGrid:
    """The gate grid, data seed 1, solved as the benchmark does.

    Bounds rather than exact counts: scca_init's start point, and with it
    the path, changes in its last bits with the number of BLAS threads
    (82 outer iterations on one thread, 76 on two).
    """

    CELLS = ((200, 1e-2), (200, 1e-3), (400, 1e-2), (400, 1e-3))

    @pytest.fixture(scope="class")
    def runs(self):
        out = {}
        for n, lam in self.CELLS:
            data = scca_generate(n, n, n, seed=1)
            out[n, lam] = (data, solve(scca_problem(data, lam), SolverConfig(alpha0=ALPHA0)))
        return out

    def test_every_cell_passes_criterion_1(self, runs):
        for (n, lam), (data, rep) in runs.items():
            met = scca_metrics(rep.x[:n], rep.x[n:2 * n], data)
            assert rep.status == "KktPoint", (n, lam)
            assert met.rho_xy >= 0.999 and met.sl == 0, (n, lam, met)
            assert max(met.voc_x, met.voc_y) <= 1e-6, (n, lam, met)
            # sr >= 0.98 is stated at lambda = 1e-2 only
            assert lam != 1e-2 or met.sr >= 0.98, (n, lam, met)

    def test_alpha_reaches_cap_early(self, runs):
        # doubling from alpha0 = 1e-3 alone reaches the cap of 10 at k = 14;
        # the small secant curvature of the bilinear objective lifts it there
        # after a few accepted steps, and the grid takes 82 iterations, not 123
        cap = SolverConfig().alpha_cap
        assert sum(rep.iterations for _, rep in runs.values()) <= 90
        records = runs[200, 1e-2][1].records
        assert next(r.k for r in records if r.alpha == cap) <= 3
        assert max(r.alpha for _, rep in runs.values() for r in rep.records) <= cap
