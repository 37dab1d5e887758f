import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from pgcon import globalization
from pgcon.driver import SolverConfig, kkt_residual, solve
from pgcon.globalization import ALPHA_CAP, ALPHA_MAX
from pgcon.problem import check_derivatives
from pgcon.scca import (
    NOISE_STD,
    ndtri,
    pattern_vectors,
    scca_generate,
    scca_init,
    scca_metrics,
    scca_problem,
)


class TestGenerate:
    def test_shapes(self):
        data = scca_generate(200, 192, 100, seed=0)
        assert data.a.shape == (200,) and data.b.shape == (192,)
        assert (data.n_x, data.n_y, data.N) == (200, 192, 100)
        assert isinstance(data.s, float) and data.s > 0
        # the factors are all the data holds: no n x n covariance is formed
        assert [f.name for f in dataclasses.fields(data)] == [
            "a", "b", "s", "N", "seed"]

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            scca_generate(100, 96, 50, seed=0)
        with pytest.raises(ValueError):
            scca_generate(96, 96, 0, seed=0)

    def test_deterministic_under_seed(self):
        d1 = scca_generate(64, 64, 32, seed=11)
        d2 = scca_generate(64, 64, 32, seed=11)
        np.testing.assert_array_equal(d1.a, d2.a)
        np.testing.assert_array_equal(d1.b, d2.b)
        assert d1.s == d2.s
        d3 = scca_generate(64, 64, 32, seed=12)
        assert not np.array_equal(d1.a, d3.a)
        assert d1.s != d3.s

    def test_factors_are_block_pattern_plus_drawn_noise(self):
        data = scca_generate(32, 32, 16, seed=0)
        bx, by = pattern_vectors(32, 32)
        # the factors are the block patterns plus NOISE_STD times the
        # deviates of the first two draws, and s = u'u of the latent
        # series, drawn after them
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(data.a, bx + NOISE_STD * ndtri(rng.random(32)))
        np.testing.assert_array_equal(data.b, by + NOISE_STD * ndtri(rng.random(32)))
        u = ndtri(rng.random(16))
        assert data.s == float(u @ u) > 0

    def test_noise_variance_moment(self):
        # empirical entry variance of the drawn pattern noise near 0.01
        n = 512
        data = scca_generate(n, n, 8, seed=5)
        bx, by = pattern_vectors(n, n)
        xi = np.concatenate([data.a - bx, data.b - by])
        var = float(np.var(xi))
        assert abs(var - 0.01) <= 0.2 * 0.01

    def test_gate_data_bytes_pinned(self):
        # the gate's data, as drawn through scipy.special.ndtri before
        # the port replaced it
        data = scca_generate(200, 200, 200, seed=1)
        digest = hashlib.sha256(data.a.tobytes() + data.b.tobytes()
                                + np.float64(data.s).tobytes()).hexdigest()
        assert digest == "a2676e3e5f5c52a7072f95749d7c83127ad4ecea1d9627b991efb74d606c6612"

    def test_symmetry_psd(self):
        # the problem's quadratic forms are those of Sxx = s a a',
        # Syy = s b b' and Sxy = s a b', built here as dense matrices:
        # symmetric, positive semidefinite and rank one
        data = scca_generate(32, 32, 32, seed=1)
        a, b, s = data.a, data.b, data.s
        sxx, syy, sxy = s * np.outer(a, a), s * np.outer(b, b), s * np.outer(a, b)
        np.testing.assert_allclose(sxx, sxx.T)
        assert np.linalg.eigvalsh(sxx).min() >= -1e-9
        assert np.linalg.matrix_rank(sxy) == 1
        p = scca_problem(data, 1e-2)
        rng = np.random.default_rng(1)
        for _ in range(3):
            z = rng.standard_normal(p.n)
            wx, wy, sl = z[:32], z[32:64], z[64:]
            assert p.f(z) == pytest.approx(-(wx @ sxy @ wy), rel=1e-12)
            np.testing.assert_allclose(p.c(z), [wx @ sxx @ wx - sl[0],
                                                wy @ syy @ wy - sl[1]], rtol=1e-12)
            np.testing.assert_allclose(p.g(z)[:64],
                                       np.concatenate([-sxy @ wy, -sxy.T @ wx]),
                                       rtol=1e-12)
            J = p.J(z)
            np.testing.assert_allclose(J[0, :32], 2.0 * sxx @ wx, rtol=1e-12)
            np.testing.assert_allclose(J[1, 32:64], 2.0 * syy @ wy, rtol=1e-12)


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


class TestNdtri:
    """The Cephes port returns scipy.special.ndtri's bits."""

    def test_bitwise_on_pcg64_uniforms(self):
        u = np.random.default_rng(20250101).random(1_200_000)
        np.testing.assert_array_equal(bits(ndtri(u)), bits(scipy.special.ndtri(u)))

    def test_branch_boundaries(self):
        # the centre ends at exp(-2) and 1 - exp(-2); below exp(-32) the
        # tail switches from P1/Q1 to P2/Q2
        e2, e32 = math.exp(-2), math.exp(-32)
        edges = [e2, 1.0 - e2, e32, 0.5]
        p = np.array([0.0, 1.0, 1e-15, 1e-300, 5e-324, np.nextafter(1.0, 0.0)]
                     + edges + [np.nextafter(t, 0.0) for t in edges]
                     + [np.nextafter(t, 1.0) for t in edges])
        np.testing.assert_array_equal(bits(ndtri(p)), bits(scipy.special.ndtri(p)))
        assert ndtri(0.0) == -np.inf and ndtri(1.0) == np.inf
        assert ndtri(0.5) == 0.0
        assert np.all(np.isnan(ndtri([np.nan, -0.5, 1.5])))


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
        met = scca_metrics(x0[:nx], x0[nx:nx + data.n_y], data)
        assert p.f(x0) == pytest.approx(-met.rho_xy, abs=1e-12)


class TestInit:
    def test_variances_exactly_one(self):
        data = scca_generate(64, 64, 64, seed=4)
        x0 = scca_init(data)
        wx, wy = x0[:64], x0[64:128]
        # the variances s (w_x'a)^2 and s (w_y'b)^2
        assert data.s * (wx @ data.a) ** 2 == pytest.approx(1.0, abs=1e-14)
        assert data.s * (wy @ data.b) ** 2 == pytest.approx(1.0, abs=1e-14)
        met = scca_metrics(wx, wy, data)
        assert max(met.voc_x, met.voc_y) <= 1e-14
        np.testing.assert_allclose(x0[-2:], [1.0, 1.0])

    def test_noiseless_recovers_blocks(self):
        data = scca_generate(32, 32, 32, seed=0)
        bx, by = pattern_vectors(32, 32)
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(data.a, bx + NOISE_STD * ndtri(rng.random(32)))
        # the same draw with the noise taken out of both factors
        data = dataclasses.replace(data, a=bx, b=by)
        x0 = scca_init(data)
        met = scca_metrics(x0[:32], x0[32:64], data)
        assert met.rho_xy == pytest.approx(1.0, abs=1e-6)
        wx = x0[:32]
        # recovered direction proportional to the pattern
        scale = wx[0] / bx[0]
        np.testing.assert_allclose(wx, scale * bx, rtol=1e-15, atol=0)

    def test_deterministic(self):
        data = scca_generate(64, 64, 64, seed=9)
        np.testing.assert_array_equal(scca_init(data), scca_init(data))

    @pytest.mark.parametrize("n, seed", [(48, 1), (200, 1), (200, 2), (400, 3)])
    def test_closed_form_on_both_constraints(self, n, seed):
        # w = a / (sqrt(s) |a|^2) per view: unit variance, correlation +1
        data = scca_generate(n, n, n, seed=seed)
        p = scca_problem(data, 1e-2)
        x0 = p.x0
        for w, factor in ((x0[:n], data.a), (x0[n:2 * n], data.b)):
            closed_form = factor / (np.sqrt(data.s) * np.linalg.norm(factor) ** 2)
            np.testing.assert_allclose(w, closed_form, rtol=1e-14, atol=0)
        assert np.abs(p.c(x0)).max() <= 1e-14
        assert p.f(x0) == pytest.approx(-1.0, abs=1e-14)


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

    def test_off_support_counted(self):
        data = scca_generate(32, 32, 16, seed=0)
        wx = np.zeros(32)
        wx[10] = 0.5  # outside the first quarter
        wy = np.zeros(32)
        wy[5] = 0.5   # inside the first three quarters
        met = scca_metrics(wx, wy, data)
        assert met.sl == 2


class TestGateGrid:
    """The gate grid, data seed 1, solved as the benchmark does: with
    perfbench's ``SCCA_CONFIG``, alpha0 = 1e-3.

    The Lagrangian's gradient hardly moves along the accepted steps of the
    rank-one problem (its Lipschitz estimate stays below 1e-8), so
    ``update_alpha`` lifts alpha to ``ALPHA_MAX`` after the first accepted step
    and each cell ends in 3 iterations.  The
    iteration bound leaves room for another BLAS build's dot products,
    which may round differently.
    """

    CELLS = ((200, 1e-2), (200, 1e-3), (400, 1e-2), (400, 1e-3))

    @staticmethod
    def solve_grid(alpha0):
        out = {}
        for n, lam in TestGateGrid.CELLS:
            data = scca_generate(n, n, n, seed=1)
            p = scca_problem(data, lam)
            out[n, lam] = (data, p, solve(p, SolverConfig(alpha0=alpha0)))
        return out

    @pytest.fixture(scope="class")
    def runs(self):
        return self.solve_grid(1e-3)

    def test_every_cell_passes_criterion_1(self, runs):
        for (n, lam), (data, p, rep) in runs.items():
            met = scca_metrics(rep.x[:n], rep.x[n:2 * n], data)
            assert rep.status == "KktPoint", (n, lam)
            assert met.rho_xy >= 0.999 and met.sl == 0, (n, lam, met)
            assert max(met.voc_x, met.voc_y) <= 1e-6, (n, lam, met)
            # sr >= 0.98 is stated at lambda = 1e-2 only
            assert lam != 1e-2 or met.sr >= 0.98, (n, lam, met)
            # the report certifies g_r in lam * d|x| at the reported x
            chi, parts = kkt_residual(p, rep.x, rep.y, rep.z, rep.g_r)
            assert chi == rep.chi, (n, lam)
            assert parts.subgradient_margin <= SolverConfig().tol_stat, (n, lam, parts)

    def test_grid_takes_at_most_15_iterations(self, runs):
        # doubling alone from alpha0 = 1e-3 reaches the cap of 10 at k = 14,
        # and the grid took 83 iterations (76 from alpha0 = 10); the flat
        # Lagrangian lets alpha jump past the cap on the first accepted step
        for alpha0, grid in ((1e-3, runs), (10.0, self.solve_grid(10.0))):
            assert sum(rep.iterations for _, _, rep in grid.values()) <= 15, alpha0
            for (n, lam), (data, _, rep) in grid.items():
                assert rep.status == "KktPoint", (n, lam, alpha0)
                alphas = [r.alpha for r in rep.records]
                assert ALPHA_CAP < max(alphas) <= ALPHA_MAX, (n, lam, alpha0)
                met = scca_metrics(rep.x[:n], rep.x[n:2 * n], data)
                assert met.rho_xy >= 0.999 and met.sl == 0, (n, lam, alpha0, met)

    @pytest.mark.parametrize("n", [1600, 3200, 12800])
    def test_large_cells_meet_criterion_1(self, n):
        # the factor-form evaluators cost O(n) a point; at n = 12800 the
        # dense covariances took 52 s for 8 iterations
        data = scca_generate(n, n, n, seed=1)
        p = scca_problem(data, 1e-2)
        rep = solve(p, SolverConfig(alpha0=1e-3))
        assert rep.status == "KktPoint" and rep.iterations <= 5, (rep.status, rep.iterations)
        met = scca_metrics(rep.x[:n], rep.x[n:2 * n], data)
        assert met.rho_xy >= 0.999 and met.sl == 0 and met.sr >= 0.98, met
        assert max(met.voc_x, met.voc_y) <= 1e-6, met
        chi, parts = kkt_residual(p, rep.x, rep.y, rep.z, rep.g_r)
        assert chi == rep.chi
        assert parts.subgradient_margin <= SolverConfig().tol_stat, parts

    def test_large_cap_does_not_stop_at_a_dense_point(self, monkeypatch):
        # with a cap of 1000 the step outruns the subgradient: g_r from the
        # tangential solve lies in lam * d|w| at the trial point, and a stop
        # test that took it as is ended KktPoint after 4 iterations with 299
        # of 400 weights nonzero (sl = 199, sr = 0.253, on one BLAS thread)
        monkeypatch.setattr(globalization, "ALPHA_CAP", 1000.0)
        n = 200
        data = scca_generate(n, n, n, seed=1)
        rep = solve(scca_problem(data, 1e-2), SolverConfig(alpha0=1e-3))
        if rep.status == "KktPoint":
            met = scca_metrics(rep.x[:n], rep.x[n:2 * n], data)
            assert met.sl == 0 and met.sr >= 0.98 and met.rho_xy >= 0.999, met

    def test_ledger_independent_of_blas_threads(self):
        # the seed-1 n = 200, lambda = 1e-2 cell, solved in fresh processes
        # on one and on two BLAS threads, writes the same ledger
        script = (
            "from pgcon.driver import SolverConfig, ledger_to_csv, solve\n"
            "from pgcon.scca import scca_generate, scca_problem\n"
            "p = scca_problem(scca_generate(200, 200, 200, seed=1), 1e-2)\n"
            "print(ledger_to_csv(solve(p, SolverConfig(alpha0=1e-3)).records), end='')\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True).stdout
            assert out.count("\n") > 2
            digests.append(hashlib.sha256(out.encode()).hexdigest())
        assert digests[0] == digests[1]
