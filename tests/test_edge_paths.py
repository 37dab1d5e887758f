"""Status-taxonomy branches and loader paths that the mainline tests do
not reach."""

import dataclasses

import numpy as np
import pytest

import pgcon.globalization as glob
from pgcon.corpus import get_instance
from pgcon.driver import SolverConfig, solve
from pgcon.problem import BoxSet, L1Regularizer, ProblemInstance, load_problem
from pgcon.scca import scca_generate


class TestStatusBranches:
    def test_merit_collapse(self, monkeypatch):
        # force the floor above the initial weight: the first update trips it
        monkeypatch.setattr(glob, "TAU_FLOOR", 1.1)
        inst = get_instance("l1-sign-1")
        rep = solve(inst.problem, SolverConfig())
        assert rep.status == "MeritCollapse"

    def test_alpha_floor_stall(self, monkeypatch):
        monkeypatch.setattr(glob, "ALPHA_FLOOR", 1.0)
        # steep curvature rejects large-alpha steps repeatedly
        p = ProblemInstance(
            name="steep", n=1, m=0,
            f_eval=lambda x: 50.0 * float(x[0] ** 2),
            g_eval=lambda x: np.array([100.0 * x[0]]),
            c_eval=lambda x: np.zeros(0),
            J_eval=lambda x: np.zeros((0, 1)),
            reg=L1Regularizer(np.zeros(1)),
            box=BoxSet.free(1), x0=np.array([1.0]),
        )
        rep = solve(p, SolverConfig(alpha0=10.0))
        assert rep.status == "Stalled"

    def test_projection_warning(self):
        inst = get_instance("eq-quad-1")
        with pytest.warns(UserWarning, match="projected"):
            solve(dataclasses.replace(inst.problem, x0=np.array([-1.0, 2.0])),
                  SolverConfig(max_iter=2))


class TestLoaders:
    def test_scca_kind(self):
        p = load_problem({
            "name": "s", "kind": "scca",
            "data": {"n_x": 64, "n_y": 64, "N": 64, "seed": 3, "lam": 1e-2},
        })
        assert p.n == 130 and p.m == 2
        # scca_init's closed-form start, not the zero default: nonzero
        # weights and both slacks at 1
        assert np.all(p.x0[:128] != 0.0)
        np.testing.assert_array_equal(p.x0[128:], [1.0, 1.0])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            load_problem({"name": "x", "kind": "martian"})


class TestGeneratorGroundTruth:
    def test_block_cross_correlation(self):
        # rows in the signal blocks correlate across views, with opposite
        # signs; rows in the zero blocks carry only the (weak) noise channel
        data = scca_generate(200, 200, 200, seed=0)
        assert np.all(data.a[:25] > 0) and np.all(data.b[175:] < 0)
        # Sxy_ij / sqrt(Sxx_ii Syy_jj) with Sxy = s a b', Sxx = s a a', Syy = s b b'
        corr = data.s * np.outer(data.a, data.b) / np.sqrt(
            np.outer(data.s * data.a ** 2, data.s * data.b ** 2))
        np.testing.assert_allclose(corr[:25, 175:], -1.0, atol=1e-12)
        assert np.abs(data.a[50:]).max() < np.abs(data.a[:50]).min()
