"""The bounded least-squares kernel pgcon.qp, the trust-region step's QP.
test_acceptance.py::test_criterion_5_qp_oracle_equivalence checks it
against enumeration on 200 random draws."""

import numpy as np
import pytest

import pgcon.qp as qp_mod
from qp_oracle import enumerate_qp


class TestBoundTies:
    """The kernel where two bounds are reached at once."""

    @pytest.mark.parametrize("upper1", [2.0, np.nextafter(2.0, 0.0)])
    def test_ends_exactly_on_both_bounds(self, upper1):
        # the kernel on min 0.5||x - (2, 4)||^2: from the interior point 0
        # toward the target (2, 4) both upper bounds are reached at step
        # length 0.5, exactly or one ulp apart; the solve ends on both
        # bounds, exactly, as the enumeration does
        c0, lower, upper = np.array([-2.0, -4.0]), -np.ones(2), np.array([1.0, upper1])
        sol = qp_mod.solve_qp(np.eye(2), c0, lower, upper)
        ref = enumerate_qp(np.eye(2), c0, None, None, lower, upper)
        assert sol.status == "solved"
        np.testing.assert_array_equal(sol.primal, ref[0])
        np.testing.assert_allclose(sol.bound_duals, ref[2], atol=1e-12)


class TestKernel:
    """pgcon.qp.solve_qp, the bounded least-squares kernel of the
    trust-region step."""

    def test_tiny_box_duals_sign_feasible(self):
        # a trust-region subproblem of fuzz rng 7, trial 16, with radius
        # r = 2.7e-14 and a model value near 5.6e-21: the solve ends on
        # (r, r, 0, r), at a model value no higher than the 5.5697e-21 of
        # the all-lower point, with sign-feasible duals
        G = np.array([[-2.230528902271529, 0.7498198819099152,
                       -0.6300306998045586, 0.48129366424513825],
                      [1.872635858619944, 1.172995707132864,
                       -1.1511348379469908, 0.8692489864766937]])
        c0 = np.array([-6.491024384658317e-11, -8.313990115934797e-11])
        r = 2.665971342596269e-14
        lower = np.array([-r, -r, 0.0, -r])
        upper = np.full(4, r)
        sol = qp_mod.solve_qp(G, c0, lower, upper)
        assert sol.status == "solved"
        assert sol.iterations == 3
        np.testing.assert_array_equal(sol.primal, [r, r, 0.0, r])
        z = sol.bound_duals
        assert np.all(z[sol.primal == lower] <= 0.0)
        assert np.all(z[sol.primal == upper] >= 0.0)
        assert np.all(z[(sol.primal > lower) & (sol.primal < upper)] == 0.0)

        def model(x):
            return 0.5 * float(np.sum((c0 + G @ x) ** 2))

        assert model(sol.primal) <= model(lower)
        assert model(lower) == pytest.approx(5.5697e-21, rel=1e-4)

    def test_wide_clipped_ball_solves_in_few_iterations(self):
        # shaped like the trust-region step of the SCCA n = 6400 cell: two
        # rows, 4000 columns, and an infinity-ball that clips nearly every
        # component; a tenth of them sit on a box bound at zero
        rng = np.random.default_rng(64)
        d = 4000
        G = rng.standard_normal((2, d))
        c0 = 10.0 * rng.standard_normal(2)
        radius = 1e-3
        lower = np.where(rng.random(d) < 0.1, 0.0, -radius)
        upper = np.full(d, radius)
        sol = qp_mod.solve_qp(G, c0, lower, upper)
        assert sol.status == "solved"
        assert sol.iterations <= 10
        x, z = sol.primal, sol.bound_duals
        at_lo, at_hi = x == lower, x == upper
        assert np.mean(at_lo | at_hi) > 0.99
        assert np.all(z[at_lo] <= 0.0) and np.all(z[at_hi] >= 0.0)
        assert np.all(z[~(at_lo | at_hi)] == 0.0)
        grad = G.T @ (c0 + G @ x)
        np.testing.assert_array_equal(z[z != 0.0], -grad[z != 0.0])
        free_grad = grad[z == 0.0]
        tol = 1e-10 * np.linalg.norm(G) * np.linalg.norm(c0)
        assert np.abs(free_grad).max(initial=0.0) <= tol


class TestExits:
    """The kernel's two exits short of its gradient test."""

    def test_no_descent_left_ends_in_the_box(self, monkeypatch):
        # runs _armijo's `return None` and solve_qp's no-descent `break`:
        # the trust-region subproblem of fuzz rng 7 #108, whose Newton path
        # stops giving an Armijo decrease before the gradient test passes.
        # The iteration count moves with the BLAS kernel, so it is not pinned.
        G = np.array([[-0.3308714856245393, 0.6613789366010102],
                      [-0.7734350036082451, 1.5672129296601351]])
        c0 = np.array([-0.3244007758709751, -0.36472585722695317])
        radius = 0.007308083799400975
        lower, upper = np.full(2, -radius), np.full(2, radius)
        real, answers = qp_mod._armijo, []

        def armijo(*args):
            answers.append(real(*args))
            return answers[-1]

        monkeypatch.setattr(qp_mod, "_armijo", armijo)
        sol = qp_mod.solve_qp(G, c0, lower, upper)
        assert answers[-1] is None
        assert sol.status == "solved"
        assert np.all((lower <= sol.primal) & (sol.primal <= upper))

        def model(x):
            return 0.5 * float(np.sum((c0 + G @ x) ** 2))

        assert model(sol.primal) <= model(np.zeros(2))

    def test_max_iter_exit_forms_the_duals_at_the_last_point(self, monkeypatch):
        # runs the loop's `else` branch: a stand-in _armijo that returns the
        # point it was given never converges.  From x = 0, component 0 sits
        # on its lower bound with an outward gradient 2, so it is held with
        # dual -2; component 1 is free
        monkeypatch.setattr(qp_mod, "_armijo", lambda G, x, r, direction, lo, hi: x)
        sol = qp_mod.solve_qp(np.eye(2), np.array([2.0, -4.0]), np.array([0.0, -1.0]),
                              np.ones(2))
        assert sol.status == "max_iter"
        assert sol.iterations == 100
        np.testing.assert_array_equal(sol.primal, [0.0, 0.0])
        np.testing.assert_array_equal(sol.bound_duals, [-2.0, 0.0])
