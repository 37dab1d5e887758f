import json

import numpy as np
import pytest

from pgcon.driver import SolverConfig, solve
from pgcon.problem import (
    BoxSet,
    EvaluationError,
    L1Regularizer,
    ProblemInstance,
    add_slacks,
    check_derivatives,
    load_problem,
    problem_to_dict,
    scale_factors,
)


def quadratic_1d():
    return ProblemInstance(
        name="quad1d",
        n=1,
        m=0,
        f_eval=lambda x: float(x[0] ** 2),
        g_eval=lambda x: np.array([2 * x[0]]),
        c_eval=lambda x: np.zeros(0),
        J_eval=lambda x: np.zeros((0, 1)),
        reg=L1Regularizer(np.zeros(1)),
        box=BoxSet.free(1),
    )


class TestBox:
    def test_rejects_crossed_bounds(self):
        with pytest.raises(ValueError):
            BoxSet(np.array([1.0]), np.array([0.0]))

    def test_orthant_detection(self):
        assert BoxSet.nonnegative(3).is_orthant()
        assert not BoxSet.free(3).is_orthant()


class TestRegularizer:
    def test_value_and_nonnegativity(self):
        reg = L1Regularizer(np.array([1.0, 1.0]))
        assert reg.value(np.array([2.0, -3.0])) == 5.0
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert reg.value(rng.standard_normal(2)) >= 0.0

    def test_convexity_random(self):
        rng = np.random.default_rng(1)
        reg = L1Regularizer(rng.random(5))
        for _ in range(100):
            x, y = rng.standard_normal(5), rng.standard_normal(5)
            th = rng.random()
            lhs = reg.value(th * x + (1 - th) * y)
            rhs = th * reg.value(x) + (1 - th) * reg.value(y)
            assert lhs <= rhs + 1e-12

    def test_subgradient_at_nonzero(self):
        reg = L1Regularizer(np.array([1.0, 1.0]))
        assert reg.is_subgradient(np.array([2.0, -3.0]), np.array([1.0, -1.0]), 1e-10)

    def test_subgradient_zero_weight_component(self):
        reg = L1Regularizer(np.array([1.0, 0.0]))
        x = np.array([0.0, 4.0])
        assert reg.is_subgradient(x, np.array([0.5, 0.0]), 1e-10)
        assert not reg.is_subgradient(x, np.array([1.5, 0.0]), 1e-10)

    def test_subdifferential_boundary_at_zero(self):
        reg = L1Regularizer(np.array([2.0, 2.0]))
        assert reg.is_subgradient(np.zeros(2), np.array([2.0, -2.0]), 1e-12)


class TestDerivativeCheck:
    def test_quadratic_exact(self):
        p = quadratic_1d()
        rep = check_derivatives(p, np.array([3.0]), h=1e-5)
        assert rep.g_err <= 1e-8

    def test_linear_constraint_exact(self):
        p = ProblemInstance(
            name="lin",
            n=2,
            m=1,
            f_eval=lambda x: 0.0,
            g_eval=lambda x: np.zeros(2),
            c_eval=lambda x: np.array([x[0] + x[1] - 1.0]),
            J_eval=lambda x: np.array([[1.0, 1.0]]),
            reg=L1Regularizer(np.zeros(2)),
            box=BoxSet.free(2),
        )
        # dyadic point and step so the central difference cancels exactly
        rep = check_derivatives(p, np.array([0.25, 0.5]), h=2.0 ** -20)
        assert rep.J_err == 0.0

    def test_nan_reported(self):
        p = ProblemInstance(
            name="bad",
            n=1,
            m=0,
            f_eval=lambda x: float("nan"),
            g_eval=lambda x: np.zeros(1),
            c_eval=lambda x: np.zeros(0),
            J_eval=lambda x: np.zeros((0, 1)),
            reg=L1Regularizer(np.zeros(1)),
            box=BoxSet.free(1),
        )
        with pytest.raises(EvaluationError):
            check_derivatives(p, np.zeros(1))


class TestScaling:
    def make(self, gnorm, jnorm):
        return ProblemInstance(
            name="s",
            n=2,
            m=1,
            f_eval=lambda x: gnorm * x[0],
            g_eval=lambda x: np.array([gnorm, 0.0]),
            c_eval=lambda x: np.array([jnorm * x[1]]),
            J_eval=lambda x: np.array([[0.0, jnorm]]),
            reg=L1Regularizer(np.zeros(2)),
            box=BoxSet.free(2),
        )

    @staticmethod
    def factors(p):
        x0 = np.zeros(p.n)
        return scale_factors(p.g(x0), p.J(x0))

    def test_large_gradient_scaled(self):
        info = self.factors(self.make(400.0, 1.0))
        assert info.objective_factor == pytest.approx(0.25)
        assert info.constraint_factors[0] == 1.0

    def test_small_gradient_untouched(self):
        info = self.factors(self.make(50.0, 1.0))
        assert info.objective_factor == 1.0

    def test_constraint_factor(self):
        info = self.factors(self.make(1.0, 1000.0))
        assert info.constraint_factors[0] == pytest.approx(0.1)

    def test_feasible_set_and_objective_preserved(self):
        # min 200 ((x0 - 1)^2 + x1^2) + 50 |x1|  s.t.  1000 (x0 + x1 - 0.5) = 0
        # has its minimizer at (0.6875, -0.1875); from the origin scaling
        # divides f and the l1 weights by 4 and c by 10
        base = ProblemInstance(
            name="big", n=2, m=1,
            f_eval=lambda x: 200.0 * float((x[0] - 1.0) ** 2 + x[1] ** 2),
            g_eval=lambda x: np.array([400.0 * (x[0] - 1.0), 400.0 * x[1]]),
            c_eval=lambda x: np.array([1000.0 * (x[0] + x[1] - 0.5)]),
            J_eval=lambda x: np.array([[1000.0, 1000.0]]),
            reg=L1Regularizer(np.array([0.0, 50.0])), box=BoxSet.free(2), x0=np.zeros(2))
        info = self.factors(base)
        assert (info.objective_factor, info.constraint_factors[0]) == (0.25, 0.1)
        scaled = solve(base, SolverConfig(alpha0=1e-3))
        plain = solve(base, SolverConfig(alpha0=1e-3, scaling=False))
        assert scaled.status == plain.status == "KktPoint"
        np.testing.assert_allclose(scaled.x, [0.6875, -0.1875], atol=1e-6)
        np.testing.assert_allclose(scaled.x, plain.x, atol=1e-6)
        # the report speaks the caller's units without a round trip
        assert scaled.f_unscaled == base.f(scaled.x)
        assert scaled.objective == base.f(scaled.x) + base.reg.value(scaled.x)
        assert scaled.c_norm == float(np.linalg.norm(base.c(scaled.x)))


class TestAddSlacks:
    def test_single_inequality(self):
        # w <= 1 becomes w - s = 0, s <= 1
        p = add_slacks(
            "ineq",
            1,
            f_eval=lambda x: 0.0,
            g_eval=lambda x: np.zeros(1),
            cE_eval=None,
            JE_eval=None,
            cI_eval=lambda x: np.array([x[0]]),
            JI_eval=lambda x: np.array([[1.0]]),
            m_eq=0,
            m_ineq=1,
            x_lower=[-np.inf],
            x_upper=[np.inf],
            c_lower=[-np.inf],
            c_upper=[1.0],
            x0=[0.5, 0.25],
        )
        assert p.n == 2 and p.m == 1
        assert p.x0.tolist() == [0.5, 0.25]
        z = np.array([0.7, 0.7])
        np.testing.assert_allclose(p.c(z), [0.0])
        assert p.box.upper[1] == 1.0 and np.isneginf(p.box.lower[1])

    def test_no_inequalities_identity(self):
        p = add_slacks(
            "plain",
            1,
            f_eval=lambda x: float(x[0]),
            g_eval=lambda x: np.ones(1),
            cE_eval=lambda x: np.array([x[0] - 1.0]),
            JE_eval=lambda x: np.ones((1, 1)),
            cI_eval=None,
            JI_eval=None,
            m_eq=1,
            m_ineq=0,
            x_lower=[0.0],
            x_upper=[np.inf],
            x0=[2.0],
        )
        assert p.n == 1 and p.m == 1
        assert p.x0.tolist() == [2.0]

    def test_feasibility_equivalence_random(self):
        # (x, s) feasible for output iff x feasible for input
        rng = np.random.default_rng(3)
        p = add_slacks(
            "rand",
            2,
            f_eval=lambda x: 0.0,
            g_eval=lambda x: np.zeros(2),
            cE_eval=lambda x: np.array([x[0] + x[1] - 1.0]),
            JE_eval=lambda x: np.array([[1.0, 1.0]]),
            cI_eval=lambda x: np.array([x[0] ** 2]),
            JI_eval=lambda x: np.array([[2 * x[0], 0.0]]),
            m_eq=1,
            m_ineq=1,
            x_lower=[-5.0, -5.0],
            x_upper=[5.0, 5.0],
            c_lower=[0.0],
            c_upper=[2.0],
        )
        for _ in range(50):
            x = rng.uniform(-2, 2, size=2)
            s = np.array([x[0] ** 2])
            z = np.concatenate([x, s])
            eq_ok = abs(x[0] + x[1] - 1.0) < 1e-12
            ineq_ok = 0.0 <= x[0] ** 2 <= 2.0
            lifted_ok = np.allclose(p.c(z), [x[0] + x[1] - 1.0, 0.0]) and p.box.contains(z)
            assert lifted_ok == (p.box.contains(z) and True)
            if eq_ok and ineq_ok:
                assert np.allclose(p.c(z)[1], 0.0) and p.box.contains(z)

    def test_rejects_crossed_inequality_bounds(self):
        with pytest.raises(ValueError):
            add_slacks(
                "bad", 1,
                f_eval=lambda x: 0.0, g_eval=lambda x: np.zeros(1),
                cE_eval=None, JE_eval=None,
                cI_eval=lambda x: x, JI_eval=lambda x: np.eye(1),
                m_eq=0, m_ineq=1,
                x_lower=[0.0], x_upper=[1.0], c_lower=[2.0], c_upper=[1.0],
            )


class TestJsonRoundtrip:
    def test_quadratic_file(self, tmp_path):
        Q = np.array([[2.0, 0.0], [0.0, 2.0]])
        lin = np.array([-2.0, 0.0])
        A = np.array([[1.0, 1.0]])
        b = np.array([1.0])
        spec = problem_to_dict("toy", Q, lin, A, b, l1_weights=[0.0, 0.5],
                               box=BoxSet.nonnegative(2), x0=[0.5, 0.5])
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(spec))
        p = load_problem(str(path))
        assert p.n == 2 and p.m == 1
        x = np.array([0.25, 0.75])
        assert p.f(x) == pytest.approx(0.5 * x @ Q @ x + lin @ x)
        np.testing.assert_allclose(p.c(x), A @ x - b)
        assert p.reg.weights[1] == 0.5
        assert p.box.is_orthant()
        np.testing.assert_allclose(p.x0, [0.5, 0.5])

    def test_inf_sentinels(self, tmp_path):
        spec = {
            "name": "inftest", "kind": "quadratic", "n": 1, "m": 0,
            "data": {"Q": [[1.0]], "c": [0.0]},
            "box": {"lower": ["-inf"], "upper": [3.0]},
        }
        p = load_problem(spec)
        assert np.isneginf(p.box.lower[0]) and p.box.upper[0] == 3.0
