import dataclasses

import numpy as np
import pytest

from pgcon.corpus import get_instance
from pgcon.driver import SolverConfig, kkt_residual, solve
from pgcon.geometry import PointData, kkt_parts
from pgcon.problem import (
    BoxSet,
    EvaluationError,
    L1Regularizer,
    ProblemInstance,
    add_slacks,
    check_derivatives,
    load_problem,
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
        assert BoxSet.nonnegative(3).orthant
        assert not BoxSet.free(3).orthant

    @pytest.mark.parametrize("lower, upper, match", [
        ([np.nan, 0.0], [1.0, 1.0], "NaN"),
        ([0.0, 0.0], [1.0, np.nan], "NaN"),
        ([np.inf, 0.0], [np.inf, 1.0], "lower_i = inf"),
        ([0.0, -np.inf], [1.0, -np.inf], "upper_i = -inf"),
    ], ids=["nan-lower", "nan-upper", "inf-lower", "-inf-upper"])
    def test_rejects_non_finite_ends(self, lower, upper, match):
        # -inf below and +inf above are the only infinite bounds
        with pytest.raises(ValueError, match=match):
            BoxSet(np.array(lower), np.array(upper))

    @pytest.mark.parametrize("x0", [[np.nan], [np.inf], [-np.inf]],
                             ids=["nan", "inf", "-inf"])
    def test_start_must_be_finite(self, x0):
        # the free box admits any finite point, so a non-finite one would
        # reach f
        p = quadratic_1d()
        with pytest.raises(ValueError, match="x0 must be finite"):
            ProblemInstance(p.name, p.n, p.m, p.f_eval, p.g_eval, p.c_eval,
                            p.J_eval, p.reg, p.box, x0=np.array(x0))

    def test_fixed_components(self):
        box = BoxSet(np.array([0.0, 1.0, -np.inf, 2.0]), np.array([1.0, 1.0, np.inf, 2.0]))
        np.testing.assert_array_equal(box.fixed, [False, True, False, True])
        assert not box.fixed.flags.writeable


class TestRegularizer:
    def test_value_and_nonnegativity(self):
        reg = L1Regularizer(np.array([1.0, 1.0]))
        assert reg.value(np.array([2.0, -3.0])) == 5.0
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert reg.value(rng.standard_normal(2)) >= 0.0

    @pytest.mark.parametrize("w", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_weight(self, w):
        with pytest.raises(ValueError, match="l1 weights must be finite"):
            L1Regularizer(np.array([1.0, w]))

    def test_convexity_random(self):
        rng = np.random.default_rng(1)
        reg = L1Regularizer(rng.random(5))
        for _ in range(100):
            x, y = rng.standard_normal(5), rng.standard_normal(5)
            th = rng.random()
            lhs = reg.value(th * x + (1 - th) * y)
            rhs = th * reg.value(x) + (1 - th) * reg.value(y)
            assert lhs <= rhs + 1e-12

    @staticmethod
    def margin(reg, x, g_r):
        """kkt_parts' membership margin of g_r in reg's lam * d|x|."""
        n = x.shape[0]
        box = BoxSet.free(n)
        return kkt_parts(np.zeros(n), np.zeros(0), np.zeros(n), box, reg.weights,
                         PointData(x, box), np.zeros(n), g_r).subgradient_margin

    def test_subgradient_at_nonzero(self):
        reg = L1Regularizer(np.array([1.0, 1.0]))
        x = np.array([2.0, -3.0])
        assert self.margin(reg, x, np.array([1.0, -1.0])) == 0.0
        assert self.margin(reg, x, np.array([-1.0, -1.0])) == 2.0

    def test_subgradient_zero_weight_component(self):
        reg = L1Regularizer(np.array([1.0, 0.0]))
        x = np.array([0.0, 4.0])
        assert self.margin(reg, x, np.array([0.5, 0.0])) == 0.0
        assert self.margin(reg, x, np.array([1.5, 0.0])) == 0.5

    def test_subdifferential_boundary_at_zero(self):
        reg = L1Regularizer(np.array([2.0, 2.0]))
        assert self.margin(reg, np.zeros(2), np.array([2.0, -2.0])) == 0.0


class TestCallerArrays:
    """A problem keeps read-only copies of the caller's weights and start,
    so editing the caller's arrays afterwards leaves it unchanged."""

    @staticmethod
    def build(w, x0):
        p = quadratic_1d()
        return ProblemInstance(p.name, p.n, p.m, p.f_eval, p.g_eval, p.c_eval,
                               p.J_eval, L1Regularizer(w), p.box, x0=x0)

    def test_editing_the_callers_arrays_leaves_the_problem(self):
        w, x0 = np.array([0.5]), np.array([2.0])
        p = self.build(w, x0)
        w[0], x0[0] = 7.0, -3.0
        assert p.reg.weights[0] == 0.5 and p.x0[0] == 2.0
        # a solve that reads p.reg as is (objective factor 1) sees no edit
        assert solve(p, SolverConfig()).objective == solve(
            self.build(np.array([0.5]), np.array([2.0])), SolverConfig()).objective

    def test_assigning_into_the_problem_raises(self):
        p = self.build(np.array([0.5]), np.array([2.0]))
        for a in (p.reg.weights, p.x0):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0


# n = 3, m = 2: min 0.5 |x - t|^2  s.t.  A x = b, with J_eval returning A'
# in place of A.  Reshaped to (2, 3) it would be a wrong J of the right
# shape, and the solve would run to MaxIter; with A it ends KktPoint
_A = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0]])
_T = np.array([1.0, -1.0, 2.0])


def transposed_jacobian():
    return ProblemInstance(
        name="transposed", n=3, m=2, f_eval=lambda x: 0.5 * float((x - _T) @ (x - _T)),
        g_eval=lambda x: x - _T, c_eval=lambda x: _A @ x - np.array([1.0, 0.5]),
        J_eval=lambda x: _A.T, reg=L1Regularizer(np.zeros(3)), box=BoxSet.free(3))


def kkt_of_eq_quad_1(**replaced):
    """kkt_residual at eq-quad-1's oracle, with some multipliers replaced."""
    inst = get_instance("eq-quad-1")
    mult = dict(y=inst.oracle_y, z=inst.oracle_z, g_r=inst.oracle_g_r) | replaced
    return kkt_residual(inst.problem, inst.oracle_x, **mult)


def flat_inequality_jacobian():
    """add_slacks with m_ineq = 1 and JI returning the row as a 1-D array."""
    p = add_slacks("flat", 2, lambda x: 0.0, lambda x: np.zeros(2), None, None,
                   lambda x: np.array([x[0] + x[1]]), lambda x: np.ones(2), 0, 1,
                   np.full(2, -np.inf), np.full(2, np.inf), [-1.0], [1.0])
    return p.J(np.zeros(3))


def long_inequality_gradient():
    """add_slacks with n = 2 and g returning three entries."""
    p = add_slacks("long", 2, lambda x: 0.0, lambda x: np.zeros(3), None, None,
                   lambda x: np.array([x[0] + x[1]]), lambda x: np.ones((1, 2)), 0, 1,
                   np.full(2, -np.inf), np.full(2, np.inf), [-1.0], [1.0])
    return p.g(np.zeros(3))


def equalities_only(long):
    """add_slacks with m_ineq = 0, n = 1 and cE or g returning two entries."""
    return add_slacks("plain", 1, lambda x: 0.0, lambda x: np.zeros(1 + (long == "g")),
                      lambda x: np.zeros(1 + (long == "cE")), lambda x: np.ones((1, 1)),
                      None, None, 1, 0, [0.0], [np.inf])


class TestEntryChecks:
    """Each entry check rejects a malformed input and names what is wrong."""

    @pytest.mark.parametrize("make, message", [
        (lambda: BoxSet(0.0, 1.0), "box.lower has shape (), the problem needs (n,)"),
        (lambda: BoxSet(np.zeros((2, 2)), np.ones(2)),
         "box.lower has shape (2, 2), the problem needs (n,)"),
        (lambda: BoxSet(np.zeros((1, 3)), np.ones((1, 3))),
         "box.lower has shape (1, 3), the problem needs (n,)"),
        (lambda: BoxSet(np.zeros(2), np.ones(3)),
         "box.upper has shape (3,), the problem needs (2,)"),
        (lambda: L1Regularizer(np.ones((1, 2))),
         "l1_weights has shape (1, 2), the problem needs (n,)"),
        (lambda: TestEntryChecks.instance(reg=L1Regularizer(np.zeros(3))),
         "l1_weights has shape (3,), the problem needs (2,)"),
        (lambda: TestEntryChecks.instance(box=BoxSet.free(1)),
         "box.lower has shape (1,), the problem needs (2,)"),
        (lambda: transposed_jacobian().J(np.zeros(3)),
         "transposed: Jacobian has shape (3, 2), the problem needs (2, 3)"),
        (lambda: solve(transposed_jacobian(), SolverConfig()),
         "transposed: Jacobian has shape (3, 2), the problem needs (2, 3)"),
        (lambda: dataclasses.replace(transposed_jacobian(),
                                     c_eval=lambda x: (_A @ x)[:, None]).c(np.zeros(3)),
         "transposed: constraint has shape (2, 1), the problem needs (2,)"),
        (flat_inequality_jacobian, "flat: JI has shape (2,), the problem needs (1, 2)"),
        (long_inequality_gradient, "long: g has shape (3,), the problem needs (2,)"),
        (lambda: equalities_only("cE").c(np.zeros(1)),
         "plain: cE has shape (2,), the problem needs (1,)"),
        (lambda: equalities_only("g").g(np.zeros(1)),
         "plain: g has shape (2,), the problem needs (1,)"),
        (lambda: kkt_of_eq_quad_1(g_r=[0.0]), "g_r has shape (1,), the problem needs (2,)"),
        (lambda: kkt_of_eq_quad_1(z=0.0), "z has shape (), the problem needs (2,)"),
    ], ids=["bounds-scalar", "bounds-2d-lower", "bounds-2d-both", "bounds-of-different-lengths",
            "weights-2d", "weights-of-the-wrong-length", "box-of-the-wrong-length",
            "transposed-jacobian", "transposed-jacobian-solve", "constraint-column",
            "add-slacks-flat-JI", "add-slacks-long-g", "add-slacks-no-inequalities-long-cE",
            "add-slacks-no-inequalities-long-g", "kkt-residual-length-1-g_r",
            "kkt-residual-scalar-z"])
    def test_names_the_array_and_both_shapes(self, make, message):
        """One shape rule, ``problem._float_array``, at every entry: a
        malformed array raises ValueError naming it and both shapes, before
        any iteration of a solve."""
        with pytest.raises(ValueError) as err:
            make()
        assert message in str(err.value)

    @staticmethod
    def instance(n=2, m=0, reg=None, box=None):
        return ProblemInstance(
            name="entry", n=n, m=m, f_eval=lambda x: 0.0, g_eval=lambda x: np.zeros(n),
            c_eval=lambda x: np.zeros(m), J_eval=lambda x: np.zeros((m, n)),
            reg=L1Regularizer(np.zeros(n)) if reg is None else reg,
            box=BoxSet.free(n) if box is None else box)

    def test_more_rows_than_variables(self):
        """ProblemInstance's m <= n check names m and n."""
        with pytest.raises(ValueError, match="require m <= n, got m = 3, n = 2"):
            self.instance(m=3)

    def test_negative_weight(self):
        """L1Regularizer's nonnegativity check."""
        with pytest.raises(ValueError, match="l1 weights must be nonnegative"):
            L1Regularizer(np.array([1.0, -0.5]))

    def test_zero_difference_step(self):
        """check_derivatives' h <= 0 check."""
        with pytest.raises(ValueError, match="step size must be positive"):
            check_derivatives(quadratic_1d(), np.zeros(1), h=0.0)

    @pytest.mark.parametrize("h", [np.nan, np.inf])
    def test_difference_step_not_finite(self, h):
        """check_derivatives names h where it enters, before an evaluator
        sees x + h e_i."""
        with pytest.raises(ValueError, match="step size must be positive and finite, got h="):
            check_derivatives(get_instance("circle-1").problem, np.ones(2), h=h)


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
        # divides f and the l1 weights by 4 and c by 10, which the twin
        # does by hand, so its own factors are 1
        base = ProblemInstance(
            name="big", n=2, m=1,
            f_eval=lambda x: 200.0 * float((x[0] - 1.0) ** 2 + x[1] ** 2),
            g_eval=lambda x: np.array([400.0 * (x[0] - 1.0), 400.0 * x[1]]),
            c_eval=lambda x: np.array([1000.0 * (x[0] + x[1] - 0.5)]),
            J_eval=lambda x: np.array([[1000.0, 1000.0]]),
            reg=L1Regularizer(np.array([0.0, 50.0])), box=BoxSet.free(2), x0=np.zeros(2))
        twin = ProblemInstance(
            name="big-by-hand", n=2, m=1,
            f_eval=lambda x: 50.0 * float((x[0] - 1.0) ** 2 + x[1] ** 2),
            g_eval=lambda x: np.array([100.0 * (x[0] - 1.0), 100.0 * x[1]]),
            c_eval=lambda x: np.array([100.0 * (x[0] + x[1] - 0.5)]),
            J_eval=lambda x: np.array([[100.0, 100.0]]),
            reg=L1Regularizer(np.array([0.0, 12.5])), box=BoxSet.free(2), x0=np.zeros(2))
        info, twin_info = self.factors(base), self.factors(twin)
        assert (info.objective_factor, info.constraint_factors[0]) == (0.25, 0.1)
        assert (twin_info.objective_factor, twin_info.constraint_factors[0]) == (1.0, 1.0)
        scaled = solve(base, SolverConfig(alpha0=1e-3))
        plain = solve(twin, SolverConfig(alpha0=1e-3))
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

    def test_no_rows_at_all(self):
        p = add_slacks("free", 2, lambda x: 0.0, lambda x: np.zeros(2), None, None,
                       None, None, 0, 0, np.zeros(2), np.ones(2))
        assert p.c(np.zeros(2)).shape == (0,) and p.J(np.zeros(2)).shape == (0, 2)
        np.testing.assert_array_equal(p.x0, np.zeros(2))

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

    def test_jacobian_calls_return_distinct_arrays(self):
        # the slack block -I is built once per instance; each call copies it
        # into a fresh array, so writing into one Jacobian leaves the next be
        p = add_slacks(
            "two", 1,
            f_eval=lambda x: 0.0, g_eval=lambda x: np.zeros(1),
            cE_eval=lambda x: x, JE_eval=lambda x: np.ones((1, 1)),
            cI_eval=lambda x: np.array([x[0], 2.0 * x[0]]),
            JI_eval=lambda x: np.array([[1.0], [2.0]]),
            m_eq=1, m_ineq=2,
            x_lower=[-1.0], x_upper=[1.0], c_lower=[0.0, 0.0], c_upper=[1.0, 1.0],
        )
        z = np.zeros(3)
        first = p.J(z)
        expected = np.array([[1.0, 0.0, 0.0], [1.0, -1.0, 0.0], [2.0, 0.0, -1.0]])
        np.testing.assert_array_equal(first, expected)
        first[:] = 7.0
        second = p.J(z)
        assert second is not first
        np.testing.assert_array_equal(second, expected)

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
        path = tmp_path / "toy.json"
        path.write_text("""{
            "name": "toy", "kind": "quadratic", "n": 2, "m": 1,
            "data": {"Q": [[2.0, 0.0], [0.0, 2.0]], "c": [-2.0, 0.0], "const": 0.0,
                     "A": [[1.0, 1.0]], "b": [1.0], "x0": [0.5, 0.5]},
            "l1_weights": [0.0, 0.5],
            "box": {"lower": [0.0, 0.0], "upper": ["inf", "inf"]}
        }""")
        p = load_problem(str(path))
        assert p.name == "toy" and p.n == 2 and p.m == 1
        x = np.array([0.25, 0.75])
        assert p.f(x) == pytest.approx(0.5 * x @ Q @ x + lin @ x)
        np.testing.assert_allclose(p.c(x), A @ x - b)
        assert p.reg.weights[1] == 0.5
        assert p.box.orthant
        np.testing.assert_allclose(p.x0, [0.5, 0.5])
        # a symmetric Q keeps its bits in f and g
        np.testing.assert_array_equal(p.g(x), Q @ x + lin)

    def test_asymmetric_q_gradient_matches_f(self):
        # f(x) = 0.5 x'Qx + c'x has gradient (Q + Q')/2 x + c; Q x + c is
        # off by 0.67 here in check_derivatives' relative measure
        p = load_problem({"kind": "quadratic", "n": 2,
                          "data": {"Q": [[1.0, 2.0], [0.0, 1.0]], "c": [0.5, -1.0]}})
        x = np.array([1.0, 0.5])
        assert p.f(x) == 0.5 * (1.0 + 2.0 * 0.5 + 0.25) + 0.5 - 0.5
        np.testing.assert_allclose(p.g(x), [2.0, 0.5])
        assert check_derivatives(p, x).g_err < 1e-8

    def test_inf_sentinels(self, tmp_path):
        spec = {
            "name": "inftest", "kind": "quadratic", "n": 1, "m": 0,
            "data": {"Q": [[1.0]], "c": [0.0]},
            "box": {"lower": ["-inf"], "upper": [3.0]},
        }
        p = load_problem(spec)
        assert np.isneginf(p.box.lower[0]) and p.box.upper[0] == 3.0

    def test_mixed_bound_lists(self):
        # numbers and sentinels in one list, as a JSON file writes them
        spec = {
            "name": "mixed", "kind": "quadratic", "n": 2, "m": 0,
            "data": {"Q": [[1.0, 0.0], [0.0, 1.0]], "c": [0.0, 0.0]},
            "box": {"lower": [0, "-inf"], "upper": ["inf", 1]},
        }
        p = load_problem(spec)
        assert p.box.lower.tolist() == [0.0, -np.inf]
        assert p.box.upper.tolist() == [np.inf, 1.0]
