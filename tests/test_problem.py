import numpy as np
import pytest

from pgcon.driver import SolverConfig, solve
from pgcon.geometry import kkt_parts
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

    @pytest.mark.parametrize("lower, upper", [
        (0.0, 1.0), (np.zeros((2, 2)), np.ones(2)), (np.zeros((1, 3)), np.ones((1, 3)))],
        ids=["scalar", "2-D lower", "2-D both"])
    def test_bounds_must_be_1d(self, lower, upper):
        with pytest.raises(ValueError, match=r"1-D arrays of shape \(n,\)"):
            BoxSet(lower, upper)

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
        return kkt_parts(np.zeros(n), np.zeros(0), np.zeros((0, n)), BoxSet.free(n),
                         reg.weights, x, np.zeros(0), np.zeros(n), g_r).subgradient_margin

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


class TestEntryChecks:
    """Each entry check rejects a malformed input and names what is wrong."""

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

    def test_weights_of_the_wrong_length(self):
        """ProblemInstance's length check names the l1 weights and both lengths."""
        with pytest.raises(ValueError,
                           match="l1 weights have length 3, the problem has n = 2"):
            self.instance(reg=L1Regularizer(np.zeros(3)))

    def test_box_of_the_wrong_length(self):
        """ProblemInstance's length check names the box and both lengths."""
        with pytest.raises(ValueError,
                           match="box bounds have length 1, the problem has n = 2"):
            self.instance(box=BoxSet.free(1))

    def test_two_dimensional_weights(self):
        """L1Regularizer's 1-D check, built directly rather than by the loader."""
        with pytest.raises(ValueError, match=r"1-D array of shape \(n,\), got shape \(1, 2\)"):
            L1Regularizer(np.ones((1, 2)))

    def test_negative_weight(self):
        """L1Regularizer's nonnegativity check."""
        with pytest.raises(ValueError, match="l1 weights must be nonnegative"):
            L1Regularizer(np.array([1.0, -0.5]))

    def test_bounds_of_different_lengths(self):
        """BoxSet's shape check of the upper bounds, in _as_float_array."""
        with pytest.raises(ValueError, match=r"expected shape \(2,\), got \(3,\)"):
            BoxSet(np.zeros(2), np.ones(3))

    def test_zero_difference_step(self):
        """check_derivatives' h <= 0 check."""
        with pytest.raises(ValueError, match="step size must be positive"):
            check_derivatives(quadratic_1d(), np.zeros(1), h=0.0)


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
