import collections
import warnings

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrf, dpotrs

from pgcon import tangential
from pgcon.bench import corpus_suite, run_benchmark
from pgcon.driver import SolverConfig, solve
from pgcon.geometry import kkt_parts
from pgcon.problem import BoxSet, L1Regularizer, ProblemInstance
from pgcon.tangential import (
    _ARMIJO,
    _HI,
    _LO,
    _NEG,
    _POS,
    _ZERO,
    TangentialError,
    _cholesky,
    _cholesky_solve,
    _converged,
    _piece,
    _piece_constants,
    _ray_maximizer,
    build_tangential_qp,
    kkt_bar,
    solve_tangential,
)
from qp_oracle import enumerate_qp
from test_fuzz import fuzz_case


def certify(args, res, **change):
    """The certificate solve_tangential forms for its answer ``res``, with
    any of u, y, z, g_r replaced by ``change``; w follows a changed u."""
    x, v, g, J, alpha, reg, box = args
    a = {name: getattr(res, name) for name in ("u", "y", "z", "g_r")} | change
    w = x + v + a["u"] if "u" in change else res.w
    return kkt_parts(g + (a["u"] + v) / alpha, J @ a["u"], J, box, reg.weights, w,
                     a["y"], a["z"], a["g_r"])


class TestBuild:
    """The split QP over (u, p, q): its equality rows are J's rows and one
    linking row per weighted component."""

    def test_no_weights_no_split(self):
        n = 3
        (H, _, Aeq, _, _, _), reg_idx = build_tangential_qp(
            np.zeros(n), np.zeros(n), np.ones(n), np.ones((1, n)), 1.0,
            L1Regularizer(np.zeros(n)), BoxSet.nonnegative(n))
        assert reg_idx.size == 0
        assert H.shape == (n, n)
        assert Aeq.shape == (1, n)

    def test_one_split_component(self):
        (H, _, Aeq, _, _, _), reg_idx = build_tangential_qp(
            np.zeros(1), np.zeros(1), np.zeros(1), np.zeros((0, 1)), 1.0,
            L1Regularizer(np.array([2.0])), BoxSet.free(1))
        assert H.shape == (3, 3)  # u, p, q
        np.testing.assert_array_equal(Aeq, [[1.0, -1.0, 1.0]])  # the linking row

    def test_dimension_count_regularized_block(self):
        # n variables with m of them regularized: n + 2m columns
        n, mreg = 7, 4
        w = np.zeros(n)
        w[:mreg] = 0.3
        (H, _, Aeq, _, _, _), reg_idx = build_tangential_qp(
            np.zeros(n), np.zeros(n), np.zeros(n), np.zeros((2, n)), 0.5,
            L1Regularizer(w), BoxSet.free(n))
        assert H.shape == (n + 2 * mreg,) * 2
        assert reg_idx.size == mreg
        assert Aeq.shape == (2 + mreg, n + 2 * mreg)


class TestHandSolved:
    def test_zero_data_zero_step(self):
        n = 2
        res = solve_tangential(
            np.array([1.0, 2.0]), np.zeros(n), np.zeros(n), np.zeros((0, n)),
            1.0, L1Regularizer(np.zeros(n)), BoxSet.free(n))
        np.testing.assert_allclose(res.u, np.zeros(n), atol=1e-12)
        np.testing.assert_allclose(res.z, np.zeros(n), atol=1e-12)
        assert res.kkt.chi <= 1e-10

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
        assert res.kkt.chi <= 1e-10

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
            res = solve_tangential(x, v, g, J, alpha, reg, box)
            if assert_certified((x, v, g, J, alpha, reg, box), res) is None:
                continue
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
        assert res.kkt.chi <= 1e-10

    def test_perturbed_u_shows_in_stationarity(self):
        args = (np.array([5.0]), np.zeros(1), np.array([1.0]), np.zeros((0, 1)), 1.0,
                L1Regularizer(np.zeros(1)), BoxSet.nonnegative(1))
        res = solve_tangential(*args)
        eps = 1e-3
        rep = certify(args, res, u=res.u + eps)
        assert rep.stationarity == pytest.approx(eps / 1.0, rel=1e-6)

    def test_wrong_dual_sign_reported(self):
        args = (np.array([0.5]), np.zeros(1), np.array([1.0]), np.zeros((0, 1)), 1.0,
                L1Regularizer(np.zeros(1)), BoxSet.nonnegative(1))
        res = solve_tangential(*args)
        rep = certify(args, res, z=-res.z)
        # z flipped positive at a lower-bound-active component with no
        # upper bound: pure sign violation of size |z|
        assert rep.complementarity == pytest.approx(0.5, abs=1e-12)


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


def enumerate_split(x, v, g, J, alpha, reg, box):
    """(u, y, zero, at_lo, at_hi) of the split QP by enumeration, or None
    where it has more than 9 variables: w_i = p_i - q_i is zero when both
    split parts sit on their bound, and u is at a bound exactly when the
    enumeration holds it there."""
    (H, q, Aeq, beq, lower, upper), reg_idx = build_tangential_qp(x, v, g, J, alpha, reg, box)
    if q.shape[0] > 9:
        return None
    ref = enumerate_qp(H, q, Aeq, beq, lower, upper)
    assert ref is not None
    s, y = ref[0], ref[1]
    n, nr = x.shape[0], reg_idx.shape[0]
    u = s[:n]
    zero = np.zeros(n, dtype=bool)
    zero[reg_idx] = (s[n:n + nr] == 0.0) & (s[n + nr:] == 0.0)
    return u, y[:J.shape[0]], zero, u == lower[:n], u == upper[:n]


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


def assert_certified(args, res):
    """The answer's certificate, formed here, is within 1e-8 and w is in
    the box.  The subproblem is strongly convex in w, so a certified w is
    the unique minimizer.  Where the split QP has at most 9 variables its
    enumeration finds the same u; returns enumerate_split's answer."""
    x, v, g, J, alpha, reg, box = args
    assert res.kkt.chi <= 1e-8
    assert certify(args, res) == res.kkt
    assert box.contains(res.w)
    ref = enumerate_split(*args)
    if ref is not None:
        scale = 1.0 + float(np.max(np.abs(x + v), initial=0.0))
        np.testing.assert_allclose(res.u, ref[0], rtol=0, atol=1e-10 * scale)
    return ref


class TestDualAgainstSplitQp:
    """Differential fuzz of the dual solve: every draw is certified, and the
    draws whose split QP has at most 9 variables are enumerated."""

    def test_random_instances(self):
        # 300 draws, all certified; the split QP of 87 has at most 9
        # variables, and all 87 enumerated answers are nondegenerate
        rng = np.random.default_rng(2024)
        n_enumerated = n_patterns = 0
        for _ in range(300):
            args = random_tangential(rng)
            x, v, g, J, alpha, reg, box = args
            res = solve_tangential(*args)
            ref = assert_certified(args, res)
            # the returned y reproduces w through the dual formula
            scale = 1.0 + float(np.max(np.abs(x + v), initial=0.0))
            np.testing.assert_allclose(dual_formula(x, g, J, alpha, reg, box, res.y),
                                       res.w, rtol=0, atol=1e-10 * scale)
            if ref is None:
                continue
            n_enumerated += 1
            _, y_ref, zero, at_lo, at_hi = ref
            if kink_margin(x, g, J, alpha, reg, box, y_ref) > 1e-6:
                # nondegenerate: the same zeros and active bounds, exactly
                n_patterns += 1
                np.testing.assert_array_equal(res.w[reg.weights > 0] == 0.0,
                                              zero[reg.weights > 0])
                np.testing.assert_array_equal(res.w == box.lower, at_lo)
                np.testing.assert_array_equal(res.w == box.upper, at_hi)
        assert n_enumerated >= 87 and n_patterns >= 87


class TestDegenerate:
    """Cases where the dual Newton system or the piece structure degenerates."""

    def check(self, *args):
        res = solve_tangential(*args)
        assert_certified(args, res)
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

    def test_piece_on_a_kink_is_not_free(self):
        # t = base + tau against alpha lam and the bounds: |t| = alpha lam
        # zeroes the component, on either side, and s = t -+ alpha lam on a
        # bound clips it; only the last component, past its kink, is free.
        # A component on a kink stays out of the Newton matrix.
        base = np.array([0.25, -0.25, 0.25, -0.25, 0.25])
        tau = np.array([0.25, -0.25, 0.75, -0.75, 0.5])
        alpha_lam = np.array([0.5, 0.5, 0.0, 0.0, 0.5])
        lower = np.array([-np.inf, -np.inf, -np.inf, -1.0, -np.inf])
        upper = np.array([np.inf, np.inf, 1.0, np.inf, np.inf])
        u, code = _piece(tau, _piece_constants(base, alpha_lam, lower, upper))
        np.testing.assert_array_equal(code, [_ZERO, _ZERO, _HI, _LO, _POS])
        np.testing.assert_array_equal(u, [-0.25, 0.25, 0.75, -0.75, 0.0])

    def test_refinement_that_stops_contracting_returns_to_newton(self):
        # the tangential subproblem at iteration 1 of fuzz rng 5 #22,
        # rounded to two decimals and solved from y = 0.  After the third
        # Newton step two components are free for the three rows of J, so
        # a refined step leaves |J u| = 7.9e-5 where it was; the solve goes
        # back to Newton steps, which find the answer's piece.  Refining on
        # would spend the Newton budget.
        inf = np.inf
        x = np.array([-1.99, 0.15, -0.63, 0.25, 0.22])
        v = np.array([0.05, 0.0, 0.05, -0.01, 0.05])
        g = np.array([-3.59, -6.41, 1.66, -0.21, 3.94])
        J = np.array([[-0.40, 0.11, 0.38, -1.34, -1.45],
                      [0.21, -0.03, -1.95, -1.63, -0.72],
                      [0.33, 0.22, 1.00, 1.16, 2.32]])
        reg = L1Regularizer(np.array([0.46, 0.72, 0.0, 0.87, 0.0]))
        box = BoxSet(np.array([-1.99, -inf, -inf, 0.24, -inf]),
                     np.array([inf, 0.15, 2.68, inf, inf]))
        res = self.check(x, v, g, J, 3.19, reg, box)
        assert (res.iterations, res.evaluations) == (10, 54)


def piece_where_form(tau, base, alpha_lam, lower, upper):
    """``_piece`` written with np.where selections, sign by sign: the
    reference whose bits the clip form must reproduce."""
    t = base + tau
    shrunk = (alpha_lam > 0) & (np.abs(t) <= alpha_lam)
    sgn = np.where((t < 0) & (alpha_lam > 0), -1.0, 1.0)
    s = np.where(shrunk, 0.0, t - sgn * alpha_lam)
    code = np.where(shrunk, _ZERO, np.where(sgn > 0, _POS, _NEG))
    u = np.where(shrunk, -base, tau - sgn * alpha_lam)
    at_lo = s <= lower
    at_hi = (s >= upper) & ~at_lo
    code[at_lo], code[at_hi] = _LO, _HI
    u[at_lo] = lower[at_lo] - base[at_lo]
    u[at_hi] = upper[at_hi] - base[at_hi]
    return u, code


class TestPieceClipForm:
    """The clip form of ``_piece`` against the np.where form, bit for bit,
    signed zeros included."""

    @staticmethod
    def draw(rng, n=64):
        """(tau, base, alpha_lam, lower, upper) with dyadic entries, so t
        lands exactly on +-alpha lam and on +-0, or with Gaussian ones."""
        if rng.random() < 0.25:
            base, tau = rng.standard_normal(n), rng.standard_normal(n)
        else:
            dyadic = rng.integers(-16, 17, n) / 8.0
            base = np.where(rng.random(n) < 0.3, rng.choice([0.0, -0.0], n), dyadic)
            tau = rng.integers(-16, 17, n) / 8.0
        alpha_lam = np.where(rng.random(n) < 0.4, 0.0, rng.integers(1, 9, n) / 8.0)
        r = rng.random(n)
        tau = np.where(r < 0.25, rng.choice([-1.0, 1.0], n) * alpha_lam - base, tau)
        tau = np.where((r >= 0.25) & (r < 0.45), rng.choice([0.0, -0.0], n), tau)
        lower = rng.integers(-8, 5, n) / 8.0
        upper = lower + rng.choice([0.0, 0.5, 2.0, np.inf], n)  # 0: a fixed variable
        return tau, base, alpha_lam, np.where(rng.random(n) < 0.3, -np.inf, lower), upper

    @pytest.mark.parametrize("seed", range(5))
    def test_bits_match_the_where_form(self, seed):
        rng = np.random.default_rng(seed)
        seen = collections.Counter()
        for _ in range(60):
            tau, base, alpha_lam, lower, upper = self.draw(rng)
            u, code = _piece(tau, _piece_constants(base, alpha_lam, lower, upper))
            u_ref, code_ref = piece_where_form(tau, base, alpha_lam, lower, upper)
            assert u.tobytes() == u_ref.tobytes()
            np.testing.assert_array_equal(code, code_ref)
            t, weighted = base + tau, alpha_lam > 0
            seen.update({
                "t = alpha lam": np.sum(weighted & (t == alpha_lam)),
                "t = -alpha lam": np.sum(weighted & (t == -alpha_lam)),
                "unweighted, t < 0": np.sum(~weighted & (t < 0)),
                "unweighted, t = +0": np.sum(~weighted & (t == 0) & ~np.signbit(t)),
                "unweighted, t = -0": np.sum(~weighted & (t == 0) & np.signbit(t)),
                "infinite lower": np.sum(np.isinf(lower)),
                "infinite upper": np.sum(np.isinf(upper)),
                "fixed": np.sum(lower == upper),
                "free": np.sum(code < _ZERO),
                "zeroed": np.sum(code == _ZERO),
                "at lower": np.sum(code == _LO),
                "at upper": np.sum(code == _HI),
            })
        assert len(seen) == 12 and min(seen.values()) > 0, seen


class TestCholeskySolve:
    """The dual Newton system's solve: a Cholesky factor and two
    substitutions in Python floats."""

    @staticmethod
    def systems(m, count, seed):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            A = rng.standard_normal((m, m + 2)) * 10.0 ** rng.integers(-3, 4)
            M = A @ A.T + 1e-6 * np.trace(A @ A.T) * np.eye(m)
            yield M, rng.standard_normal(m)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_agrees_with_numpy_solve(self, m):
        for M, b in self.systems(m, 500, m):
            d, ref = _cholesky_solve(M, b), np.linalg.solve(M, b)
            assert np.linalg.norm(d - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_equals_the_lapack_pair_for_one_row(self):
        for M, b in self.systems(1, 3000, 7):
            R, info = dpotrf(M, lower=False, clean=False)
            ref, info = dpotrs(R, b, lower=False)
            assert info == 0
            assert _cholesky_solve(M, b).tobytes() == ref.tobytes()

    def test_indefinite_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            _cholesky_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))

    @pytest.mark.parametrize("m", [1, 2])
    def test_factor_equals_numpy_for_up_to_two_rows(self, m):
        # draws scaled by 10^-3 to 10^3
        for M, _ in self.systems(m, 3000, 10 + m):
            L, _ = _cholesky(M)
            ours = np.zeros((m, m))
            for i, row in enumerate(L):
                ours[i, :i + 1] = row
            assert ours.tobytes() == np.linalg.cholesky(M).tobytes()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_scale_and_shift_equal_numpys(self, m):
        # the factor of alpha G + mu I formed inside equals that of the
        # matrix numpy forms, bit for bit
        rng = np.random.default_rng(30 + m)
        for G, _ in self.systems(m, 1000, 20 + m):
            alpha = float(10.0 ** rng.uniform(-4, 2))
            mu = float(rng.choice([0.0, 1e-14, 1e-8])) * float(np.trace(G))
            M = alpha * G
            M.flat[:: m + 1] += mu
            # repr is exact for floats and tells -0.0 from 0.0
            assert repr(_cholesky(G, alpha, mu)) == repr(_cholesky(M))
            b = rng.standard_normal(m)
            assert _cholesky_solve(G, b, alpha, mu).tobytes() == _cholesky_solve(M, b).tobytes()

    @pytest.mark.parametrize("where", [(1, 1), (0, 1)], ids=["diagonal", "off-diagonal"])
    def test_nan_in_the_matrix_fails_a_pivot(self, where):
        # a NaN pivot fails "> 0"; an off-diagonal NaN makes the next one NaN
        M = np.array([[2.0, 0.5], [0.5, 2.0]])
        M[where] = M[where[::-1]] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            _cholesky(M)
        with pytest.raises(np.linalg.LinAlgError):
            _cholesky_solve(M, np.ones(2))


def test_stop_test_equals_numpys():
    # the Python-float stop test against the numpy form it replaced, on
    # rows exactly at the bar, just over it, and at +-0, inf and NaN
    rng = np.random.default_rng(31)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    seen = collections.Counter()
    for _ in range(3000):
        m = int(rng.integers(1, 4))
        Ju_abs = np.abs(rng.standard_normal(m)) * 10.0 ** rng.integers(-3, 4, m)
        bar = 4.0 * np.finfo(float).eps * (1.0 + Ju_abs)
        F = rng.choice([-1.0, 1.0], m) * bar * rng.choice([0.5, 1.0, 1.0 + 2 ** -52, 2.0], m)
        odd = rng.random(m) < 0.1
        F[odd] = rng.choice(specials, odd.sum())
        ref = bool(np.logical_and.reduce(np.abs(F) <= 4.0 * np.finfo(float).eps * (1.0 + Ju_abs)))
        assert _converged(F, Ju_abs) == ref
        seen[ref] += 1
        seen["at the bar"] += np.sum(np.abs(F) == bar)
    assert min(seen.values()) > 100, seen


class TestFallback:
    """The dual solve has no fallback: a failure raises, naming its cause."""

    # a nearly singular square J, as in fuzz rng 99 #12: u = 0 and y =
    # -J'^{-1} g ~ 2e8, so the rounding of alpha J'y alone, ~1e-8, keeps
    # |J u| far above the 4 eps (1 + |J| |u|) stopping bar
    J = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-8]])
    G = np.array([1.0, -1.0])

    def test_narrow_window_solved_by_the_ray_search(self):
        # J = [1] forces u = 0 and y = -g = 1, but w(y) is off its bounds
        # only for y within 1e-8 of 1; from y = 0 nothing is free, and the
        # ray search steps straight into that window
        box = BoxSet(np.array([-1e-8]), np.array([1e-8]))
        res = solve_tangential(np.zeros(1), np.zeros(1), np.array([-1.0]),
                               np.array([[1.0]]), 1.0, L1Regularizer(np.zeros(1)), box)
        assert res.y[0] == pytest.approx(1.0, abs=1e-12)
        assert res.u[0] == 0.0
        assert res.iterations <= 3

    def test_nearly_singular_jacobian_exhausts_newton_budget(self):
        with pytest.raises(TangentialError, match="Newton budget"):
            solve_tangential(np.zeros(2), np.zeros(2), self.G, self.J, 1.0,
                             L1Regularizer(np.zeros(2)), BoxSet.free(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_jacobian_fails_the_cholesky(self, bad):
        # a NaN or inf in J makes the Newton matrix non-finite; inf * 0 in
        # J'y also raises numpy's invalid-value warning on the way there
        J = np.array([[1.0, bad]])
        with np.errstate(invalid="ignore"), \
                pytest.raises(TangentialError, match="Cholesky factorization"):
            solve_tangential(np.zeros(2), np.zeros(2), np.ones(2), J, 1.0,
                             L1Regularizer(np.zeros(2)), BoxSet.free(2))

    def test_driver_run_stalls_naming_the_cause(self):
        # min g'x s.t. J x = 0 from x = 0: the first tangential subproblem
        # is the one above
        J, g = self.J, self.G
        p = ProblemInstance(
            name="near-singular", n=2, m=2, f_eval=lambda x: float(g @ x),
            g_eval=lambda x: g.copy(), c_eval=lambda x: J @ x,
            J_eval=lambda x: J.copy(), reg=L1Regularizer(np.zeros(2)),
            box=BoxSet.free(2), x0=np.zeros(2))
        with pytest.warns(UserWarning, match="iteration 0: .*Newton budget"):
            rep = solve(p, SolverConfig(alpha0=1.0))
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
        assert 1e-8 < res.kkt.chi <= kkt_bar(x, res.w, alpha)
        assert float(np.linalg.norm(J @ res.u)) < 1e-15
        # the bar still tells a wrong multiplier apart
        off = certify((x, v, g, J, alpha, reg, box), res, y=res.y + 1e-6)
        assert off.chi > kkt_bar(x, res.w, alpha)


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


class TestRaySearch:
    """The exact maximizer of the dual function along a Newton direction,
    taken when no component is free, against theta sampled densely along
    the ray through the real ``_piece``."""

    @staticmethod
    def theta(y, base, tau0, J, alpha, lam, lower, upper):
        """The dual function of ``_dual_solve`` and its gradient J u."""
        u, _ = _piece(tau0 - alpha * (J.T @ y), _piece_constants(base, alpha * lam, lower, upper))
        r, F = u - tau0, J @ u
        return float(r @ r) / (2 * alpha) + float(lam @ np.abs(base + u)) + float(y @ F), F

    def search(self, base, tau0, J, alpha, lam, lower, upper, y, d):
        """(s*, d, theta along s -> theta(y + s d)), with d turned uphill."""
        args = (base, tau0, J, alpha, lam, lower, upper)
        F = self.theta(y, *args)[1]
        if F @ d < 0:
            d = -d
        t = base + (tau0 - alpha * (J.T @ y))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = _ray_maximizer(t, J.T @ d, alpha, alpha * lam, lower, upper, float(F @ d))
        return s, d, lambda step: self.theta(y + step * d, *args)[0]

    @staticmethod
    def case(seed):
        # zero and positive weights, infinite bounds, lower = 0 and upper = 0,
        # and a zero column of J, so (J'd)_i = 0
        rng = np.random.default_rng(seed)
        n, m = 8, 2
        lam = np.where(rng.random(n) < 0.5, rng.random(n), 0.0)
        lower = np.array([-np.inf, 0.0, -np.inf, -1.0, 0.0, -np.inf, -2.0, -np.inf])
        upper = np.array([np.inf, np.inf, 0.0, 1.0, np.inf, 0.0, np.inf, np.inf])
        J = rng.standard_normal((m, n))
        J[:, 7] = 0.0
        return (rng.standard_normal(n), rng.standard_normal(n), J, 10.0 ** rng.uniform(-1, 1),
                lam, lower, upper, rng.standard_normal(m), rng.standard_normal(m))

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_dense_sampling(self, seed):
        base, tau0, J, alpha, lam, lower, upper, y, d = self.case(seed)
        s, d, along = self.search(base, tau0, J, alpha, lam, lower, upper, y, d)
        assert 0.0 < s < np.inf
        grid = np.linspace(0.0, 3.0 * s, 3001)
        vals = np.array([along(step) for step in grid])
        best = along(s)
        tol = 1e-12 * (1.0 + np.max(np.abs(vals)))
        # the sampled maximum sits within a grid step of s* and is no higher
        assert abs(grid[np.argmax(vals)] - s) <= 1.5 * grid[1]
        assert best >= vals.max() - tol
        # theta rises up to s* and falls after it
        assert np.all(np.diff(vals[grid <= s]) >= -tol)
        assert np.all(np.diff(vals[grid >= s]) <= tol)

    @pytest.mark.parametrize("seed", range(20))
    def test_armijo_holds_at_the_step(self, seed):
        base, tau0, J, alpha, lam, lower, upper, y, d = self.case(seed)
        s, d, along = self.search(base, tau0, J, alpha, lam, lower, upper, y, d)
        theta0, F = self.theta(y, base, tau0, J, alpha, lam, lower, upper)
        assert along(s) >= theta0 + _ARMIJO * s * float(F @ d)

    def test_one_piece_is_the_newton_step_on_theta(self):
        # no weights and no bounds: one quadratic piece, theta'' = -alpha |J'd|^2,
        # so s* = F'd / (alpha |J'd|^2) and theta rises by s* F'd / 2
        rng = np.random.default_rng(5)
        n, J, alpha = 5, rng.standard_normal((2, 5)), 0.7
        args = (rng.standard_normal(n), rng.standard_normal(n), J, alpha, np.zeros(n),
                np.full(n, -np.inf), np.full(n, np.inf))
        y, d = rng.standard_normal(2), rng.standard_normal(2)
        s, d, along = self.search(*args, y, d)
        theta0, F = self.theta(y, *args)
        slope, Jd = float(F @ d), J.T @ d
        assert s == pytest.approx(slope / (alpha * float(Jd @ Jd)), rel=1e-12)
        assert along(s) == pytest.approx(theta0 + 0.5 * s * slope, rel=1e-12)

    def test_no_maximizer(self):
        # x + v = 5 in the box [-1, 1]: J u = u lies in [-6, -4], so the dual
        # rises without bound once the component clips
        args = (np.array([5.0]), np.array([-5.0]), np.array([[1.0]]), 1.0, np.zeros(1),
                np.array([-1.0]), np.array([1.0]), np.zeros(1), np.ones(1))
        s, d, along = self.search(*args)
        assert s == np.inf
        vals = [along(step) for step in np.linspace(0.0, 100.0, 101)]
        assert np.all(np.diff(vals) > 0.0)

    def test_tiny_and_zero_directions_raise_no_warning(self):
        # ends of (J'd)_i = 1e-300 overflow to inf and (J'd)_i = 0 has none;
        # search() turns numpy warnings into errors
        J = np.array([[1.0, 1e-300, 0.0]])
        s, d, along = self.search(np.zeros(3), np.array([1.0, 2.0, 3.0]), J, 1.0,
                                  np.array([0.5, 0.0, 0.0]), np.array([-1.0, -1.0, -np.inf]),
                                  np.array([1.0, 1.0, np.inf]), np.zeros(1), np.ones(1))
        assert 0.0 < s < np.inf
        assert along(s) >= along(0.0)

    @pytest.mark.parametrize("seed, trial, status", [
        (7, 37, "KktPoint"), (99, 32, "InfeasibleStationary"), (5, 84, "KktPoint")])
    def test_fuzz_solves_that_a_partial_walk_stalls(self, seed, trial, status):
        # stepping only to the first kink crawls one kink per Newton step and
        # ends these Stalled on the Newton budget
        rng = np.random.default_rng(seed)
        for k in range(trial + 1):
            p, cfg = fuzz_case(rng, k)
        assert solve(p, cfg).status == status

    def test_corpus_pass_piece_evaluations(self, monkeypatch):
        # 457 with the search started blind at step 1
        count = [0]

        def counted(*args):
            count[0] += 1
            return _piece(*args)

        monkeypatch.setattr(tangential, "_piece", counted)
        results = run_benchmark(corpus_suite())
        assert all(r.error == "" for r in results)
        assert count[0] <= 250
        # every tangential solve of the pass wrote one ledger row
        assert sum(rec.tang_evals for r in results for rec in r.report.records) == count[0]
