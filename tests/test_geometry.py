import numpy as np
import pytest

from pgcon.driver import kkt_residual
from pgcon.geometry import (
    _norm,
    active_set,
    compute_delta,
    kkt_parts,
    nearest_subgradient,
    project_box,
    project_tangent_cone,
)
from pgcon.problem import BoxSet, L1Regularizer, ProblemInstance
from pgcon.qp import solve_qp


def cone_projection_oracle(d, x, box, tol=1e-12):
    """QP projection onto the tangent cone, for cross-checking.

    The tangent cone of a box is a box-shaped cone, so it can be written
    with componentwise bounds and handed to the QP kernel as the bounded
    least-squares problem min 0.5||v - d||^2.
    """
    at_lo = np.isfinite(box.lower) & (x - box.lower <= tol)
    at_hi = np.isfinite(box.upper) & (box.upper - x <= tol)
    lo = np.where(at_lo, 0.0, -np.inf)
    hi = np.where(at_hi, 0.0, np.inf)
    return solve_qp(np.eye(len(d)), -np.asarray(d, dtype=float), lo, hi).primal


class TestNorm:
    def test_bits_of_numpy_norm(self):
        # every 2-norm of a vector in the solver goes through _norm
        rng = np.random.default_rng(3)
        for n in (0, 1, 2, 3, 7, 64, 1001):
            for scale in (1e-200, 1.0, 1e150):
                v = scale * rng.standard_normal(n)
                out = _norm(v)
                assert type(out) is float
                assert np.float64(out).view(np.int64) == np.linalg.norm(v).view(np.int64)
        assert _norm(np.array([np.inf, 1.0])) == np.inf
        assert np.isnan(_norm(np.array([np.nan, 1.0])))


class TestProjectBox:
    def test_clamp(self):
        box = BoxSet.nonnegative(2)
        np.testing.assert_allclose(project_box([-1.0, 2.0], box), [0.0, 2.0])

    def test_identity_inside(self):
        box = BoxSet(np.zeros(2), np.ones(2))
        x = np.array([0.3, 0.7])
        np.testing.assert_allclose(project_box(x, box), x)

    def test_upper_clamp(self):
        box = BoxSet(np.zeros(1), np.ones(1))
        assert project_box([3.0], box)[0] == 1.0

    def test_nonexpansive(self):
        rng = np.random.default_rng(0)
        box = BoxSet(np.array([-1.0, 0.0, -np.inf]), np.array([1.0, np.inf, 2.0]))
        for _ in range(100):
            x, y = rng.standard_normal(3) * 3, rng.standard_normal(3) * 3
            px, py = project_box(x, box), project_box(y, box)
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-14


class TestTangentCone:
    def test_boundary_forces_sign(self):
        box = BoxSet.nonnegative(2)
        out = project_tangent_cone(np.array([-1.0, 1.0]), np.array([0.0, 1.0]), box)
        np.testing.assert_allclose(out, [0.0, 1.0])

    def test_interior_identity(self):
        box = BoxSet(np.zeros(2), np.ones(2))
        d = np.array([-0.5, 0.4])
        np.testing.assert_allclose(project_tangent_cone(d, [0.5, 0.5], box), d)

    def test_matches_qp_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            lo = np.where(rng.random(n) < 0.6, -rng.random(n), -np.inf)
            hi = np.where(rng.random(n) < 0.6, rng.random(n), np.inf)
            box = BoxSet(np.minimum(lo, hi), np.maximum(lo, hi))
            x = project_box(rng.standard_normal(n), box)
            # push some components exactly onto their bounds
            for i in range(n):
                if rng.random() < 0.5 and np.isfinite(box.lower[i]):
                    x[i] = box.lower[i]
            d = rng.standard_normal(n) * 2
            mine = project_tangent_cone(d, x, box)
            ref = cone_projection_oracle(d, x, box)
            np.testing.assert_allclose(mine, ref, atol=1e-10)
            # projection identities onto a convex cone
            assert abs(np.dot(mine, d - mine)) <= 1e-10
            assert np.linalg.norm(mine) <= np.linalg.norm(d) + 1e-12

    def test_fixed_variable_zeroed(self):
        box = BoxSet(np.array([1.0]), np.array([1.0]))
        assert project_tangent_cone(np.array([5.0]), np.array([1.0]), box)[0] == 0.0
        assert project_tangent_cone(np.array([-5.0]), np.array([1.0]), box)[0] == 0.0


class TestDelta:
    def test_feasible_point_zero(self):
        box = BoxSet.nonnegative(2)
        J = np.array([[1.0, 1.0]])
        delta, direction = compute_delta([0.5, 0.5], J.T @ np.zeros(1), box)
        assert delta == 0.0
        np.testing.assert_allclose(direction, np.zeros(2))

    def test_corner_value(self):
        # c(x) = x1 + x2 - 1 at the origin of the orthant: -J'c = (1, 1)
        box = BoxSet.nonnegative(2)
        J = np.array([[1.0, 1.0]])
        c = np.array([-1.0])
        delta, direction = compute_delta([0.0, 0.0], J.T @ c, box)
        assert delta == pytest.approx(np.sqrt(2.0))
        np.testing.assert_allclose(direction, [1.0, 1.0])

    def test_interior_norm(self):
        box = BoxSet.free(3)
        rng = np.random.default_rng(2)
        J = rng.standard_normal((2, 3))
        c = rng.standard_normal(2)
        delta, _ = compute_delta(np.zeros(3), J.T @ c, box)
        assert delta == pytest.approx(np.linalg.norm(J.T @ c))


class TestActiveSet:
    def test_orthant_lower(self):
        box = BoxSet.nonnegative(3)
        aset = active_set([0.0, 2.0, 0.0], box)
        assert aset.at_lower == (0, 2)
        assert aset.at_upper == ()

    def test_all_interior(self):
        box = BoxSet(np.zeros(2), np.ones(2))
        aset = active_set([0.5, 0.5], box)
        assert aset.at_lower == () and aset.at_upper == ()

    def test_fixed_tie_goes_to_lower(self):
        box = BoxSet(np.array([1.0, 0.0]), np.array([1.0, 2.0]))
        aset = active_set([1.0, 2.0], box)
        assert 0 in aset.at_lower and 0 not in aset.at_upper
        assert 1 in aset.at_upper


def box_complementarity_loop(x, z, lower, upper):
    """Scalar reference for the complementarity of bound duals z at x: a
    nonzero z_i pointing at a finite bound gives comp_i = min(slack_i,
    |z_i|), one pointing at an infinite bound gives sign_i = |z_i|."""
    comp = np.zeros(x.shape[0])
    sign = np.zeros(x.shape[0])
    for i in range(x.shape[0]):
        if lower[i] == upper[i] or z[i] == 0.0:
            continue
        if z[i] < 0:
            if np.isfinite(lower[i]):
                comp[i] = min(x[i] - lower[i], -z[i])
            else:
                sign[i] = -z[i]
        else:
            if np.isfinite(upper[i]):
                comp[i] = min(upper[i] - x[i], z[i])
            else:
                sign[i] = z[i]
    return comp, sign


def random_box_case(rng, n):
    """Box with -inf/finite lower, finite/+inf upper and fixed components;
    x on, inside or outside its bounds; z negative, zero, positive."""
    lo = np.where(rng.random(n) < 0.6, rng.standard_normal(n) - 1.0, -np.inf)
    hi = np.where(rng.random(n) < 0.6, rng.standard_normal(n) + 1.0, np.inf)
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    fixed = (rng.random(n) < 0.2) & np.isfinite(lo)
    hi[fixed] = lo[fixed]
    x = rng.standard_normal(n)
    on_lo = (rng.random(n) < 0.3) & np.isfinite(lo)
    x[on_lo] = lo[on_lo]
    on_hi = (rng.random(n) < 0.3) & np.isfinite(hi)
    x[on_hi] = hi[on_hi]
    z = rng.standard_normal(n) * rng.choice([1e-3, 1.0, 10.0], size=n)
    z[rng.random(n) < 0.3] = 0.0
    return BoxSet(lo, hi), x, z


def complementarity(box, x, z):
    """kkt_parts' complementarity of bound duals z at x."""
    n = x.shape[0]
    return kkt_parts(np.zeros(n), np.zeros(0), np.zeros((0, n)), box, np.zeros(n), x,
                     np.zeros(0), z, np.zeros(n)).complementarity


# hand-built cases of test_driver.TestKktResidual and test_tangential.TestVerify,
# as (x, z, lower, upper, comp norm, sign max)
HAND_BUILT = [
    ([0.0, 1.0], [-2.0, 0.0], [0.0, 0.0], [np.inf, np.inf], 0.0, 0.0),
    ([0.5, 0.0], [-2.0, 0.0], [0.0, 0.0], [np.inf, np.inf], 0.5, 0.0),
    ([0.0], [0.3], [-np.inf], [np.inf], 0.0, 0.3),
    ([1.0], [2.0], [0.0], [1.0], 0.0, 0.0),
    ([0.0], [1.0], [0.0], [np.inf], 0.0, 1.0),
    ([0.0], [0.5], [0.0], [np.inf], 0.0, 0.5),
    ([0.5], [3.0], [0.5], [0.5], 0.0, 0.0),
    # zero duals and a fixed variable charge nothing
    ([3.0, 1.0, 2.0], [0.0, -5.0, 0.0], [0.0, 1.0, -np.inf], [np.inf, 1.0, np.inf], 0.0, 0.0),
]


class TestBoxComplementarity:
    @pytest.mark.parametrize("case", HAND_BUILT)
    def test_hand_built_cases(self, case):
        x, z, lo, hi = (np.asarray(v, dtype=float) for v in case[:4])
        comp_norm, sign_max = case[4:]
        comp, sign = box_complementarity_loop(x, z, lo, hi)
        assert float(np.linalg.norm(comp)) == comp_norm
        assert float(np.max(sign, initial=0.0)) == sign_max
        # no case has both parts
        assert complementarity(BoxSet(lo, hi), x, z) == max(comp_norm, sign_max)


class TestComplementarityConsumers:
    """driver.kkt_residual and the tangential step's certificate report
    exactly the numbers of the scalar loop they each used to carry."""

    def cases(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(1, 8))
            box, x, z = random_box_case(rng, n)
            yield n, box, x, z
        for x, z, lo, hi, _, _ in HAND_BUILT:
            x = np.asarray(x, dtype=float)
            yield x.shape[0], BoxSet(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)), \
                x, np.asarray(z, dtype=float)

    def test_driver_kkt_residual(self):
        for n, box, x, z in self.cases():
            p = ProblemInstance(
                name="c", n=n, m=0, f_eval=lambda v: 0.0, g_eval=lambda v: np.zeros(v.shape[0]),
                c_eval=lambda v: np.zeros(0), J_eval=lambda v: np.zeros((0, v.shape[0])),
                reg=L1Regularizer(np.zeros(n)), box=box)
            _, parts = kkt_residual(p, x, np.zeros(0), z, np.zeros(n))
            comp, sign = box_complementarity_loop(x, z, box.lower, box.upper)
            assert parts.complementarity == float(np.linalg.norm(comp + sign))

    def test_tangential_certificate(self):
        # solve_tangential certifies at the trial point w = x + v + u
        for n, box, x, z in self.cases():
            u = 0.1 * np.ones(n)
            w = (x - u) + u
            parts = kkt_parts(u, np.zeros(0), np.zeros((0, n)), box, np.zeros(n), w,
                              np.zeros(0), z, np.zeros(n))
            comp, sign = box_complementarity_loop(w, z, box.lower, box.upper)
            assert parts.complementarity == float(np.linalg.norm(comp + sign))


def _bits(v) -> bytes:
    return np.asarray(v, dtype=float).tobytes()


def clip_subgradient(x, v, lam, zero_tol):
    """nearest_subgradient as it was written with np.clip."""
    return np.where(np.abs(x) > zero_tol, lam * np.sign(x), np.clip(v, -lam, lam))


class TestCertificateEquivalence:
    """kkt_parts and nearest_subgradient give the bits of the formulas
    they replaced."""

    def test_complementarity_is_norm_of_comp_plus_sign(self):
        rng = np.random.default_rng(23)
        kinds = 0
        for _ in range(400):
            n = int(rng.integers(1, 12))
            box, x, z = random_box_case(rng, n)
            lo_fin, hi_fin = np.isfinite(box.lower), np.isfinite(box.upper)
            kinds |= (np.any(box.fixed) | 2 * np.any(lo_fin ^ hi_fin)
                      | 4 * np.any(~lo_fin & ~hi_fin) | 8 * np.any(z == 0.0))
            comp, sign = box_complementarity_loop(x, z, box.lower, box.upper)
            # the parts never overlap, so their sum loses nothing
            assert not np.any((comp != 0.0) & (sign != 0.0))
            assert _bits(complementarity(box, x, z)) == _bits(_norm(comp + sign))
        # fixed, one-sided and free components and exact zeros in z all drawn
        assert kinds == 15

    def test_copysign_is_lam_times_sign(self):
        # where |x| > zero_tol >= 0, x is nonzero, so copysign(lam, x) has
        # the bits of lam * sign(x); lam = 0 gives a signed zero in both
        specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, -1e-300, 2.5, -2.5])
        x, lam = (a.ravel() for a in np.meshgrid(specials, [0.0, -0.0, 1e-300, 0.5, 3.0]))
        lam = np.abs(lam)
        with np.errstate(invalid="ignore"):
            for zero_tol in (0.0, 1e-12):
                sel = np.abs(x) > zero_tol
                assert _bits(np.copysign(lam, x)[sel]) == _bits((lam * np.sign(x))[sel])
                assert _bits(nearest_subgradient(x, -x, lam, zero_tol)) == _bits(
                    np.where(sel, lam * np.sign(x), np.minimum(np.maximum(-x, -lam), lam)))

    def test_where_clamp_matches_the_mask_form(self):
        # project_tangent_cone's where= clamps against the masked stores
        # they replaced, signed zeros, NaN and fixed variables included
        rng = np.random.default_rng(25)
        for _ in range(400):
            n = int(rng.integers(1, 12))
            box, x, _ = random_box_case(rng, n)
            d = rng.standard_normal(n)
            d[rng.random(n) < 0.3] = rng.choice([0.0, -0.0, np.nan, np.inf, -np.inf])
            at_lo = np.isfinite(box.lower) & (x - box.lower <= box.active_tol)
            at_hi = np.isfinite(box.upper) & (box.upper - x <= box.active_tol)
            ref = d.copy()
            ref[at_lo] = np.maximum(ref[at_lo], 0.0)
            ref[at_hi] = np.minimum(ref[at_hi], 0.0)
            assert _bits(project_tangent_cone(d, x, box)) == _bits(ref)

    def test_nearest_subgradient_matches_clip(self):
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 0.25, -3.0])
        grid = np.array(np.meshgrid(specials, specials, [0.0, -0.0, 0.5, 2.0, np.inf]))
        x, v, lam = (a.ravel() for a in grid)
        rng = np.random.default_rng(24)
        with np.errstate(invalid="ignore"):
            # whole arrays, then short slices: numpy's vector loops and their tails
            for size in [x.size, *range(1, 20)]:
                for _ in range(20):
                    idx = rng.permutation(x.size)[:size]
                    for zero_tol in (0.0, 0.5):
                        args = (x[idx], v[idx], np.abs(lam[idx]), zero_tol)
                        assert (_bits(nearest_subgradient(*args))
                                == _bits(clip_subgradient(*args)))
