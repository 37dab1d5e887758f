import numpy as np
import pytest

from pgcon.driver import kkt_residual
from pgcon.geometry import (
    active_set,
    box_complementarity,
    compute_delta,
    project_box,
    project_tangent_cone,
)
from pgcon.problem import BoxSet, L1Regularizer, ProblemInstance
from pgcon.qp import QpProblem, QpSolution, solve_qp, verify_kkt
from pgcon.tangential import verify_tangential_kkt


def cone_projection_oracle(d, x, box, tol=1e-12):
    """Dense-QP projection onto the tangent cone, for cross-checking.

    The tangent cone of a box is a box-shaped cone, so it can be written
    with componentwise bounds and handed to the QP kernel.
    """
    at_lo = np.isfinite(box.lower) & (x - box.lower <= tol)
    at_hi = np.isfinite(box.upper) & (box.upper - x <= tol)
    lo = np.where(at_lo, 0.0, -np.inf)
    hi = np.where(at_hi, 0.0, np.inf)
    qp = QpProblem(H=np.eye(len(d)), q=-np.asarray(d, dtype=float),
                   Aeq=np.zeros((0, len(d))), beq=np.zeros(0), lower=lo, upper=hi)
    return solve_qp(qp).primal


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
        out = project_tangent_cone([-1.0, 1.0], [0.0, 1.0], box)
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
        assert project_tangent_cone([5.0], [1.0], box)[0] == 0.0
        assert project_tangent_cone([-5.0], [1.0], box)[0] == 0.0


class TestDelta:
    def test_feasible_point_zero(self):
        box = BoxSet.nonnegative(2)
        J = np.array([[1.0, 1.0]])
        delta, direction = compute_delta([0.5, 0.5], np.zeros(1), J, box)
        assert delta == 0.0
        np.testing.assert_allclose(direction, np.zeros(2))

    def test_corner_value(self):
        # c(x) = x1 + x2 - 1 at the origin of the orthant: -J'c = (1, 1)
        box = BoxSet.nonnegative(2)
        J = np.array([[1.0, 1.0]])
        c = np.array([-1.0])
        delta, direction = compute_delta([0.0, 0.0], c, J, box)
        assert delta == pytest.approx(np.sqrt(2.0))
        np.testing.assert_allclose(direction, [1.0, 1.0])

    def test_interior_norm(self):
        box = BoxSet.free(3)
        rng = np.random.default_rng(2)
        J = rng.standard_normal((2, 3))
        c = rng.standard_normal(2)
        delta, _ = compute_delta(np.zeros(3), c, J, box)
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
    """Scalar reference: the per-component loop box_complementarity replaced."""
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


# hand-built cases of test_driver.TestKktResidual, test_qp.TestVerifyKkt and
# test_tangential.TestVerify, as (x, z, lower, upper, comp norm, sign max)
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
    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            box, x, z = random_box_case(rng, int(rng.integers(1, 12)))
            comp, sign = box_complementarity(x, z, box.lower, box.upper)
            ref_comp, ref_sign = box_complementarity_loop(x, z, box.lower, box.upper)
            np.testing.assert_array_equal(comp, ref_comp)
            np.testing.assert_array_equal(sign, ref_sign)
            # the parts never overlap, so their sum loses nothing
            assert not np.any((comp != 0.0) & (sign != 0.0))

    @pytest.mark.parametrize("case", HAND_BUILT)
    def test_hand_built_cases(self, case):
        x, z, lo, hi = (np.asarray(v, dtype=float) for v in case[:4])
        comp_norm, sign_max = case[4:]
        comp, sign = box_complementarity(x, z, lo, hi)
        ref_comp, ref_sign = box_complementarity_loop(x, z, lo, hi)
        np.testing.assert_array_equal(comp, ref_comp)
        np.testing.assert_array_equal(sign, ref_sign)
        assert float(np.linalg.norm(comp)) == comp_norm
        assert float(np.max(sign, initial=0.0)) == sign_max


class TestComplementarityConsumers:
    """driver.kkt_residual, qp.verify_kkt and verify_tangential_kkt report
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

    def test_verify_kkt(self):
        for n, box, x, z in self.cases():
            qp = QpProblem(H=np.eye(n), q=np.zeros(n), Aeq=np.zeros((0, n)), beq=np.zeros(0),
                           lower=box.lower, upper=box.upper)
            sol = QpSolution(primal=x, eq_duals=np.zeros(0), bound_duals=z,
                             kkt_residual=0.0, iterations=0, status="solved")
            rep = verify_kkt(qp, sol)
            comp, sign = box_complementarity_loop(x, z, box.lower, box.upper)
            assert rep.complementarity == float(np.linalg.norm(comp))
            assert rep.dual_sign == float(np.max(sign, initial=0.0))

    def test_verify_tangential_kkt(self):
        for n, box, x, z in self.cases():
            u = 0.1 * np.ones(n)
            rep = verify_tangential_kkt(x - u, np.zeros(n), np.zeros(n), np.zeros((0, n)), 1.0,
                                        L1Regularizer(np.zeros(n)), box,
                                        u=u, y=np.zeros(0), z=z, g_r=np.zeros(n))
            # the residual is taken at the trial point w = x + v + u
            w = (x - u) + u
            comp, sign = box_complementarity_loop(w, z, box.lower, box.upper)
            assert rep.complementarity == float(np.linalg.norm(comp))
            assert rep.dual_sign == float(np.max(sign, initial=0.0))
