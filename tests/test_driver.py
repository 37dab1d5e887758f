import numpy as np
import pytest

from pgcon.corpus import get_instance
from pgcon.driver import (
    SolverConfig,
    identification_trackers,
    kkt_residual,
    ledger_to_csv,
    solve,
)
from pgcon.geometry import active_set
from pgcon.problem import BoxSet, EvaluationError, L1Regularizer, ProblemInstance


class TestConfig:
    def test_defaults_match_reference_tuning(self):
        cfg = SolverConfig()
        assert cfg.tau_init == 1.0
        assert cfg.kappa_v == 1e3
        assert cfg.kappa_v_inf == 1e-2
        assert cfg.sigma_c == 0.1
        assert cfg.eps_tau == 0.1
        assert cfg.xi == 0.5
        assert cfg.gamma == 0.5
        assert cfg.eta_phi == 1e-4
        assert cfg.eta_m == 1e-4
        assert cfg.tol_c == 1e-6
        assert cfg.tol_stat == 1e-4
        assert cfg.tol_comp == 1e-4
        assert cfg.time_limit == 3600.0
        assert cfg.max_iter == 10000

    def test_unit_interval_enforced(self):
        with pytest.raises(ValueError, match="xi"):
            SolverConfig(xi=1.5)
        with pytest.raises(ValueError, match="sigma_c"):
            SolverConfig(sigma_c=0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            cfg = SolverConfig(
                alpha0=float(10 ** rng.uniform(-3, 1)),
                xi=float(rng.uniform(0.1, 0.9)),
                sigma_c=float(rng.uniform(0.01, 0.99)),
                max_iter=int(rng.integers(1, 500)),
                alpha_rule=str(rng.choice(["hold", "min_cap", "verbatim_max"])),
                scaling=bool(rng.random() < 0.5),
            )
            again = SolverConfig.from_dict(cfg.to_dict())
            assert again == cfg
            assert again.config_hash() == cfg.config_hash()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            SolverConfig.from_dict({"nonsense": 1})


class TestKktResidual:
    def make_1d(self):
        return ProblemInstance(
            name="k", n=1, m=1,
            f_eval=lambda x: float(x[0]),
            g_eval=lambda x: np.ones(1),
            c_eval=lambda x: np.array([x[0] - 1.0]),
            J_eval=lambda x: np.ones((1, 1)),
            reg=L1Regularizer(np.zeros(1)),
            box=BoxSet.free(1),
        )

    def test_exact_point_zero(self):
        p = self.make_1d()
        chi, parts = kkt_residual(p, np.array([1.0]), np.array([-1.0]),
                                  np.zeros(1), np.zeros(1))
        assert chi == 0.0

    def test_orthant_complementarity_satisfied(self):
        # x=(0,1), z=(-2,0): min(x, -z) = (0, 0) componentwise
        p = ProblemInstance(
            name="o", n=2, m=0,
            f_eval=lambda x: 0.0, g_eval=lambda x: np.array([2.0, 0.0]),
            c_eval=lambda x: np.zeros(0), J_eval=lambda x: np.zeros((0, 2)),
            reg=L1Regularizer(np.zeros(2)), box=BoxSet.nonnegative(2),
        )
        chi, parts = kkt_residual(p, np.array([0.0, 1.0]), np.zeros(0),
                                  np.array([-2.0, 0.0]), np.zeros(2))
        assert parts.complementarity == 0.0
        assert chi == 0.0  # stationarity g + z = 0 as well

    def test_orthant_complementarity_violated(self):
        p = ProblemInstance(
            name="o", n=2, m=0,
            f_eval=lambda x: 0.0, g_eval=lambda x: np.zeros(2),
            c_eval=lambda x: np.zeros(0), J_eval=lambda x: np.zeros((0, 2)),
            reg=L1Regularizer(np.zeros(2)), box=BoxSet.nonnegative(2),
        )
        chi, parts = kkt_residual(p, np.array([0.5, 0.0]), np.zeros(0),
                                  np.array([-2.0, 0.0]), np.zeros(2))
        # min(0.5, 2) = 0.5 on the first component
        assert parts.complementarity == pytest.approx(0.5)
        assert chi >= 0.5

    def test_infinite_bound_sign_violation(self):
        p = ProblemInstance(
            name="f", n=1, m=0,
            f_eval=lambda x: 0.0, g_eval=lambda x: np.zeros(1),
            c_eval=lambda x: np.zeros(0), J_eval=lambda x: np.zeros((0, 1)),
            reg=L1Regularizer(np.zeros(1)), box=BoxSet.free(1),
        )
        chi, parts = kkt_residual(p, np.zeros(1), np.zeros(0),
                                  np.array([0.3]), np.zeros(1))
        assert parts.complementarity == pytest.approx(0.3)


class TestSolveBehavior:
    def test_immediate_kkt_at_start(self):
        inst = get_instance("orthant-lp-l1")
        rep = solve(inst.problem, SolverConfig())
        assert rep.status == "KktPoint"
        assert rep.iterations <= 1
        np.testing.assert_allclose(rep.x, inst.oracle_x)

    def test_rejected_iterations_shrink_alpha(self):
        inst = get_instance("eq-quad-1")
        cfg = SolverConfig(alpha0=100.0, scaling=False)
        rep = solve(inst.problem, cfg)
        assert rep.status == "KktPoint"
        recs = rep.records
        for a, b in zip(recs, recs[1:]):
            if not a.accepted:
                assert b.alpha == pytest.approx(0.5 * a.alpha)

    def test_tau_nonincreasing_along_run(self):
        inst = get_instance("quad-ineq-1")
        rep = solve(inst.problem, SolverConfig())
        taus = [r.tau for r in rep.records]
        for a, b in zip(taus, taus[1:]):
            assert b <= a + 1e-15

    def test_chi_bar_tracks_chi_on_feasible_runs(self):
        inst = get_instance("eq-quad-1")
        rep = solve(inst.problem, SolverConfig())
        last = rep.records[-1]
        assert last.chi <= 1e-4
        assert last.chi_bar <= 1e-3

    def test_determinism_identical_ledgers(self):
        inst = get_instance("l1-sign-1")
        cfg = SolverConfig()
        a = solve(inst.problem, cfg)
        b = solve(inst.problem, cfg)
        assert ledger_to_csv(a.records) == ledger_to_csv(b.records)

    def test_max_iter_status(self):
        inst = get_instance("l1-sign-1")
        rep = solve(inst.problem, SolverConfig(max_iter=2))
        assert rep.status == "MaxIter"
        assert rep.iterations == 2

    def test_time_limit_status(self):
        inst = get_instance("l1-sign-1")
        rep = solve(inst.problem, SolverConfig(time_limit=1e-9))
        assert rep.status == "TimeLimit"

    def test_projected_start_stays_in_box(self):
        inst = get_instance("eq-quad-1")
        cfg = SolverConfig(x0=np.array([-5.0, -5.0]))
        with pytest.warns(UserWarning, match="projected"):
            rep = solve(inst.problem, cfg)
        assert rep.status == "KktPoint"

    def test_alpha_hold_rule_monotone(self):
        inst = get_instance("soft-thresh-1")
        rep = solve(inst.problem, SolverConfig(alpha_rule="hold",
                                               check_invariants=True))
        alphas = [r.alpha for r in rep.records]
        for a, b in zip(alphas, alphas[1:]):
            assert b <= a + 1e-15
        assert rep.invariant_violations == []


class TestReportUnits:
    """The report is about the problem the caller passed in: multipliers and
    chi are in its units even when the solver works on a rescaled copy, and
    a non-finite trial evaluation is a rejected step, not an exception."""

    @staticmethod
    def scaled_twin(p, factor):
        return ProblemInstance(
            name=p.name + "-scaled", n=p.n, m=p.m,
            f_eval=lambda x: factor * p.f_eval(x),
            g_eval=lambda x: factor * np.asarray(p.g_eval(x)),
            c_eval=p.c_eval, J_eval=p.J_eval,
            reg=L1Regularizer(factor * p.reg.weights), box=p.box, x0=p.x0)

    def test_multipliers_and_chi_unscaled(self):
        p = self.scaled_twin(get_instance("eq-quad-1").problem, 1e3)
        cfg = SolverConfig()
        rep = solve(p, cfg)
        plain = solve(p, SolverConfig(scaling=False))
        assert rep.status == plain.status == "KktPoint"
        chi, _ = kkt_residual(p, rep.x, rep.y, rep.z, rep.g_r)
        assert chi == rep.chi
        assert chi <= cfg.tol_stat
        np.testing.assert_allclose(rep.y, plain.y, rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(rep.z, plain.z, rtol=1e-8, atol=1e-8)

    @pytest.mark.parametrize("where", ["f", "c"])
    def test_nonfinite_trial_is_rejected_step(self, where):
        # f or c is NaN outside the ball |x| <= 2; the first full steps from
        # the origin leave it, so they must be rejected with alpha halved
        center = np.array([1.0, -0.5])

        def inside(x):
            return float(x @ x) <= 4.0

        def f(x):
            val = 0.5 * float((x - center) @ (x - center))
            return val if where != "f" or inside(x) else np.nan

        def c(x):
            val = x[0] + x[1] - 0.5
            return np.array([val if where != "c" or inside(x) else np.nan])

        p = ProblemInstance(
            name="nan-ball", n=2, m=1, f_eval=f, g_eval=lambda x: x - center,
            c_eval=c, J_eval=lambda x: np.ones((1, 2)),
            reg=L1Regularizer(np.zeros(2)), box=BoxSet.free(2), x0=np.zeros(2))
        rep = solve(p, SolverConfig(alpha0=10.0))
        assert rep.status == "KktPoint"
        first = rep.records[0]
        assert not first.accepted and first.merit_after == np.inf
        assert rep.records[1].alpha == 0.5 * first.alpha
        assert "inf" in ledger_to_csv(rep.records).splitlines()[1]
        np.testing.assert_allclose(rep.x, center, atol=1e-3)

    def test_nonfinite_start_still_raises(self):
        p = ProblemInstance(
            name="nan-start", n=1, m=0, f_eval=lambda x: np.nan,
            g_eval=lambda x: np.zeros(1), c_eval=lambda x: np.zeros(0),
            J_eval=lambda x: np.zeros((0, 1)), reg=L1Regularizer(np.zeros(1)),
            box=BoxSet.free(1))
        with pytest.raises(EvaluationError):
            solve(p, SolverConfig())


class TestTrackers:
    def test_stabilization_on_strict_complementarity(self):
        inst = get_instance("eq-quad-1")
        rep = solve(inst.problem, SolverConfig())
        k_aset, k_sign = identification_trackers(rep.records)
        assert k_aset is not None
        final = active_set(rep.x, inst.problem.box)
        assert final.at_lower == inst.oracle_active_lower
        assert final.at_upper == inst.oracle_active_upper

    def test_sign_pattern_stabilizes(self):
        inst = get_instance("l1-sign-1")
        rep = solve(inst.problem, SolverConfig())
        _, k_sign = identification_trackers(rep.records)
        assert k_sign is not None
        assert rep.records[-1].sign_pattern == "+0-"

    def test_constant_run_stabilizes_at_zero(self):
        inst = get_instance("orthant-lp-l1")
        rep = solve(inst.problem, SolverConfig())
        k_aset, k_sign = identification_trackers(rep.records)
        assert k_aset == 0 and k_sign == 0

    def test_empty_records(self):
        assert identification_trackers([]) == (None, None)


class TestLedger:
    def test_stable_header_and_no_wall_time(self):
        inst = get_instance("box-qp-1")
        rep = solve(inst.problem, SolverConfig())
        csv = ledger_to_csv(rep.records)
        header = csv.splitlines()[0]
        assert header.startswith("k,x_hash,delta,beta")
        assert "wall" not in header
        assert len(csv.splitlines()) == len(rep.records) + 1
