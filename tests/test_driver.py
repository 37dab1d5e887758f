import collections
import dataclasses
import hashlib
import json
import types
import warnings

import numpy as np
import pytest

from pgcon import driver, globalization, normal_step, scca
from pgcon.corpus import corpus, get_instance
from pgcon.driver import (
    SolverConfig,
    identification_trackers,
    kkt_residual,
    ledger_to_csv,
    solve,
)
from pgcon.geometry import KktParts, _norm, active_set
from pgcon.problem import BoxSet, EvaluationError, L1Regularizer, ProblemInstance
from test_fuzz import fuzz_case


class TestConfig:
    def test_defaults_match_reference_tuning(self):
        cfg = SolverConfig()
        assert cfg.tol_c == 1e-6
        assert cfg.tol_stat == 1e-4
        assert cfg.tol_comp == 1e-4
        assert cfg.time_limit == 3600.0
        assert cfg.max_iter == 10000
        assert driver.TAU_INIT == 1.0
        assert driver.TOL_STEP == 1e-12
        assert normal_step.KAPPA_V == 1e3
        assert normal_step.KAPPA_V_INF == 1e-2
        assert normal_step.GAMMA == 0.5
        assert normal_step.ETA_M == 1e-4
        assert globalization.SIGMA_C == 0.1
        assert globalization.EPS_TAU == 0.1
        assert globalization.XI == 0.5
        assert globalization.ETA_PHI == 1e-4
        assert globalization.ALPHA_CAP == 10.0
        assert globalization.ALPHA_MAX == 1e6

    def test_fields_are_what_a_run_chooses(self):
        assert [f.name for f in dataclasses.fields(SolverConfig)] == [
            "alpha0", "tol_c", "tol_stat", "tol_comp", "max_iter", "time_limit"]
        # a method parameter is a constant, not a key
        with pytest.raises(ValueError, match="xi"):
            SolverConfig.from_dict({"xi": 0.5})

    def test_field_types_enforced(self):
        # bool is an int subclass, but no field takes one
        for bad in ({"max_iter": True}, {"alpha0": False}, {"time_limit": True},
                    {"tol_c": "1e-6"}):
            (name, _), = bad.items()
            with pytest.raises(ValueError, match=f"{name}="):
                SolverConfig(**bad)
        # an int is a float value, stored as the float it names
        assert type(SolverConfig(alpha0=1).alpha0) is float
        with pytest.raises(ValueError, match="time_limit is too large"):
            SolverConfig(time_limit=10 ** 400)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            cfg = SolverConfig(
                alpha0=float(10 ** rng.uniform(-3, 1)),
                tol_c=float(10 ** rng.uniform(-9, -3)),
                tol_stat=float(10 ** rng.uniform(-9, -3)),
                max_iter=int(rng.integers(1, 500)),
            )
            again = SolverConfig.from_dict(cfg.to_dict())
            assert again == cfg
            assert again.config_hash() == cfg.config_hash()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            SolverConfig.from_dict({"nonsense": 1})

    def test_no_iteration_budget_rejected(self):
        """SolverConfig's positivity check on its int field max_iter."""
        with pytest.raises(ValueError, match="max_iter=0 must be positive"):
            SolverConfig(max_iter=0)

    @pytest.mark.parametrize("alpha0", [np.inf, 1e12, np.nextafter(1e6, np.inf)])
    def test_alpha0_above_alpha_max_rejected(self, alpha0):
        # the method never takes alpha above ALPHA_MAX itself; a start above
        # it ended Stalled (alpha0 = inf at iteration 0)
        with pytest.raises(ValueError, match="alpha0=.* must be at most 1e\\+06"):
            SolverConfig(alpha0=alpha0)

    def test_alpha0_at_alpha_max_accepted(self):
        assert SolverConfig(alpha0=1e6).alpha0 == globalization.ALPHA_MAX

    @pytest.mark.parametrize("kwargs", [
        {}, {"alpha0": 1e-3, "max_iter": 7}, {"tol_c": 1e-9, "time_limit": 1},
    ])
    def test_hash_matches_asdict_form(self, kwargs):
        # config_hash as it was written with dataclasses.asdict
        cfg = SolverConfig(**kwargs)
        out = dataclasses.asdict(cfg)
        assert cfg.to_dict() == out
        payload = json.dumps(out, sort_keys=True).encode()
        assert cfg.config_hash() == hashlib.sha256(payload).hexdigest()[:16]

    def test_frozen_so_its_kept_hash_stays_true(self):
        cfg = SolverConfig()
        first = cfg.config_hash()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.alpha0 = 1.0
        assert cfg.config_hash() == first
        other = dataclasses.replace(cfg, alpha0=1.0)
        assert other.config_hash() == SolverConfig(alpha0=1.0).config_hash() != first


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

    def test_nan_in_g_r_reaches_chi(self):
        # a NaN g_r at a nonzero x_i leaves stationarity finite (P(g_r)_i
        # is lam_i sign(x_i)) and makes the membership margin NaN; chi
        # used to drop it, as max keeps a finite first value
        inst = get_instance("l1-lin-1")
        rep = solve(inst.problem, SolverConfig())
        assert rep.x[0] != 0.0
        g_r = rep.g_r.copy()
        g_r[0] = np.nan
        chi, parts = kkt_residual(inst.problem, rep.x, rep.y, rep.z, g_r)
        assert np.isfinite(parts.stationarity)
        assert np.isnan(parts.subgradient_margin)
        assert np.isnan(chi)

    @pytest.mark.parametrize("part", [f.name for f in dataclasses.fields(KktParts)])
    def test_chi_is_nan_when_any_part_is(self, part):
        finite = KktParts(*(0.25 * (i + 1) for i in range(5)))
        assert finite.chi == 1.25
        assert np.isnan(dataclasses.replace(finite, **{part: np.nan}).chi)

    @pytest.mark.parametrize("part", ["stationarity", "feasibility", "complementarity",
                                      "subgradient_margin"])
    def test_stop_test_fails_on_a_nan_part(self, part, monkeypatch):
        # l1-lin-1 ends KktPoint in 2 iterations; with one of the parts the
        # stop test reads planted NaN it never stops there
        real = driver.kkt_parts
        monkeypatch.setattr(driver, "kkt_parts", lambda *args: dataclasses.replace(
            real(*args), **{part: np.nan}))
        rep = solve(get_instance("l1-lin-1").problem, SolverConfig(max_iter=20))
        assert rep.status in ("Stalled", "MaxIter")
        assert rep.iterations > 2


class TestPointDataReuse:
    """The stop test at x reads x's PointData: formed for the start, then
    the one the tangential step formed for the accepted trial point.  A
    report's chi is kkt_residual's, which forms everything afresh, bit for
    bit."""

    @staticmethod
    def solves():
        for inst in corpus():
            yield inst.name, inst.problem, SolverConfig(**inst.config_overrides)
        for n, lam in ((200, 1e-2), (200, 1e-3), (400, 1e-2), (400, 1e-3)):
            yield (f"gate n{n} lam{lam:g}", scca.scca_problem(scca.scca_generate(n, n, n, 1), lam),
                   SolverConfig(alpha0=1e-3))
        # the tangential step certifies with the l1 weights times 0.836,
        # the stop test with the caller's: PointData holds no weight
        rng = np.random.default_rng(6)
        for trial in range(150):
            p, cfg = fuzz_case(rng, trial)
        yield "fuzz rng6 #149", p, cfg

    def test_report_chi_is_kkt_residual(self):
        names = []
        for name, p, cfg in self.solves():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rep = solve(p, cfg)
            chi, _ = kkt_residual(p, rep.x, rep.y, rep.z, rep.g_r)
            assert np.float64(chi).tobytes() == np.float64(rep.chi).tobytes(), name
            if name == "degen-1":
                # rejected trials reuse x's data
                assert not all(r.accepted for r in rep.records[:-1])
            names.append(name)
        assert len(names) == 17 and "degen-1" in names


class TestSolveBehavior:
    def test_immediate_kkt_at_start(self):
        inst = get_instance("orthant-lp-l1")
        rep = solve(inst.problem, SolverConfig())
        assert rep.status == "KktPoint"
        assert rep.iterations <= 1
        np.testing.assert_allclose(rep.x, inst.oracle_x)

    def test_rejected_iterations_shrink_alpha(self):
        inst = get_instance("eq-quad-1")
        cfg = SolverConfig(alpha0=100.0)
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
        p = dataclasses.replace(inst.problem, x0=np.array([-5.0, -5.0]))
        with pytest.warns(UserWarning, match="projected"):
            rep = solve(p, SolverConfig())
        assert rep.status == "KktPoint"

    def test_shifted_merit_checked_on_every_solve(self):
        # the check runs on every solve and flags a record whose shifted
        # merit grows
        rep = solve(get_instance("soft-thresh-1").problem, SolverConfig())
        assert rep.invariant_violations == []
        recs = rep.records[:-1] + [dataclasses.replace(
            rep.records[-1], c_norm=rep.records[-1].c_norm + 1e6)]
        monitor = driver._InvariantMonitor(orthant=False)
        monitor.check_shifted_merit(recs)
        assert [v["check"] for v in monitor.violations] == ["shifted_merit_monotone"]

    def test_alpha_holds_after_a_rejection(self):
        # no accepted step that directly follows a rejection raises alpha,
        # except by the flat-Lagrangian jump above the cap
        held = 0
        for inst in corpus():
            recs = solve(inst.problem, SolverConfig(**inst.config_overrides)).records
            for a, b, c in zip(recs, recs[1:], recs[2:]):
                if not a.accepted and b.accepted:
                    assert c.alpha <= b.alpha or c.alpha > globalization.ALPHA_CAP, \
                        (inst.name, b.k)
                    held += c.alpha == b.alpha
        assert held >= 10


class TestInvariantMonitor:
    """Each per-iteration check fires on an input that breaks it and passes
    one on its boundary.

    The Cauchy-decrease and linearized-gain bounds fall as ||J||_2^2
    grows, so the monitor tests each at ||J||_2^2 = 0 first and forms
    ||J||_2^2 only when that test fails.  No solve of the fingerprint sweep
    takes the second test; the inputs of ``check`` do."""

    # an iteration k = 0 that breaks nothing: tau unchanged, a unit trial
    # step, no normal step (delta = 0, so the Cauchy bounds are skipped)
    ROW = dict(k=0, alpha=1.0, tau=1.0, c_norm=1.0, norm_s=1.0, norm_v=0.0, norm_u=1.0,
               delta=0.0, beta=0.0)
    ARGS = dict(tau_prev=1.0, normal=None, z=np.zeros(2), x=np.ones(2), m0=0.0,
                J=np.zeros((1, 2)), A_k=0.0, cJs_norm=0.0, v_unit_norm=0.0)

    @classmethod
    def iterate(cls, row, orthant=False, **args):
        """The violations of one iteration: ``row`` over ``ROW`` is its
        ledger row, ``args`` over ``ARGS`` the rest of the call."""
        monitor = driver._InvariantMonitor(orthant)
        monitor.check_iteration(types.SimpleNamespace(**{**cls.ROW, **row}),
                                **{**cls.ARGS, **args})
        return monitor.violations

    def test_neutral_iteration_passes(self):
        assert self.iterate({}) == []
        assert self.iterate({}, orthant=True) == []

    def test_tau_monotone(self):
        assert self.iterate({"tau": 1.0 + 1e-15}) == []
        assert self.iterate({"tau": 1.25}) == [
            {"k": 0, "check": "tau_monotone", "margin": 0.25}]

    def test_tau_decrease_at_first_iteration_checks_its_inequality(self):
        # tau drops from TAU_INIT at k = 0: tau A_k <= (1 - SIGMA_C)(|c| - |c + J s|)
        gain = 1.0 - 0.5  # c_norm - cJs_norm
        bound = (1.0 - globalization.SIGMA_C) * gain
        start = dict(tau_prev=driver.TAU_INIT, cJs_norm=0.5)
        assert self.iterate({"tau": 0.5}, A_k=bound / 0.5, **start) == []
        violations = self.iterate({"tau": 0.5}, A_k=bound / 0.5 + 0.5, **start)
        assert violations == [{"k": 0, "check": "tau_update_inequality",
                               "margin": pytest.approx(0.25, abs=1e-15)}]
        # the inequality binds only a decreased tau
        assert self.iterate({}, A_k=bound / 0.5 + 0.5, **start) == []

    def test_step_parts_vanish(self):
        # a vanished step (|s| / alpha <= TOL_STEP) allows parts up to
        # 1e-8 (1 + |x|_inf) = 2e-8 here
        row = {"norm_s": 0.0, "norm_v": 2e-8, "norm_u": 2e-8}
        assert self.iterate(row) == []
        assert self.iterate({**row, "norm_u": 3e-8}) == [
            {"k": 0, "check": "step_parts_vanish", "margin": 3e-8}]
        # a step that did not vanish bounds nothing
        assert self.iterate({**row, "norm_s": 1e-11, "norm_u": 1.0}) == []

    def test_step_bounds_complementarity(self):
        # on the orthant |s| >= |min(x, -z)| = |(1, 0)| = 1
        args = {"x": np.ones(2), "z": np.array([-3.0, 0.0])}
        assert self.iterate({"norm_s": 1.0}, orthant=True, **args) == []
        assert self.iterate({"norm_s": 0.5}, orthant=True, **args) == [
            {"k": 0, "check": "step_bounds_complementarity", "margin": 0.5}]
        assert self.iterate({"norm_s": 0.5}, **args) == []

    @classmethod
    def check(cls, factor, monkeypatch):
        """One iteration whose two bounds at ||J||_2^2 = 0 are ``factor``
        times their left sides; here ||J||_2^2 = 1 halves each bound.
        Returns (violations, the margins of the formula with the SVD)."""
        K1 = driver._InvariantMonitor.KAPPA1
        c, J = np.array([1.0]), np.array([[-1.0, 0.0]])
        c_norm, alpha, beta, delta = 1.0, 1.0, 1.0, 1.0
        p = 1e-3
        # J ignores the second component of v_c, which sets ||v_c||, so the
        # Cauchy bound; ||v_unit|| sets the gain's
        lhs = 0.5 * float(np.dot(c, c)) - normal_step.model_value(c, J, np.array([p, 0.0]))
        v_c = np.array([p, np.sqrt(factor * lhs / K1 - p * p)])
        gain = c_norm - _norm(c + J @ v_c)
        v1n = np.sqrt(factor * gain / K1)

        jtj = np.linalg.norm(J, 2) ** 2
        ratio = _norm(v_c) / beta
        rhs = K1 * ratio * min(ratio / (1.0 + jtj), normal_step.KAPPA_V * alpha * delta)
        rhs2 = (K1 / c_norm) * v1n ** 2 * min(1.0 / (1.0 + jtj), normal_step.KAPPA_V * alpha)
        # the test at ||J||_2^2 = 0 fails exactly when factor > 1
        assert (lhs < K1 * ratio * ratio - 1e-10) == (gain < K1 * v1n ** 2 - 1e-10) \
            == (factor > 1)
        svds = []
        norm = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm", lambda *a: svds.append(a) or norm(*a))
        violations = cls.iterate(
            dict(alpha=alpha, c_norm=c_norm, norm_s=_norm(v_c), norm_v=_norm(v_c),
                 norm_u=0.0, delta=delta, beta=beta),
            normal=types.SimpleNamespace(
                v_cauchy=v_c, model_cauchy=normal_step.model_value(c, J, v_c),
                model=normal_step.model_value(c, J, v_c)),
            m0=0.5 * float(np.dot(c, c)), J=J, cJs_norm=1.0, v_unit_norm=v1n)
        assert len(svds) == (2 if factor > 1 else 0)
        return violations, (float(rhs - lhs), float(rhs2 - gain))

    def test_pass_at_zero_forms_no_svd(self, monkeypatch):
        assert self.check(0.5, monkeypatch)[0] == []

    def test_exact_bound_passes_what_the_bound_at_zero_fails(self, monkeypatch):
        violations, margins = self.check(1.5, monkeypatch)
        assert violations == []
        assert max(margins) < -1e-10

    def test_violation_margin_is_the_exact_formulas(self, monkeypatch):
        violations, margins = self.check(3.0, monkeypatch)
        assert violations == [
            {"k": 0, "check": "cauchy_decrease", "margin": margins[0]},
            {"k": 0, "check": "linearized_gain", "margin": margins[1]},
        ]
        assert min(margins) > 1e-10


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
        # f times 1e3 scales y and z by 1e3 at the same minimizer
        base = get_instance("eq-quad-1").problem
        p = self.scaled_twin(base, 1e3)
        cfg = SolverConfig()
        rep = solve(p, cfg)
        plain = solve(base, cfg)
        assert rep.status == plain.status == "KktPoint"
        chi, _ = kkt_residual(p, rep.x, rep.y, rep.z, rep.g_r)
        assert chi == rep.chi
        assert chi <= cfg.tol_stat
        np.testing.assert_allclose(rep.y, 1e3 * plain.y, rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(rep.z, 1e3 * plain.z, rtol=1e-8, atol=1e-8)

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

    def test_nonfinite_gradient_at_accepted_trial_is_rejected_step(self):
        # f and c are finite everywhere, the gradient is NaN outside
        # |x|inf <= 0.1: the first trial from (0.05, 0.05) passes the merit
        # test and then fails its gradient evaluation
        center = np.array([2.0, 0.0])

        def g(x):
            return x - center if np.max(np.abs(x)) <= 0.1 else np.full(2, np.nan)

        p = ProblemInstance(
            name="nan-grad", n=2, m=1,
            f_eval=lambda x: 0.5 * float((x - center) @ (x - center)), g_eval=g,
            c_eval=lambda x: np.array([x[0] + x[1] - 0.1]),
            J_eval=lambda x: np.ones((1, 2)),
            reg=L1Regularizer(np.zeros(2)), box=BoxSet.free(2), x0=np.full(2, 0.05))
        rep = solve(p, SolverConfig(alpha0=1.0))
        assert rep.status in ("KktPoint", "InfeasibleStationary", "MaxIter",
                              "TimeLimit", "Stalled")
        first = rep.records[0]
        assert not first.accepted and first.merit_after == np.inf
        assert rep.records[1].alpha == 0.5 * first.alpha

    @pytest.mark.parametrize("name", ["degen-1", "soft-thresh-1", "l1-sign-1", "quad-ineq-1"])
    def test_stop_test_in_caller_units(self, name):
        # f, c, J and the l1 weights times 1e3: scaling divides them back
        # down, and a stop test on the scaled problem used to report chi
        # from 5.6e-4 to 2.0e-3 in the caller's units
        p = get_instance(name).problem
        twin = ProblemInstance(
            name=p.name + "-1e3", n=p.n, m=p.m,
            f_eval=lambda x: 1e3 * p.f_eval(x),
            g_eval=lambda x: 1e3 * np.asarray(p.g_eval(x)),
            c_eval=lambda x: 1e3 * np.asarray(p.c_eval(x)),
            J_eval=lambda x: 1e3 * np.asarray(p.J_eval(x)),
            reg=L1Regularizer(1e3 * p.reg.weights), box=p.box, x0=p.x0)
        cfg = SolverConfig()
        rep = solve(twin, cfg)
        assert rep.status == "KktPoint"
        _, parts = kkt_residual(twin, rep.x, rep.y, rep.z, rep.g_r)
        assert parts.chi == rep.chi
        # the ledger's chi columns are the stop test's parts
        assert rep.records[-1].chi == rep.chi
        assert parts.stationarity <= cfg.tol_stat
        assert parts.complementarity <= cfg.tol_comp
        assert parts.feasibility <= cfg.tol_c

    def test_nonfinite_start_still_raises(self):
        p = ProblemInstance(
            name="nan-start", n=1, m=0, f_eval=lambda x: np.nan,
            g_eval=lambda x: np.zeros(1), c_eval=lambda x: np.zeros(0),
            J_eval=lambda x: np.zeros((0, 1)), reg=L1Regularizer(np.zeros(1)),
            box=BoxSet.free(1))
        with pytest.raises(EvaluationError):
            solve(p, SolverConfig())


class TestFinalIteration:
    """The iteration that ends a run reports its stop test's certificate
    and evaluates no derivative at its trial point."""

    @staticmethod
    def kkt_runs():
        for inst in corpus():
            rep = solve(inst.problem, SolverConfig(**inst.config_overrides))
            if rep.status == "KktPoint":
                yield inst, rep

    def test_kkt_point_chi_is_the_callers_residual(self):
        runs = list(self.kkt_runs())
        assert len(runs) == 11
        for inst, rep in runs:
            assert rep.chi == kkt_residual(inst.problem, rep.x, rep.y, rep.z, rep.g_r)[0]

    def test_derivatives_once_per_point_moved_to(self):
        # the start, then each accepted step but the last row, which a
        # KktPoint run rejects: its trial was certified, not moved to
        for inst, _ in self.kkt_runs():
            calls = collections.Counter()

            def counted(name, fn):
                def call(x):
                    calls[name] += 1
                    return fn(x)
                return call

            p = dataclasses.replace(inst.problem, g_eval=counted("g", inst.problem.g_eval),
                                    J_eval=counted("J", inst.problem.J_eval))
            rep = solve(p, SolverConfig(**inst.config_overrides))
            moved = sum(r.accepted for r in rep.records)
            assert calls == {"g": 1 + moved, "J": 1 + moved}, inst.name


class TestStartPoint:
    @pytest.mark.parametrize("x0", [0.5, [0.5], [0.5, 0.5, 0.5]],
                             ids=["scalar", "length-1", "length-3"])
    def test_wrong_shape_rejected_with_both_shapes(self, x0):
        # numpy would broadcast a scalar or length-1 x0 to every component;
        # the problem rejects it before any solve
        p = get_instance("eq-quad-1").problem
        with pytest.raises(ValueError) as err:
            dataclasses.replace(p, x0=x0)
        assert f"x0 has shape {np.shape(x0)}, the problem needs (2,)" in str(err.value)


def counted(p, calls):
    """p with each evaluator appending its name to ``calls``."""
    def wrap(name, fn):
        def inner(x):
            calls.append(name)
            return fn(x)
        return inner

    return dataclasses.replace(p, f_eval=wrap("f", p.f_eval), g_eval=wrap("g", p.g_eval),
                               c_eval=wrap("c", p.c_eval), J_eval=wrap("J", p.J_eval))


@pytest.mark.parametrize("name", [inst.name for inst in corpus()] + ["scca-64"])
def test_each_point_evaluated_once(name):
    # f, g, c, J at the start, then f and c at each trial point (g and J
    # only at accepted ones); scaling and the report reuse these values
    if name == "scca-64":
        p = scca.scca_problem(scca.scca_generate(64, 64, 64, 1), 1e-2)
        cfg = SolverConfig()
    else:
        inst = get_instance(name)
        p, cfg = inst.problem, SolverConfig(**inst.config_overrides)
    calls = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = solve(counted(p, calls), cfg)
    assert calls[:5] == ["f", "g", "c", "J", "f"]
    assert calls.count("f") == calls.count("c") == 1 + len(rep.records)


@pytest.mark.parametrize("inst", corpus(), ids=lambda inst: inst.name)
def test_zero_normal_step_kept_for_the_point(inst, monkeypatch):
    # what the normal step reads of the point, a zero step among it (it does
    # not depend on alpha), is formed once per point and reused by a
    # rejected trial: the ledger is that of a solve that forms it again on
    # every trial
    cfg = SolverConfig(**inst.config_overrides)

    def solve_counting(keep_point):
        points, steps, tol_inf = [], [], []  # x is a new array at each accepted point

        def form(x, *args):
            points.append(x)
            tol_inf.append(args[-1])
            return normal_step.normal_point(x, *args)

        def compute(x, c, J, alpha, box, point):
            if not keep_point:
                point = normal_step.normal_point(x, c, J, box, cfg.tol_c, tol_inf[-1])
            res = normal_step.compute_normal_step(x, c, J, alpha, box, point)
            steps.append((x, point, res))
            return res

        monkeypatch.setattr(driver, "normal_point", form)
        monkeypatch.setattr(driver, "compute_normal_step", compute)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = solve(inst.problem, cfg)
        # one step per trial, the last of an InfeasibleStationary end unrecorded
        assert len(steps) == len(rep.records) + (rep.status == "InfeasibleStationary")
        return ledger_to_csv(rep.records), points, steps

    kept, points, steps = solve_counting(True)
    again, _, _ = solve_counting(False)
    assert kept == again
    # one point per x the solve visits, and each trial's step from it
    assert len({id(x) for x in points}) == len(points)
    assert [id(x) for x in points] == list(dict.fromkeys(id(x) for x, _, _ in steps))
    for _, point, res in steps:
        assert (point.zero is not None) == (not np.any(res.v))
        assert point.zero is None or res is point.zero


def rank_deficient_l1(seed, n_lo, n_hi):
    """Random l1 problem whose last equality row is an integer combination
    of the others, so every Jacobian is rank deficient."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_lo, n_hi))
    m0 = int(rng.integers(1, max(2, min(4, n // 2))))
    A0 = rng.standard_normal((m0, n)) * (rng.random((m0, n)) < 0.5)
    A = np.vstack([A0, rng.integers(-2, 3, m0).astype(float) @ A0])  # a dependent row
    b = A @ (rng.standard_normal(n) * (rng.random(n) < 0.3))
    center = rng.standard_normal(n) * 2
    w = np.where(rng.random(n) < 0.9, rng.random(n), 0.0)
    lo = np.where(rng.random(n) < 0.3, -1.0, -np.inf)
    hi = np.where(rng.random(n) < 0.3, 1.0, np.inf)
    return ProblemInstance(
        name=f"rd{seed}", n=n, m=A.shape[0],
        f_eval=lambda x: 0.5 * float((x - center) @ (x - center)),
        g_eval=lambda x: x - center,
        c_eval=lambda x: A @ x - b, J_eval=lambda x: A.copy(),
        reg=L1Regularizer(w), box=BoxSet(lo, hi), x0=np.clip(rng.standard_normal(n), lo, hi))


class TestRankDeficientJacobian:
    def test_trial_point_stays_in_box(self):
        # p - q of a split component met its linking row only to 1e-10 and
        # left the box (x = -1.00000000002894 against lower -1), which made
        # the next normal step raise instead of returning a status
        p = rank_deficient_l1(22, 40, 100)
        assert (p.n, p.m) == (86, 3)
        rep = solve(p, SolverConfig(alpha0=1.0, max_iter=200))
        assert rep.status == "KktPoint"
        assert np.all(rep.x >= p.box.lower) and np.all(rep.x <= p.box.upper)

    def test_dependent_rows_solved_in_the_dual(self):
        # the last row of J depends on the others; the dual solve's
        # regularized Newton systems factor anyway
        p = rank_deficient_l1(1, 110, 160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve(p, SolverConfig(alpha0=1.0, max_iter=200))
        assert rep.status == "KktPoint"


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

    def test_tangential_iterations_per_row(self):
        inst = get_instance("eq-quad-1")
        rep = solve(inst.problem, SolverConfig())
        lines = ledger_to_csv(rep.records).splitlines()
        assert lines[0].endswith(",sign_pattern,tang_iters,tang_evals")
        for line, r in zip(lines[1:], rep.records):
            assert line.endswith(f",{r.sign_pattern},{r.tang_iters},{r.tang_evals}")
            assert r.tang_iters >= 0
            assert r.tang_evals >= 1  # w(y0) at least


class TestLedgerCells:
    """The hash and the sign pattern of a point give the ledger cells of
    the forms they replaced."""

    def test_hash_reads_the_buffer_in_place(self):
        rng = np.random.default_rng(42)
        for n in (0, 1, 3, 400):
            x = rng.standard_normal(n)
            x[: n // 3] = -0.0
            old = hashlib.sha256(np.ascontiguousarray(x, dtype=float).tobytes())
            assert driver._hash_point(x) == old.hexdigest()[:16]
        # a list is read as the float array it names
        assert driver._hash_point([0.5, 0.5]) == driver._hash_point(np.array([0.5, 0.5]))

    def test_sign_pattern_matches_the_arithmetic_form(self):
        rng = np.random.default_rng(43)
        chars = np.frombuffer(b"0+-", dtype="S1")
        specials = [0.0, -0.0, 1e-12, -1e-12, 2e-12, -2e-12, np.nan, np.inf, -np.inf]
        for _ in range(200):
            n = int(rng.integers(0, 40))
            x = np.where(rng.random(n) < 0.5, rng.choice(specials, n), rng.standard_normal(n))
            weighted = (rng.random(n) < 0.7).nonzero()[0]
            x_reg = x[weighted]
            code = (x_reg > 1e-12) + 2 * (x_reg < -1e-12)
            assert driver._sign_pattern(x, weighted) == chars[code].tobytes().decode()


class TestTangentialFailure:
    def test_stalled_warning_names_the_cause(self, monkeypatch):
        from pgcon.tangential import TangentialError

        def exhausted(*args, **kwargs):
            raise TangentialError("dual Newton system failed its Cholesky factorization")

        monkeypatch.setattr(driver, "solve_tangential", exhausted)
        inst = get_instance("eq-quad-1")
        with pytest.warns(UserWarning, match=r"iteration 0: dual Newton system failed"):
            rep = solve(inst.problem, SolverConfig())
        assert rep.status == "Stalled"
