import numpy as np
import pytest

from pgcon.globalization import (
    ALPHA_CAP,
    ALPHA_FLOOR,
    ALPHA_MAX,
    compute_Ak,
    merit_from_parts,
    sufficient_decrease,
    tau_trial,
    update_alpha,
    update_tau,
)


class TestMerit:
    def test_arithmetic(self):
        assert merit_from_parts(2.0, 3.0, 4.0, 1.0) == 9.0
        assert merit_from_parts(2.0, 3.0, 4.0, 0.5) == 6.5


class TestAk:
    def test_zero_step(self):
        assert compute_Ak(np.ones(3), np.zeros(3), 0.0, 1.0, 5.0, 5.0) == 0.0

    def test_arithmetic(self):
        val = compute_Ak(np.array([1.0]), np.array([-1.0]), 1.0, 1.0, 0.0, 0.0)
        assert val == pytest.approx(-0.5)


class TestTauTrial:
    def test_nonpositive_numerator_gives_inf(self):
        assert tau_trial(-0.1, 1.0, 0.5) == np.inf
        assert tau_trial(0.0, 1.0, 0.5) == np.inf

    def test_ratio(self):
        assert tau_trial(1.0, 3.0, 1.0) == pytest.approx(1.8)

    def test_zero_gain_with_positive_curvature(self):
        # no positive weight makes a step with no linearized gain descend:
        # the weight is kept, so it stays positive
        assert tau_trial(2.0, 1.0, 1.0) == np.inf
        assert tau_trial(2.0, 1.0, 1.0 + 1e-15) == np.inf


class TestUpdateTau:
    def test_hold_when_small_enough(self):
        assert update_tau(1.0, np.inf) == 1.0
        assert update_tau(1.0, 1.0) == 1.0

    def test_drop_to_trial(self):
        assert update_tau(1.0, 0.5) == 0.5

    def test_forced_decrease_factor(self):
        assert update_tau(1.0, 0.95) == pytest.approx(0.9)

    def test_nonincreasing_over_random_sequences(self):
        rng = np.random.default_rng(1)
        tau = 1.0
        for _ in range(200):
            trial = float(10 ** rng.uniform(-4, 4)) if rng.random() < 0.9 else np.inf
            new = update_tau(tau, trial)
            assert new <= tau + 1e-15
            tau = new


class TestSufficientDecrease:
    def test_flat_merit_nonzero_step_rejected(self):
        assert not sufficient_decrease(5.0, 5.0, 1.0, 1.0, 1.0, 1.0, 1.0)

    def test_large_drop_accepted(self):
        rhs_mag = 1e-4 * (1.0 / 4.0)
        assert sufficient_decrease(5.0 - 2 * rhs_mag, 5.0, 1.0, 1.0, 1.0, 1.0, 1.0)

    def test_slack_tolerates_cancellation(self):
        s_sq = 1e-9 * 1e-9
        assert sufficient_decrease(5.0 + 1e-15, 5.0, 1.0, 1.0, s_sq, 0.0, 0.0)


class TestUpdateAlpha:
    def test_rejected_always_shrinks(self):
        assert update_alpha(10.0, False) == 5.0

    def test_accepted_doubles_up_to_cap(self):
        assert update_alpha(4.0, True) == 8.0
        assert update_alpha(8.0, True) == 10.0

    def test_doubles_unless_curvature_is_small(self):
        # no estimate (None: not computed, unlike l = 0, the flat case), or
        # an estimate above 1/(2 cap), gives the doubling
        for ell in (None, 0.05 * (1 + 1e-12), 0.5, 1e300, np.inf):
            assert update_alpha(1e-3, True, lipschitz=ell) == 2e-3
            assert update_alpha(4.0, True, lipschitz=ell) == 8.0

    def test_doubling_never_exceeds_cap(self):
        # the blind doubling stops at the cap, also from above it
        for alpha in (1e-3, 4.0, 8.0, 10.0, 1e3, ALPHA_MAX):
            for ell in (None, 0.06, 1.0, np.inf):
                out = update_alpha(alpha, True, lipschitz=ell)
                assert out == min(2.0 * alpha, ALPHA_CAP)

    def test_takes_inverse_lipschitz_bound_on_small_estimate(self):
        # 0 < l <= 1/(2 cap): alpha = min(ALPHA_MAX, 1/(2 l)), whatever
        # alpha was before
        assert 1.0 / (2.0 * ALPHA_CAP) == 0.05
        for alpha in (1e-3, 10.0, ALPHA_MAX):
            assert update_alpha(alpha, True, lipschitz=0.05) == 10.0
            assert update_alpha(alpha, True, lipschitz=0.025) == 20.0
            assert update_alpha(alpha, True, lipschitz=1e-4) == 5e3
            assert update_alpha(alpha, True, lipschitz=5e-7) == ALPHA_MAX
            for ell in (4e-7, 1e-12, 1e-300, 5e-324):
                assert update_alpha(alpha, True, lipschitz=ell) == ALPHA_MAX

    def test_flat_lagrangian_gives_alpha_max(self):
        assert ALPHA_MAX == 1e6
        for alpha in (1e-3, 10.0, ALPHA_MAX):
            assert update_alpha(alpha, True, lipschitz=0.0) == ALPHA_MAX

    def test_never_exceeds_alpha_max(self):
        for alpha in (1e-3, 10.0, 1e5, ALPHA_MAX):
            for ell in (None, 0.0, 5e-324, 1e-9, 0.05, 1.0):
                assert update_alpha(alpha, True, lipschitz=ell) <= ALPHA_MAX

    def test_rejection_ignores_curvature(self):
        # and ignores whether the step before was accepted
        for ell in (None, 0.0, 1e-9, 0.05, 1.0):
            for prev in (True, False):
                assert update_alpha(1e-3, False, lipschitz=ell,
                                    prev_accepted=prev) == 5e-4

    def test_holds_after_rejection(self):
        # the first acceptance after a rejection keeps alpha, so the next
        # trial does not repeat the alpha just rejected
        for ell in (None, 0.05 * (1 + 1e-12), 0.5, np.inf):
            for alpha in (1e-3, 1.25, 4.0, 8.0, 10.0):
                assert update_alpha(alpha, True, lipschitz=ell,
                                    prev_accepted=False) == alpha
            # and keeps it at the cap when alpha is above it
            for alpha in (10.0 * (1 + 1e-12), 1e3, ALPHA_MAX):
                assert update_alpha(alpha, True, lipschitz=ell,
                                    prev_accepted=False) == ALPHA_CAP
        # growth resumes on the second acceptance in a row
        assert update_alpha(1.25, True, prev_accepted=True) == 2.5
        assert update_alpha(1.25, True) == 2.5

    def test_flat_jump_fires_after_rejection(self):
        for alpha in (1e-3, 10.0, ALPHA_MAX):
            for prev in (True, False):
                assert update_alpha(alpha, True, lipschitz=0.05,
                                    prev_accepted=prev) == 10.0
                assert update_alpha(alpha, True, lipschitz=1e-4,
                                    prev_accepted=prev) == 5e3
                assert update_alpha(alpha, True, lipschitz=0.0,
                                    prev_accepted=prev) == ALPHA_MAX

    def test_floor_constant(self):
        assert ALPHA_FLOOR == 1e-16
