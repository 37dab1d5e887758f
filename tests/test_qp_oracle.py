"""The enumeration oracle against its per-pattern loop form, bit for bit."""

import numpy as np

import qp_oracle
import qp_oracle_loops
from test_acceptance import random_box_lsq


def random_eq_qp(rng):
    """A box/equality QP like the fuzz draws of test_fuzz.py: singular or
    indefinite-free H, one-sided and fixed bounds, dependent equality rows."""
    d = int(rng.integers(1, 7))
    p = int(rng.integers(0, min(3, d) + 1))
    B = rng.standard_normal((d, d))
    H = B.T @ B * rng.choice([0.0, 1.0]) + rng.choice([0.0, 0.3, 1.0]) * np.eye(d)
    q = rng.standard_normal(d) * 3
    lower = np.where(rng.random(d) < 0.6, rng.standard_normal(d) - 1, -np.inf)
    upper = np.where(rng.random(d) < 0.6, rng.standard_normal(d) + 1, np.inf)
    lower, upper = np.minimum(lower, upper), np.maximum(lower, upper)
    if rng.random() < 0.3 and np.isfinite(lower[0]):
        upper[0] = lower[0]
    Aeq = rng.standard_normal((p, d))
    if p >= 2 and rng.random() < 0.3:
        Aeq[1] = 2.0 * Aeq[0]
    beq = Aeq @ np.clip(rng.standard_normal(d), lower, upper)
    return H, q, Aeq, beq, lower, upper


def assert_same_bits(args):
    fast, ref = qp_oracle.enumerate_qp(*args), qp_oracle_loops.enumerate_qp(*args)
    assert (fast is None) == (ref is None)
    if ref is not None:
        for a, b in zip(fast, ref):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
    return ref is not None


def test_box_least_squares_draws_match_loops():
    # the first 30 draws of test_criterion_5_qp_oracle_equivalence
    rng = np.random.default_rng(20240817)
    widths = set()
    for _ in range(30):
        G, c0, lower, upper = random_box_lsq(rng)
        assert assert_same_bits((G.T @ G, G.T @ c0, None, None, lower, upper))
        widths.add(G.shape[1])
    assert 8 in widths


def test_equality_constrained_draws_match_loops():
    rng = np.random.default_rng(77)
    found = [assert_same_bits(random_eq_qp(rng)) for _ in range(60)]
    assert 20 <= sum(found) < 60
