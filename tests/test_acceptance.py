"""Acceptance gate: every criterion below must hold at its stated
tolerance.  Each test prints one PASS/FAIL line (run with -s to see them
on passing runs)."""

import time

import numpy as np
import pytest

from pgcon.corpus import corpus, get_instance
from pgcon.driver import (
    SolverConfig,
    identification_trackers,
    ledger_to_csv,
    solve,
)
from pgcon.geometry import PointData, active_set, kkt_parts
from pgcon.problem import BoxSet, check_derivatives
from pgcon.qp import solve_qp
from pgcon.scca import pattern_vectors, scca_generate, scca_metrics, scca_problem
from qp_oracle import enumerate_qp

SCCA_SEEDS = (1, 2, 3, 4, 5)


def _line(num, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {tag} - {detail}")
    return ok


@pytest.fixture(scope="module")
def scca_runs():
    """Five seeded n=200, lambda=1e-2 solves; criterion 4 reads the
    invariant violations of the first."""
    runs = {}
    for seed in SCCA_SEEDS:
        data = scca_generate(200, 200, 200, seed)
        prob = scca_problem(data, 1e-2)
        cfg = SolverConfig(alpha0=1e-3)
        t0 = time.perf_counter()
        rep = solve(prob, cfg)
        wall = time.perf_counter() - t0
        met = scca_metrics(rep.x[:200], rep.x[200:400], data)
        runs[seed] = (rep, met, wall)
    return runs


@pytest.fixture(scope="module")
def corpus_runs():
    """Every corpus instance solved from its own config."""
    runs = {}
    for inst in corpus():
        cfg = SolverConfig(**inst.config_overrides)
        runs[inst.name] = (inst, solve(inst.problem, cfg))
    return runs


def test_criterion_1_scca_reproduction(scca_runs):
    bad = []
    for seed, (rep, met, wall) in scca_runs.items():
        ok = (rep.status == "KktPoint" and wall <= 600.0
              and met.rho_xy >= 0.999 and met.sl == 0 and met.sr >= 0.98
              and met.voc_x <= 1e-6 and met.voc_y <= 1e-6)
        if not ok:
            bad.append((seed, rep.status, met))
    detail = (f"5 seeds, worst rho={min(m.rho_xy for _, m, _ in scca_runs.values()):.5f}, "
              f"worst sr={min(m.sr for _, m, _ in scca_runs.values()):.4f}, "
              f"max time={max(w for *_, w in scca_runs.values()):.1f}s")
    assert _line(1, not bad, detail + (f"; failures: {bad}" if bad else ""))
    assert not bad


def test_criterion_2_lambda_monotone_sparsity():
    srs = []
    for lam in (1e-2, 1e-3, 1e-4):
        data = scca_generate(200, 200, 200, seed=3)
        rep = solve(scca_problem(data, lam), SolverConfig(alpha0=1e-3))
        met = scca_metrics(rep.x[:200], rep.x[200:400], data)
        srs.append(met.sr)
    ok = srs[0] >= srs[1] >= srs[2]
    assert _line(2, ok, f"sr over lambda 1e-2,1e-3,1e-4 = {srs}")
    assert ok


def test_criterion_3_corpus_optimality(corpus_runs):
    total = 0
    good = 0
    isp_ok = False
    fails = []
    for name, (inst, rep) in corpus_runs.items():
        if inst.expected_status == "InfeasibleStationary":
            isp_ok = rep.status == "InfeasibleStationary"
            continue
        total += 1
        err = float(np.max(np.abs(rep.x - inst.oracle_x)))
        if rep.status == "KktPoint" and err <= 1e-4 and rep.chi <= 1e-4:
            good += 1
        else:
            fails.append((name, rep.status, err, rep.chi))
    frac = good / total
    ok = frac >= 0.95 and isp_ok
    assert _line(3, ok, f"{good}/{total} optimal ({frac:.0%}), infeasible case "
                 f"certified={isp_ok}" + (f"; failures: {fails}" if fails else ""))
    assert ok


def test_criterion_4_invariant_suite(scca_runs, corpus_runs):
    viols = []
    for name, (inst, rep) in corpus_runs.items():
        viols += [(name, v) for v in rep.invariant_violations]
    rep0 = scca_runs[SCCA_SEEDS[0]][0]
    viols += [("scca-200", v) for v in rep0.invariant_violations]
    # the corpus runs above include the shifted-merit check; so does this
    # SCCA cell, solved from alpha0 = 10
    data = scca_generate(200, 200, 200, seed=SCCA_SEEDS[0])
    rep10 = solve(scca_problem(data, 1e-2), SolverConfig(alpha0=10.0))
    viols += [("scca-200+alpha0=10", v) for v in rep10.invariant_violations]
    assert rep10.status == "KktPoint"
    ok = not viols
    assert _line(4, ok, f"zero violations across corpus+scca runs"
                 if ok else f"violations: {viols[:10]}")
    assert ok


def random_box_lsq(rng):
    """A bounded least-squares problem shaped like the normal step's
    trust-region subproblem: 1 to 3 rows, 2 to 8 columns, often rank
    deficient (a repeated row or column), fixed variables, one-sided
    infinite bounds, and a box that contains 0."""
    m, n = int(rng.integers(1, 4)), int(rng.integers(2, 9))
    G = rng.standard_normal((m, n))
    if m >= 2 and rng.random() < 0.3:
        G[-1] = 2.0 * G[0]
    if rng.random() < 0.3:
        G[:, -1] = G[:, 0]
    c0 = rng.standard_normal(m)
    radius = float(10 ** rng.uniform(-2, 0.5))
    lower = -radius * rng.random(n)
    upper = radius * rng.random(n)
    lower[rng.random(n) < 0.15] = 0.0
    upper[rng.random(n) < 0.15] = 0.0
    one_sided = rng.random(n) < 0.2
    lower[one_sided & (rng.random(n) < 0.5)] = -np.inf
    upper[one_sided & ~np.isinf(lower)] = np.inf
    fixed = rng.random(n) < 0.1
    lower[fixed] = upper[fixed] = 0.0
    return G, c0, lower, upper


def test_criterion_5_qp_oracle_equivalence():
    # the QP the solver runs, the trust-region step's bounded least
    # squares, against enumeration of its normal-equations form, and
    # certified by the solver's KKT certificate
    rng = np.random.default_rng(20240817)
    t0 = time.perf_counter()
    worst_model = worst_kkt = worst_primal = 0.0
    full_rank = 0
    for _ in range(200):
        G, c0, lower, upper = random_box_lsq(rng)
        ref = enumerate_qp(G.T @ G, G.T @ c0, None, None, lower, upper)
        sol = solve_qp(G, c0, lower, upper)
        assert sol.status == "solved"
        x, z = sol.primal, sol.bound_duals
        model, ref_model = (0.5 * float(np.sum((c0 + G @ v) ** 2)) for v in (x, ref[0]))
        worst_model = max(worst_model, abs(model - ref_model) / (1.0 + ref_model))
        n = G.shape[1]
        box = BoxSet(lower, upper)
        kkt = kkt_parts(G.T @ (c0 + G @ x), np.zeros(0), np.zeros(n), box, np.zeros(n),
                        PointData(x, box), z, np.zeros(n))
        worst_kkt = max(worst_kkt, kkt.chi)
        if np.linalg.matrix_rank(G) == n:
            # the minimizer is unique only where G has full column rank
            worst_primal = max(worst_primal, float(np.max(np.abs(x - ref[0]))))
            full_rank += 1
    elapsed = time.perf_counter() - t0
    ok = (worst_model <= 1e-9 and worst_kkt <= 1e-8 and worst_primal <= 1e-8
          and full_rank >= 10 and elapsed <= 60.0)
    assert _line(5, ok, f"200 box least-squares QPs, worst model err {worst_model:.2e}, "
                 f"worst KKT {worst_kkt:.2e}, worst primal err {worst_primal:.2e} "
                 f"on {full_rank} full-rank, {elapsed:.1f}s")
    assert ok


def test_criterion_6_identification(corpus_runs):
    inst, rep = corpus_runs["eq-quad-1"]
    k_aset, _ = identification_trackers(rep.records)
    final = active_set(rep.x, inst.problem.box)
    aset_ok = (k_aset is not None
               and final.at_lower == inst.oracle_active_lower
               and final.at_upper == inst.oracle_active_upper)

    inst2, rep2 = corpus_runs["l1-sign-1"]
    _, k_sign = identification_trackers(rep2.records)
    oracle_sign = "".join("+" if v > 0 else ("-" if v < 0 else "0")
                          for v in inst2.oracle_x)
    sign_ok = k_sign is not None and rep2.records[-1].sign_pattern == oracle_sign
    ok = aset_ok and sign_ok
    assert _line(6, ok, f"active set locked at iter {k_aset} -> "
                 f"{final.at_lower}/{final.at_upper}; sign pattern locked at "
                 f"iter {k_sign} -> {rep2.records[-1].sign_pattern!r}")
    assert ok


def test_criterion_7_derivative_and_generator_checks():
    worst = 0.0
    for inst in corpus():
        rep = check_derivatives(inst.problem, inst.problem.x0)
        worst = max(worst, rep.max_err)
    data = scca_generate(200, 200, 200, seed=2)
    prob = scca_problem(data, 1e-2)
    rng = np.random.default_rng(0)
    for _ in range(5):
        rep = check_derivatives(prob, rng.standard_normal(prob.n) * 0.05, h=1e-6)
        worst = max(worst, rep.max_err)
    # noise moment: empirical entry variance of the drawn pattern noise
    bx, by = pattern_vectors(200, 200)
    xi = np.concatenate([data.a - bx, data.b - by])
    var = float(np.var(xi))
    moment_ok = abs(var - 0.01) <= 0.2 * 0.01
    ok = worst <= 1e-6 and moment_ok
    assert _line(7, ok, f"worst derivative err {worst:.2e}, noise var {var:.4f}")
    assert ok


def test_criterion_8_determinism():
    outs = []
    for _ in range(2):
        data = scca_generate(200, 200, 200, seed=4)
        rep = solve(scca_problem(data, 1e-2), SolverConfig(alpha0=1e-3))
        outs.append(ledger_to_csv(rep.records))
    inst = get_instance("l1-sign-1")
    led = [ledger_to_csv(solve(inst.problem, SolverConfig()).records)
           for _ in range(2)]
    ok = outs[0] == outs[1] and led[0] == led[1]
    assert _line(8, ok, f"scca ledger {len(outs[0])} bytes identical across runs; "
                 "corpus ledger identical")
    assert ok
