"""tools/fingerprints.py's check of each answer against the caller's
problem: it must catch a false report of each kind it checks."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from pgcon.corpus import get_instance
from pgcon.driver import SolverConfig, solve
from pgcon.problem import BoxSet, L1Regularizer, ProblemInstance

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fingerprints.py"


@pytest.fixture
def fingerprints(monkeypatch):
    """The tool as a module; the BLAS thread variables and sys.path it
    sets on import are put back afterwards."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("fingerprints", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_false_kkt_point_is_caught(fingerprints):
    p = get_instance("l1-lin-1").problem
    cfg = SolverConfig()
    rep = solve(p, cfg)
    assert rep.status == "KktPoint"
    assert fingerprints.false_answer(rep, p, cfg) == []
    # y moved: chi no longer kkt_residual's, and stationarity above tol_stat
    moved = dataclasses.replace(rep, y=rep.y + 1e-3)
    bad = fingerprints.false_answer(moved, p, cfg)
    assert len(bad) == 2 and bad[0].startswith("chi ") and bad[1].startswith("stationarity ")
    # a NaN chi never matches
    assert fingerprints.false_answer(dataclasses.replace(rep, chi=np.nan), p, cfg)
    # the multipliers are checked only for a KktPoint
    assert fingerprints.false_answer(dataclasses.replace(moved, status="MaxIter"), p, cfg) == []


def test_false_infeasible_stationary_is_caught(fingerprints):
    # c(x) = x1 + 0.1 x2 + 1 over x1 >= 0 is met at x2 = -10, but at x = 0
    # only x2 can move: J'c = (1, 0.1), delta = 0.1 and ||c|| = 1, so a
    # report of InfeasibleStationary there is false.  With x2 >= 0 too,
    # delta = 0 and the same report is true
    def problem(lower2):
        return ProblemInstance(
            name="fake-isp", n=2, m=1, f_eval=lambda x: 0.0, g_eval=lambda x: np.zeros(2),
            c_eval=lambda x: np.array([x[0] + 0.1 * x[1] + 1.0]),
            J_eval=lambda x: np.array([[1.0, 0.1]]), reg=L1Regularizer(np.zeros(2)),
            box=BoxSet(np.array([0.0, lower2]), np.full(2, np.inf)), x0=np.zeros(2))

    cfg = SolverConfig()
    true_isp = problem(0.0)
    rep = solve(true_isp, cfg)
    assert (rep.status, rep.x.tolist(), rep.c_norm) == ("InfeasibleStationary", [0.0, 0.0], 1.0)
    assert fingerprints.false_answer(rep, true_isp, cfg) == []
    bad = fingerprints.false_answer(rep, problem(-np.inf), cfg)
    assert bad == [f"delta 0.1 > tol_stat min(1, max|J(x0)|) |c(x)| {cfg.tol_stat!r}"]


def test_false_infeasible_stationary_on_a_small_jacobian_is_caught(fingerprints):
    # c(x) = 5e-5 (x - 1) is met at x = 1; at x = 0, delta / ||c|| = 5e-5
    # is below tol_stat but not below tol_stat max|J(x0)| = 5e-9
    p = ProblemInstance(
        name="small-J", n=1, m=1, f_eval=lambda x: 0.0, g_eval=lambda x: np.zeros(1),
        c_eval=lambda x: np.array([5e-5 * (x[0] - 1.0)]), J_eval=lambda x: np.array([[5e-5]]),
        reg=L1Regularizer(np.zeros(1)), box=BoxSet.free(1), x0=np.zeros(1))
    cfg = SolverConfig(max_iter=1)
    rep = dataclasses.replace(solve(p, cfg), status="InfeasibleStationary")
    bad = fingerprints.false_answer(rep, p, cfg)
    assert len(bad) == 1 and bad[0].startswith("delta ")


def test_non_positive_tau_is_caught(fingerprints):
    p = get_instance("l1-lin-1").problem
    cfg = SolverConfig()
    rep = solve(p, cfg)
    assert len(rep.records) == 2
    rows = [dataclasses.replace(r) for r in rep.records]
    rows[0].tau, rows[1].tau = 0.0, -1e-3
    bad = fingerprints.false_answer(dataclasses.replace(rep, records=rows), p, cfg)
    assert bad == ["tau 0.0 in row 0", "tau -0.001 in row 1"]
