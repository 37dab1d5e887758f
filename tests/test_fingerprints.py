"""tools/fingerprints.py's check of each answer against the caller's
problem: it must catch a false KktPoint report."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from pgcon.corpus import get_instance
from pgcon.driver import SolverConfig, solve

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
    # other statuses are not checked yet
    assert fingerprints.false_answer(dataclasses.replace(moved, status="MaxIter"), p, cfg) == []
