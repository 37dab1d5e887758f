"""Benchmark harness: run solves as cells (one problem and config each),
collect result rows, and emit the results table.  Every CLI solve runs
through here: ``pgcon bench`` runs a suite (the corpus and/or an SCCA
grid) and ``pgcon solve`` a single cell.

Cells run one after another on the calling thread, in the order given;
results come back sorted by key.
"""

from __future__ import annotations

import dataclasses
import io
import time
from dataclasses import dataclass
from typing import Callable, Optional

from . import scca as scca_mod
from .corpus import corpus
from .driver import SolveReport, SolverConfig, solve

__all__ = ["BenchCell", "BenchResult", "scca_suite", "corpus_suite",
           "run_benchmark", "result_row", "results_to_csv", "RESULT_COLUMNS"]

RESULT_COLUMNS = [
    "instance", "n", "m", "lambda", "seed", "status", "iters", "time_s",
    "chi", "c_norm", "rho_xy", "sr_x", "sr_y", "sr", "sl", "voc_x", "voc_y",
]
_METRIC_COLUMNS = RESULT_COLUMNS[RESULT_COLUMNS.index("rho_xy"):]


@dataclass
class BenchCell:
    """One solve to perform: a problem factory plus its config."""

    instance: str
    seed: int
    make: Callable[[], object]  # -> (ProblemInstance, metrics_fn or None)
    config: SolverConfig
    lam: float = float("nan")


@dataclass
class BenchResult:
    """One cell's outcome.  A cell whose factory, solve or metrics raised
    has status "Error", the message in ``error`` and None for every value
    it did not reach.  The iteration count, ``chi`` and ``c_norm`` are
    the report's."""

    instance: str
    seed: int
    lam: float
    status: str
    n: Optional[int] = None
    m: Optional[int] = None
    time_s: Optional[float] = None
    metrics: Optional[scca_mod.SccaMetrics] = None
    report: Optional[SolveReport] = None
    error: str = ""


def scca_suite(sizes, lams, seeds, base_cfg: Optional[SolverConfig] = None) -> list[BenchCell]:
    """SCCA cells over sizes x lambdas x seeds, each with N = n samples."""
    base = base_cfg or SolverConfig()
    cells = []
    for n in sizes:
        if n % 8:
            raise ValueError(f"SCCA size {n} is not divisible by 8")
        for lam in lams:
            for seed in (seeds or [0]):
                def make(n=n, lam=lam, seed=seed):
                    data = scca_mod.scca_generate(n, n, n, seed)
                    prob = scca_mod.scca_problem(data, lam)

                    def metrics(report, _wall):
                        nx = data.n_x
                        return scca_mod.scca_metrics(
                            report.x[:nx], report.x[nx:nx + data.n_y], data)

                    return prob, metrics
                cells.append(BenchCell(
                    instance=f"scca-{n}", seed=seed, make=make,
                    config=base, lam=lam,
                ))
    return cells


def corpus_suite(base_cfg: Optional[SolverConfig] = None) -> list[BenchCell]:
    base = base_cfg or SolverConfig()
    cells = []
    for inst in corpus():
        def make(inst=inst):
            return inst.problem, None
        cells.append(BenchCell(
            instance=inst.name, seed=0, make=make,
            config=dataclasses.replace(base, **inst.config_overrides),
        ))
    return cells


def _run_cell(cell: BenchCell) -> BenchResult:
    res = BenchResult(instance=cell.instance, seed=cell.seed, lam=cell.lam,
                      status="Error")
    try:
        prob, metrics_fn = cell.make()
        res.n, res.m = prob.n, prob.m
        t0 = time.perf_counter()
        report = solve(prob, cell.config)
        res.time_s = time.perf_counter() - t0
        res.status, res.report = report.status, report
        if metrics_fn is not None:
            res.metrics = metrics_fn(report, res.time_s)
    except Exception as exc:  # individual failures recorded, suite continues
        res.status, res.error = "Error", f"{type(exc).__name__}: {exc}"
    return res


def run_benchmark(cells: list[BenchCell], threads: int = 1) -> list[BenchResult]:
    """Run the cells in order on the calling thread; results come back
    sorted by (instance, lam, seed).  ``threads`` is ignored: it stays
    only because the corpus-sweep benchmark workload passes it."""
    results = [_run_cell(c) for c in cells]
    results.sort(key=lambda r: (r.instance, r.lam if r.lam == r.lam else -1.0, r.seed))
    return results


def result_row(r: BenchResult) -> dict:
    """The ``RESULT_COLUMNS`` values of one result plus its ``error``;
    None where a value does not exist (no lambda, no metrics, no report)."""
    rep = r.report
    row = {"instance": r.instance, "n": r.n, "m": r.m,
           "lambda": r.lam if r.lam == r.lam else None, "seed": r.seed,
           "status": r.status, "iters": None if rep is None else rep.iterations,
           "time_s": r.time_s, "chi": None if rep is None else rep.chi,
           "c_norm": None if rep is None else rep.c_norm}
    for col in _METRIC_COLUMNS:
        row[col] = None if r.metrics is None else getattr(r.metrics, col)
    row["error"] = r.error or None
    return row


def _csv_field(v) -> str:
    if v is None:
        return ""
    return repr(float(v)) if isinstance(v, float) else str(v)


def results_to_csv(results: list[BenchResult]) -> str:
    buf = io.StringIO()
    buf.write(",".join(RESULT_COLUMNS) + "\n")
    for r in results:
        row = result_row(r)
        buf.write(",".join(_csv_field(row[c]) for c in RESULT_COLUMNS) + "\n")
    return buf.getvalue()
