"""The benchmark's workloads: inputs made from a seed, the solves, and the
check of every answer.

Every name the solves go through is looked up on its pgcon module at call
time (``driver.solve``, ``bench.run_benchmark``, ``scca.scca_generate``),
so a ``layers.Tracer`` installed around a round sees them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from pgcon import bench, corpus, driver, scca
from reference import Reference

SCCA_CONFIG = dict(alpha0=1e-3)
SCCA_GATE = ((200, 1e-2), (200, 1e-3), (400, 1e-2), (400, 1e-3))
# the smoke grid keeps n = 200, the size criterion 1 (sr >= 0.98) is stated for
SCCA_GATE_SMOKE = ((200, 1e-2), (200, 1e-3))
SCCA_DATA_SEED = 1  # the ROADMAP gate seed
CORPUS_PASSES = 10
CORPUS_PASSES_SMOKE = 2
CORPUS_THREADS = 2
ZERO_TOL = 1e-8  # same threshold scca_metrics uses for its sparsity ratio


@dataclass
class SolveRecord:
    """One checked solve.  ``qp_iters`` is known only while a tracer runs."""

    key: str
    ok: bool
    detail: str
    iters: int
    ledger_sha: str
    qp_iters: Optional[int]
    sparsity: float  # share of l1-weighted variables at zero; nan if none
    accepted_steps: int
    steps: int

    def fingerprint(self) -> tuple:
        return (self.iters, self.qp_iters, self.ledger_sha)


@dataclass
class Round:
    wall_s: float
    # wall_s at the reference machine speed; None: rescale by the median
    # of all the run's kernel times
    scaled_wall_s: Optional[float]
    workers: int
    records: list


def _ledger_sha(report) -> str:
    return hashlib.sha256(driver.ledger_to_csv(report.records).encode()).hexdigest()


def _record(key, report, ok, detail, sparsity, qp_iters) -> SolveRecord:
    return SolveRecord(
        key=key, ok=ok, detail=detail, iters=report.iterations,
        ledger_sha=_ledger_sha(report), qp_iters=qp_iters, sparsity=sparsity,
        accepted_steps=sum(r.accepted for r in report.records), steps=len(report.records),
    )


def _failed(key, detail) -> SolveRecord:
    return SolveRecord(key=key, ok=False, detail=detail, iters=0, ledger_sha="",
                       qp_iters=None, sparsity=float("nan"), accepted_steps=0, steps=0)


def check_scca(report, data, lam) -> tuple[bool, str, float]:
    """Acceptance criterion 1 of the test suite; sr >= 0.98 at lambda 1e-2 only."""
    nx, ny = data.n_x, data.n_y
    met = scca.scca_metrics(report.x[:nx], report.x[nx:nx + ny], data)
    bad = []
    if report.status != "KktPoint":
        bad.append(f"status {report.status}")
    if met.rho_xy < 0.999:
        bad.append(f"rho_xy {met.rho_xy:.6f}")
    if met.sl != 0:
        bad.append(f"sl {met.sl}")
    if max(met.voc_x, met.voc_y) > 1e-6:
        bad.append(f"voc {max(met.voc_x, met.voc_y):.3g}")
    if lam == 1e-2 and met.sr < 0.98:
        bad.append(f"sr {met.sr:.4f}")
    return not bad, "; ".join(bad), float(met.sr)


def check_corpus(report, inst) -> tuple[bool, str, float]:
    """Acceptance criterion 3: expected status, and for KKT instances the
    oracle point within 1e-4 and chi <= 1e-4."""
    bad = []
    if report.status != inst.expected_status:
        bad.append(f"status {report.status}, expected {inst.expected_status}")
    elif inst.expected_status == "KktPoint":
        err = float(np.max(np.abs(report.x - inst.oracle_x)))
        if err > 1e-4:
            bad.append(f"max|x - oracle_x| {err:.3g}")
        if report.chi > 1e-4:
            bad.append(f"chi {report.chi:.3g}")
    weighted = inst.problem.reg.weights > 0
    sparsity = (float(np.mean(np.abs(report.x[weighted]) <= ZERO_TOL))
                if weighted.any() else float("nan"))
    return not bad, "; ".join(bad), sparsity


class SccaGate:
    """SCCA cells solved one after another with ``driver.solve``.

    The data is fixed (``SCCA_DATA_SEED``) and the workload seed permutes
    the order of the cells.  Outer iterations per instance vary between
    data seeds by up to 2x while QP work hardly does, so data that
    followed the seed would make ``ms_per_iter`` measure the draw rather
    than the solver.
    """

    name = "scca-gate"

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.grid = SCCA_GATE_SMOKE if smoke else SCCA_GATE
        self.cells = []

    def setup(self):
        cells = []
        for n, lam in self.grid:
            data = scca.scca_generate(n, n, n, SCCA_DATA_SEED)
            cells.append((f"n{n}-lam{lam:g}", data, lam, scca.scca_problem(data, lam)))
        order = np.random.default_rng(self.seed).permutation(len(cells))
        self.cells = [cells[i] for i in order]

    def run_round(self, qp_iters: Callable[[], Optional[int]], ref: Reference) -> Round:
        cfg = driver.SolverConfig(**SCCA_CONFIG)
        records = []
        wall = scaled = 0.0
        after = None
        for key, data, lam, prob in self.cells:
            # every solve is rescaled by the kernel runs on either side of it
            outcome, raw, scale, after = ref.timed(lambda: _try_solve(prob, cfg), after)
            wall += raw
            scaled += raw * scale
            if isinstance(outcome, Exception):  # a raising solve is a failed solve
                records.append(_failed(key, f"{type(outcome).__name__}: {outcome}"))
                continue
            ok, detail, sparsity = check_scca(outcome, data, lam)
            records.append(_record(key, outcome, ok, detail, sparsity, qp_iters()))
        return Round(wall_s=wall, scaled_wall_s=scaled, workers=1, records=records)


def _try_solve(prob, cfg):
    try:
        return driver.solve(prob, cfg)
    except Exception as exc:
        return exc


class CorpusSweep:
    """The analytic corpus, repeated, submitted as one ``run_benchmark``
    batch; the seed permutes the submission order."""

    name = "corpus-sweep"

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.passes = CORPUS_PASSES_SMOKE if smoke else CORPUS_PASSES
        self.cells = []

    def setup(self):
        instances = corpus.corpus()
        self.cells = []
        for inst in instances:
            cfg = driver.SolverConfig(**inst.config_overrides)
            for rep in range(self.passes):
                self.cells.append(bench.BenchCell(
                    instance=inst.name, seed=rep, make=self._maker(inst), config=cfg))
        order = np.random.default_rng(self.seed).permutation(len(self.cells))
        self.cells = [self.cells[i] for i in order]
        self._qp_iters = None

    def _maker(self, inst):
        # the "metrics" hook runs on the worker right after the solve,
        # so it sees the report and that thread's QP counter
        def check(report, wall):
            ok, detail, sparsity = check_corpus(report, inst)
            return _record(inst.name, report, ok, detail, sparsity, self._qp_iters())

        def make():
            return inst.problem, check

        return make

    def run_round(self, qp_iters: Callable[[], Optional[int]], ref: Reference) -> Round:
        self._qp_iters = qp_iters
        # the kernel runs on one core, so two samples cannot say how fast
        # a 2-thread batch ran; they join the run's samples instead
        results, wall, _, _ = ref.timed(
            lambda: bench.run_benchmark(self.cells, threads=CORPUS_THREADS))
        records = []
        for res in results:
            key = f"{res.instance}#{res.seed}"
            if res.metrics is None:
                records.append(_failed(key, res.error or f"status {res.status}"))
            else:
                res.metrics.key = key
                records.append(res.metrics)
        return Round(wall_s=wall, scaled_wall_s=None, workers=CORPUS_THREADS,
                     records=records)


WORKLOADS = {w.name: w for w in (SccaGate, CorpusSweep)}
