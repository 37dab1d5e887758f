"""Fingerprint a fixed sweep of solves, or compare two fingerprint files.

    python tools/fingerprints.py OUT.json [--gate-seeds 1,2,3]
    python tools/fingerprints.py --compare A.json B.json

Run from the repository root; the package is imported from ``src/`` and
the fuzz generator and ``rank_deficient_l1`` from ``tests/``.  Each solve
maps to ``[status, iterations, ledger sha256, invariant violations]``,
the last the number of step inequalities the solve's own check found
broken.  Each ``KktPoint`` answer is also checked from outside the
solver: ``kkt_residual`` on the caller's problem must give the report's
chi (by ``==``, so a NaN fails) and meet the config's three tolerances.
A sweep prints every answer that fails and exits 1 when one does; the
fingerprints are written either way, in the same four-entry format.
The sweep:

* the fuzz sweep: ``test_fuzz.fuzz_case`` draws of rng 99 x 60 and rngs
  5, 6, 7 x 150, plus both ``rank_deficient_l1`` instances (512 solves);
* the 12 corpus instances (12 solves);
* the SCCA gate grid, n in {200, 400} x lambda in {1e-2, 1e-3}, with
  ``alpha0 = 1e-3`` (perfbench's ``SCCA_CONFIG``), on each data seed of
  ``--gate-seeds``.

BLAS runs on one thread, so a sweep loads one core.  The gate grid's
ledgers are the same on one and two threads (``tests/test_scca.py`` pins
one cell); the other solves have not been compared.  The ledger hashes
depend on the OpenBLAS kernel, which OpenBLAS picks for the CPU and
``OPENBLAS_CORETYPE`` overrides: compare files written under one kernel,
or compare only statuses and iterations across kernels.  With
``--gate-seeds 1,2,3`` a sweep is 536 solves and takes 28 s on one core
(Python 3.11, numpy 2.4.6, a 2-vCPU Xeon VM).  ``--compare`` prints every
solve whose fingerprint differs, or that only one side has: first those
whose status changed, then those whose iterations changed, then those
where only the ledger or the violation count changed.  It ends with the
status counts of each side and the size of each of the three groups, and
exits 1 when any solve differs.
"""

from __future__ import annotations

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from pgcon import scca  # noqa: E402
from pgcon.corpus import corpus  # noqa: E402
from pgcon.driver import SolverConfig, kkt_residual, ledger_to_csv, solve  # noqa: E402
from test_driver import rank_deficient_l1  # noqa: E402
from test_fuzz import fuzz_case  # noqa: E402

FUZZ_DRAWS = ((99, 60), (5, 150), (6, 150), (7, 150))
RANK_DEFICIENT = ((22, 40, 100), (1, 110, 160))
GATE_CELLS = ((200, 1e-2), (200, 1e-3), (400, 1e-2), (400, 1e-3))


def sweep(gate_seeds):
    """(key, problem, config) of every solve, in a fixed order."""
    for seed, count in FUZZ_DRAWS:
        rng = np.random.default_rng(seed)
        for trial in range(count):
            p, cfg = fuzz_case(rng, trial)
            yield f"fuzz/rng{seed}/{trial}", p, cfg
    for args in RANK_DEFICIENT:
        yield (f"rank_deficient_l1{args}", rank_deficient_l1(*args),
               SolverConfig(alpha0=1.0, max_iter=200))
    for inst in corpus():
        yield (f"corpus/{inst.name}", inst.problem,
               SolverConfig(**inst.config_overrides))
    for seed in gate_seeds:
        for n, lam in GATE_CELLS:
            data = scca.scca_generate(n, n, n, seed)
            yield (f"gate/seed{seed}/n{n}/lam{lam:g}", scca.scca_problem(data, lam),
                   SolverConfig(alpha0=1e-3))


def false_answer(rep, p, cfg) -> list:
    """What is false in ``rep`` on the caller's problem ``p``: for a
    ``KktPoint``, a chi other than ``kkt_residual``'s or a part above its
    tolerance (a NaN fails both).  Other statuses are not checked yet."""
    if rep.status != "KktPoint":
        return []
    chi, parts = kkt_residual(p, rep.x, rep.y, rep.z, rep.g_r)
    bad = [f"chi {rep.chi!r}, kkt_residual {chi!r}"] if chi != rep.chi else []
    for name, tol in (("feasibility", cfg.tol_c), ("stationarity", cfg.tol_stat),
                      ("subgradient_margin", cfg.tol_stat), ("complementarity", cfg.tol_comp)):
        value = getattr(parts, name)
        if not value <= tol:
            bad.append(f"{name} {value!r} > {tol!r}")
    return bad


def fingerprint(rep) -> list:
    sha = hashlib.sha256(ledger_to_csv(rep.records).encode()).hexdigest()
    return [rep.status, rep.iterations, sha, len(rep.invariant_violations)]


def run(out: Path, gate_seeds) -> int:
    """Write the sweep's fingerprints to ``out``; return the number of
    false answers."""
    prints, false = {}, 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for key, p, cfg in sweep(gate_seeds):
            rep = solve(p, cfg)
            prints[key] = fingerprint(rep)
            bad = false_answer(rep, p, cfg)
            if bad:
                false += 1
                print(f"{key}: false {rep.status}: " + "; ".join(bad))
    out.write_text(json.dumps(prints, indent=1, sort_keys=True) + "\n")
    statuses = collections.Counter(fp[0] for fp in prints.values())
    print(f"{len(prints)} solves -> {out}: {dict(sorted(statuses.items()))}, "
          f"{false} false answers")
    return false


def compare(path_a: Path, path_b: Path) -> int:
    a, b = (json.loads(p.read_text()) for p in (path_a, path_b))
    differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    groups = {"status changed": [], "iterations changed": [], "only the ledger changed": []}
    for key in differ:
        fa, fb = a.get(key, [None] * 4), b.get(key, [None] * 4)
        group = ("status changed" if fa[0] != fb[0] else
                 "iterations changed" if fa[1] != fb[1] else "only the ledger changed")
        groups[group].append(key)
    for keys in groups.values():
        for key in keys:
            print(f"{key}\n  A {a.get(key)}\n  B {b.get(key)}")
    for name, side in (("A", a), ("B", b)):
        statuses = collections.Counter(fp[0] for fp in side.values())
        viols = sum(fp[3] for fp in side.values())
        print(f"{name}: {len(side)} solves, {dict(sorted(statuses.items()))}, "
              f"{viols} invariant violations")
    print(", ".join(f"{len(keys)} {group}" for group, keys in groups.items()))
    print(f"{len(differ)} solves differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", nargs="?", type=Path, help="fingerprint file to write")
    ap.add_argument("--gate-seeds", default="1",
                    help="comma-separated SCCA data seeds of the gate grid")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        ap.error("give an output file or --compare A B")
    return 1 if run(args.out, [int(s) for s in args.gate_seeds.split(",")]) else 0


if __name__ == "__main__":
    sys.exit(main())
