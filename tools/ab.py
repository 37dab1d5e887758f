"""Time two pgcon source trees against each other in one process.

    python tools/ab.py BASE_SRC CHANGE_SRC [--suite corpus|scca] [--passes N]

BASE_SRC and CHANGE_SRC are each a directory that holds the ``pgcon``
package (a checkout's ``src``) or the package directory itself.  The two
trees are loaded side by side under the names ``pgcon_base`` and
``pgcon_change``; this works because the package imports its own modules
only relatively.  ``--suite corpus`` (the default) passes over the 12
analytic corpus instances, ``--suite scca`` over the four SCCA gate
cells, n in {200, 400} x lambda in {1e-2, 1e-3} on data seed 1 with
``alpha0 = 1e-3``, as ``tools/dispatch.py`` does.  A pass runs every
cell through ``run_benchmark`` and renders each ledger with
``ledger_to_csv``; the problems are built once per side, before any pass.

One warm-up pass per side comes first.  Then the sides alternate: pair i
runs the base first when i is even and the change first when i is odd,
so a drift of the host's speed falls on both.  For each side the script
prints the median pass time with its quartiles and the share of pairs in
which that side was the faster, then the change's median relative to the
base's, and whether the two sides wrote the same ledgers on the warm-up
pass (``ledgers identical: yes``).  It exits 0 whatever the times say.

BLAS runs on one thread.  One process reads both trees on the same core
and with the same warm caches, so a pass-to-pass spread of a few percent
resolves a gain that a timing of separate processes cannot.
"""

from __future__ import annotations

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402


def load(src: str, name: str):
    """The ``bench`` and ``driver`` modules of the pgcon tree at ``src``,
    imported as the package ``name``."""
    pkg = Path(src).resolve()
    if (pkg / "pgcon" / "__init__.py").is_file():
        pkg = pkg / "pgcon"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.bench"), importlib.import_module(f"{name}.driver")


def cells(bench, driver, suite: str):
    """The suite's cells, with their problems built now and no metrics."""
    if suite == "corpus":
        built = bench.corpus_suite()
    else:
        built = bench.scca_suite([200, 400], [1e-2, 1e-3], [1],
                                 driver.SolverConfig(alpha0=1e-3))
    return [dataclasses.replace(c, make=lambda prob=c.make()[0]: (prob, None)) for c in built]


def one_pass(bench, driver, suite_cells) -> tuple[float, list]:
    """(seconds, ledgers) of one pass over ``suite_cells``."""
    gc.collect()
    t0 = time.perf_counter()
    results = bench.run_benchmark(suite_cells)
    ledgers = [driver.ledger_to_csv(r.report.records) for r in results]
    return time.perf_counter() - t0, ledgers


def main() -> int:
    parser = argparse.ArgumentParser(description="Time two pgcon trees in one process.")
    parser.add_argument("base_src")
    parser.add_argument("change_src")
    parser.add_argument("--suite", choices=("corpus", "scca"), default="corpus")
    parser.add_argument("--passes", type=int, default=100,
                        help="timed passes per side (default 100)")
    args = parser.parse_args()
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    sides = {}
    for label, src in (("base", args.base_src), ("change", args.change_src)):
        bench, driver = load(src, f"pgcon_{label}")
        sides[label] = (bench, driver, cells(bench, driver, args.suite))
    warm = {label: one_pass(*side)[1] for label, side in sides.items()}

    times = {"base": [], "change": []}
    for i in range(args.passes):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for label in order:
            times[label].append(one_pass(*sides[label])[0])

    wins = sum(c < b for b, c in zip(times["base"], times["change"]))
    won = {"base": args.passes - wins, "change": wins}
    print(f"suite {args.suite}, {args.passes} alternating pairs")
    for label in ("base", "change"):
        ms = [1e3 * t for t in times[label]]
        q1, med, q3 = (statistics.quantiles(ms, n=4) if len(ms) > 1 else (ms[0],) * 3)
        print(f"  {label:6s} median {med:8.3f} ms  quartiles {q1:8.3f}-{q3:8.3f} ms  "
              f"faster in {won[label]} of {args.passes} pairs")
    base_med, change_med = (statistics.median(times[k]) for k in ("base", "change"))
    print(f"change/base median: {change_med / base_med - 1.0:+.2%}")
    print(f"ledgers identical: {'yes' if warm['base'] == warm['change'] else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
