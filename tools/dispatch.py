"""Count the Python-level calls of one pass over a benchmark suite.

    python tools/dispatch.py [--suite corpus|scca]

Run from the repository root; the package is imported from ``src/``.
``--suite corpus`` (the default) passes over the 12 analytic corpus
instances; ``--suite scca`` over the four SCCA gate cells, n in {200,
400} x lambda in {1e-2, 1e-3} on data seed 1 with ``alpha0 = 1e-3``.
One ``run_benchmark`` pass runs first as a warm-up, then a second runs
under cProfile; its problems are built before the profile starts, so
only the solves are counted.  The script prints the total number of
calls of the profiled pass, the calls per outer iteration, and the calls
made from each ``pgcon`` module (calls made from anywhere else, numpy's
own Python code for one, are grouped by top-level package).

At the corpus's sizes (n <= 3) an iteration costs little arithmetic and
many numpy and Python calls, so the call count follows the dispatch cost
of an iteration.  Unlike a wall time it is the same from run to run for
a given Python and numpy; it differs between numpy versions, so it is a
measurement to compare, not a bound.

cProfile sees only calls of Python functions and of builtin functions
and methods.  It does not see a ufunc call (``np.minimum(a, b)``,
``a + b``, ``a > 0``), and it sees ``np.where`` or ``np.putmask`` only
as the Python dispatcher in front of the C function.  So the count
understates the elementwise work of an iteration, and a change that
trades ``np.where`` selections for ufuncs removes more work than the
count shows.
"""

from __future__ import annotations

import argparse
import collections
import cProfile
import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pgcon.bench import corpus_suite, run_benchmark, scca_suite  # noqa: E402
from pgcon.driver import SolverConfig  # noqa: E402

SUITES = {
    "corpus": corpus_suite,
    "scca": lambda: scca_suite([200, 400], [1e-2, 1e-3], [1], SolverConfig(alpha0=1e-3)),
}


def _origin(filename: str) -> str:
    """The module a call site belongs to: ``pgcon.<module>`` inside the
    package, else the installed package or standard-library module."""
    path = Path(filename)
    if path.parent.name == "pgcon":
        return f"pgcon.{path.stem}"
    for marker in ("site-packages", "dist-packages", "python3"):
        for i, part in enumerate(path.parts[:-1]):
            if part.startswith(marker):
                return Path(path.parts[i + 1]).stem
    return "<builtin>" if filename.startswith("~") else path.stem


def _prebuilt(cells):
    """The cells with their problems built now and no metrics."""
    return [dataclasses.replace(c, make=lambda prob=c.make()[0]: (prob, None)) for c in cells]


def count(suite: str = "corpus") -> tuple[int, int, dict]:
    """(total calls, outer iterations, calls by calling module) of one
    profiled pass over ``suite``."""
    run_benchmark(SUITES[suite]())
    cells = _prebuilt(SUITES[suite]())
    prof = cProfile.Profile()
    prof.enable()
    results = run_benchmark(cells)
    prof.disable()
    # the raw entries, one per code object: pstats keys them by (file,
    # line, name) and keeps one of the dataclass-generated __init__s,
    # which all read <string>:2, so its total hangs on import order
    entries = prof.getstats()
    total = sum(e.callcount for e in entries)
    by_module = collections.Counter()
    for e in entries:
        caller = _origin("~" if isinstance(e.code, str) else e.code.co_filename)
        for sub in e.calls or ():
            by_module[caller] += sub.callcount
    # the profiled top-level calls have no caller
    by_module["<top level>"] = total - sum(by_module.values())
    iterations = sum(r.report.iterations for r in results)
    return total, iterations, dict(by_module)


def main() -> int:
    parser = argparse.ArgumentParser(description="Count the calls of one suite pass.")
    parser.add_argument("--suite", choices=sorted(SUITES), default="corpus")
    suite = parser.parse_args().suite
    total, iterations, by_module = count(suite)
    print(f"calls per {suite} pass: {total}")
    print(f"outer iterations: {iterations}")
    print(f"calls per iteration: {total / iterations:.1f}")
    print("calls made from:")
    for name, calls in sorted(by_module.items(), key=lambda kv: (-kv[1], kv[0])):
        if calls:
            print(f"  {name:24s} {calls:7d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
