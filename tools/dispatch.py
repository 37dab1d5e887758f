"""Count the Python-level calls of one pass over the analytic corpus.

    python tools/dispatch.py

Run from the repository root; the package is imported from ``src/``.
One ``run_benchmark(corpus_suite())`` pass runs first as a warm-up, then
a second runs under cProfile; its cells are built before the profile
starts, so only the solves are counted.  The script prints the total
number of calls of the profiled pass, the calls per outer iteration, and
the calls made from each ``pgcon`` module (calls made from anywhere
else, numpy's own Python code for one, are grouped by top-level package).

At the corpus's sizes (n <= 3) an iteration costs little arithmetic and
many numpy and Python calls, so the call count follows the dispatch cost
of an iteration.  Unlike a wall time it is the same from run to run for
a given Python and numpy; it differs between numpy versions, so it is a
measurement to compare, not a bound.
"""

from __future__ import annotations

import collections
import cProfile
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pgcon.bench import corpus_suite, run_benchmark  # noqa: E402


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


def count() -> tuple[int, int, dict]:
    """(total calls, outer iterations, calls by calling module) of one
    profiled corpus pass."""
    run_benchmark(corpus_suite())
    cells = corpus_suite()
    prof = cProfile.Profile()
    prof.enable()
    results = run_benchmark(cells)
    prof.disable()
    stats = pstats.Stats(prof)
    by_module = collections.Counter()
    for (_, _, _, _, callers) in stats.stats.values():
        for (filename, _, _), caller_stats in callers.items():
            by_module[_origin(filename)] += caller_stats[0]
    # the profiled top-level calls have no caller
    by_module["<top level>"] = stats.total_calls - sum(by_module.values())
    iterations = sum(r.report.iterations for r in results)
    return stats.total_calls, iterations, dict(by_module)


def main() -> int:
    total, iterations, by_module = count()
    print(f"calls per corpus pass: {total}")
    print(f"outer iterations: {iterations}")
    print(f"calls per iteration: {total / iterations:.1f}")
    print("calls made from:")
    for name, calls in sorted(by_module.items(), key=lambda kv: (-kv[1], kv[0])):
        if calls:
            print(f"  {name:24s} {calls:7d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
