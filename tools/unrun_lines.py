"""List the lines of src/pgcon that the tier-1 tests never run.

    python tools/unrun_lines.py

Run from anywhere; the script works from the repository root.  It runs
the tier-1 command (``pytest -q --continue-on-collection-errors`` with
``src`` first on the path) in this process under the standard library's
``trace``, so pgcon's module-level lines count too: nothing imports
pgcon before tracing starts.  Only code under ``src/`` is traced, on the
main thread.  It exits 1 when pytest fails, and exits 1 after printing
``file:line`` for each executable line of ``src/pgcon/*.py`` that never
ran, except the body of a module's ``if __name__ == "__main__":`` guard,
which only ``python -m`` runs.  Otherwise it exits 0.  Lines that run
only in a subprocess do not count.  Tier-1 under trace takes about 50 s
on a 2-vCPU Xeon VM (Python 3.11).
"""

from __future__ import annotations

import ast
import os
import sys
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "pgcon"


class _SrcOnly:
    """trace's filter: trace code under src/ only.  ``trace.Ignore`` caches
    its answer by bare module name, so a package's ``__init__`` would
    share the answer of the first ``__init__`` seen, numpy's or pytest's."""

    def names(self, filename, modulename):
        return not filename.startswith(str(SRC) + os.sep)


def executable_lines(path: Path) -> set:
    """The lines ``trace`` reports as executable, without a ``__main__``
    guard's body."""
    # trace's own finder, which `python -m trace --missing` uses; line 0
    # (or None) marks a code object's entry, which no source line shows
    lines = {n for n in trace._find_executable_linenos(str(path)) if n}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            lines -= {n for stmt in node.body
                      for n in range(stmt.lineno, stmt.end_lineno + 1)}
    return lines


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import pytest

    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = _SrcOnly()
    code = tracer.runfunc(pytest.main, ["-q", "--continue-on-collection-errors"])
    if code != 0:
        print(f"unrun_lines: pytest failed (exit {int(code)})")
        return 1

    ran = {(Path(f).resolve(), n) for f, n in tracer.results().counts}
    unrun = [(path, n) for path in sorted(PACKAGE.glob("*.py"))
             for n in sorted(executable_lines(path)) if (path, n) not in ran]
    for path, n in unrun:
        print(f"{path.relative_to(ROOT)}:{n}")
    print(f"unrun_lines: {len(unrun)} line(s) of src/pgcon never ran in tier-1")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main())
