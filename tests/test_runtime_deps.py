"""The solver's runtime needs numpy only: no pgcon code path imports scipy.

scipy stays a test dependency (the reference checks compare against it),
so the guard runs the package in a fresh interpreter and reads its
``sys.modules`` there.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import importlib, pkgutil, sys, tempfile
import pgcon
for mod in pkgutil.iter_modules(pgcon.__path__):
    importlib.import_module("pgcon." + mod.name)
from pgcon import cli, corpus, driver, scca
inst = corpus.get_instance("quad-ineq-1")
config = driver.SolverConfig(**inst.config_overrides)
assert driver.solve(inst.problem, config).status == "KktPoint"
data = scca.scca_generate(48, 48, 48, 0)
assert driver.solve(scca.scca_problem(data, 1e-2),
                    driver.SolverConfig(alpha0=1e-3)).iterations > 0
with tempfile.TemporaryDirectory() as out:
    assert cli.main(["bench", "--suite", "corpus", "--out", out]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0].startswith("scipy")))
"""


def test_runtime_imports_no_scipy():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "[]"
