"""The benchmark's layer tracer (perfbench/layers.py) rebinds pgcon names
by name.  Each must stay resolvable, ``uninstall`` must put every original
back, and the light tracer must still count the trust-region QP's
iterations."""

import importlib.util
from pathlib import Path

import pytest

from pgcon import driver, normal_step, qp, tangential
from pgcon.corpus import get_instance

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
# rebound by every tracer, and by the timing tracer only
LIGHT_NAMES = ((driver, "solve"), (normal_step, "solve_qp"), (tangential, "solve_qp"))
TIMING_NAMES = ((qp, "solve_qp"), (tangential, "build_tangential_qp"))


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("timing", [True, False])
def test_install_rebinds_and_uninstall_restores(layers, timing):
    tracer = layers.Tracer(timing=timing)
    names = LIGHT_NAMES + (TIMING_NAMES if timing else ())
    before = {(owner, attr): getattr(owner, attr) for owner, attr in names}
    tracer.install()
    try:
        saved = list(tracer._saved)
        for owner, attr in names:
            assert getattr(owner, attr) is not before[owner, attr], attr
    finally:
        tracer.uninstall()
    assert {(owner, attr) for owner, attr, _ in saved} >= set(before)
    for owner, attr, original in saved:
        assert getattr(owner, attr) is original, (owner.__name__, attr)


def test_light_tracer_counts_trust_region_iterations(layers):
    # circle-1's normal step runs the trust-region QP
    inst = get_instance("circle-1")
    tracer = layers.Tracer(timing=False)
    tracer.install()
    try:
        rep = driver.solve(inst.problem, driver.SolverConfig(**inst.config_overrides))
        iters = tracer.last_solve_qp_iters()
    finally:
        tracer.uninstall()
    assert rep.status == "KktPoint"
    assert iters > 0
