import numpy as np
import pytest

from pgcon.corpus import CorpusInstance, corpus, get_instance, validate_corpus
from pgcon.driver import SolverConfig, kkt_residual, solve


class TestValidation:
    def test_all_oracles_certified(self):
        insts = corpus()
        assert len(insts) >= 10
        names = [i.name for i in insts]
        assert len(set(names)) == len(names)

    def test_kkt_oracles_tight(self):
        for inst in corpus():
            if inst.expected_status != "KktPoint":
                continue
            chi, _ = kkt_residual(inst.problem, inst.oracle_x, inst.oracle_y,
                                  inst.oracle_z, inst.oracle_g_r)
            assert chi <= 1e-10, inst.name

    def test_bad_oracle_rejected(self):
        inst = get_instance("eq-quad-1")
        broken = CorpusInstance(
            problem=inst.problem,
            oracle_x=inst.oracle_x + 0.1,
            oracle_y=inst.oracle_y, oracle_z=inst.oracle_z,
            oracle_g_r=inst.oracle_g_r,
            oracle_active_lower=inst.oracle_active_lower,
            oracle_active_upper=inst.oracle_active_upper,
            note="deliberately off",
        )
        with pytest.raises(RuntimeError):
            validate_corpus([broken])

    def test_variety(self):
        insts = corpus()
        assert any(i.expected_status == "InfeasibleStationary" for i in insts)
        assert any(i.problem.m == 0 for i in insts)  # pure box problems
        assert any(np.any(i.problem.reg.weights > 0) for i in insts)
        assert any(i.problem.box.orthant for i in insts)

    def test_get_instance_unknown(self):
        with pytest.raises(KeyError):
            get_instance("does-not-exist")


class TestBruteForceCrossCheck:
    """Grid sweep around each small oracle point: no grid point may beat the
    oracle on the penalized objective, so the certificates are optimality
    claims, not just stationarity claims."""

    PEN = 1e4

    def penalized(self, p, pts):
        """The penalized objective at each row of ``pts``; inf outside the
        box.  Box membership, the l1 term and the norm are vectorized;
        ``f`` and ``c`` are the problem's own evaluators, called once per
        point in the box."""
        vals = np.full(len(pts), np.inf)
        inside = np.all((pts >= p.box.lower) & (pts <= p.box.upper), axis=1)
        xs = pts[inside]
        f = np.array([p.f(x) for x in xs])
        c = np.array([p.c(x) for x in xs]).reshape(len(xs), p.m)
        vals[inside] = f + np.abs(xs) @ p.reg.weights + self.PEN * np.linalg.norm(c, axis=1)
        return vals

    @pytest.mark.parametrize("name", ["eq-quad-1", "l1-lin-1", "box-qp-1",
                                      "box-qp-2", "soft-thresh-1", "l1-sign-1",
                                      "orthant-lp-l1", "fixed-var-1"])
    def test_grid_cannot_beat_oracle(self, name):
        inst = get_instance(name)
        p = inst.problem
        if p.n > 3:
            pytest.skip("grid oracle only for n <= 3")
        step = 0.02
        offsets = step * np.arange(-25, 26)
        grids = np.meshgrid(*[offsets] * p.n, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1) + inst.oracle_x
        vals = self.penalized(p, pts)
        # offset 0 is exact, so the oracle point itself is an in-box grid point
        at_oracle = np.all(pts == inst.oracle_x, axis=1)
        assert np.isfinite(vals[at_oracle]).sum() == 1, name
        base = vals[at_oracle][0]
        # the grid is off-manifold for equality constraints, so allow the
        # penalty-resolution slack
        assert vals.min() >= base - self.PEN * step * 1e-3 - 1e-9, name


# (status, iterations) of each corpus solve under SolverConfig(); a drifted
# method constant moves them
CORPUS_RUNS = {
    "eq-quad-1": ("KktPoint", 2),
    "l1-lin-1": ("KktPoint", 2),
    "box-qp-1": ("KktPoint", 2),
    "box-qp-2": ("KktPoint", 2),
    "fixed-var-1": ("KktPoint", 2),
    "infeas-1": ("InfeasibleStationary", 3),
    "degen-1": ("KktPoint", 15),
    "soft-thresh-1": ("KktPoint", 17),
    "l1-sign-1": ("KktPoint", 17),
    "orthant-lp-l1": ("KktPoint", 1),
    "circle-1": ("KktPoint", 6),
    "quad-ineq-1": ("KktPoint", 25),
}


def test_corpus_runs_are_pinned():
    assert sorted(CORPUS_RUNS) == sorted(i.name for i in corpus())


@pytest.mark.parametrize("name", sorted(CORPUS_RUNS))
def test_corpus_status_and_iterations(name):
    p = get_instance(name).problem
    cfg = SolverConfig()
    rep = solve(p, cfg)
    assert (rep.status, rep.iterations) == CORPUS_RUNS[name]
    if rep.status == "KktPoint":
        chi, parts = kkt_residual(p, rep.x, rep.y, rep.z, rep.g_r)
        assert chi == rep.chi
        assert parts.subgradient_margin <= cfg.tol_stat, parts
