"""Desk-scale analytic test corpus with certified optimal points.

Each instance carries its optimizer, multipliers, and active set, derived
by hand (the derivations live in the docstrings) and re-verified at load
time: a KKT-type oracle must have residual at most 1e-10, an
infeasible-stationary oracle must have a vanishing projected violation
gradient with nonzero violation.  Loading fails loudly if any oracle is
wrong, so no solver test can silently run against a bad reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .driver import kkt_residual
from .geometry import compute_delta
from .problem import BoxSet, L1Regularizer, ProblemInstance, add_slacks

__all__ = ["CorpusInstance", "corpus", "get_instance", "validate_corpus"]


@dataclass
class CorpusInstance:
    problem: ProblemInstance
    oracle_x: Optional[np.ndarray]
    oracle_y: Optional[np.ndarray]
    oracle_z: Optional[np.ndarray]
    oracle_g_r: Optional[np.ndarray]
    oracle_active_lower: tuple
    oracle_active_upper: tuple
    note: str
    expected_status: str = "KktPoint"
    config_overrides: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.problem.name


def _quadratic(name, center, A=None, b=None, weights=None, box=None, x0=None):
    """min 0.5*||x - center||^2 + sum w_i |x_i|  s.t.  A x = b, x in box."""
    center = np.asarray(center, dtype=float)
    n = center.shape[0]
    if A is None:
        A = np.zeros((0, n))
        b = np.zeros(0)
    else:
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
    m = A.shape[0]
    return ProblemInstance(
        name=name, n=n, m=m,
        f_eval=lambda x: 0.5 * float((x - center) @ (x - center)),
        g_eval=lambda x: x - center,
        c_eval=lambda x: A @ x - b,
        J_eval=lambda x: A.copy(),
        reg=L1Regularizer(np.zeros(n) if weights is None else np.asarray(weights, dtype=float)),
        box=box if box is not None else BoxSet.free(n),
        x0=x0,
    )


def _build() -> list[CorpusInstance]:
    out = []

    # EQ-QUAD-1: min .5||x-(2,0)||^2 s.t. x1+x2=1, x>=0.
    # The unconstrained-on-the-line point (1.5,-0.5) leaves the orthant, so
    # x2 locks at zero: x*=(1,0), y*=1, z*=(0,-1); strictly complementary.
    out.append(CorpusInstance(
        problem=_quadratic("eq-quad-1", [2.0, 0.0], A=[[1.0, 1.0]], b=[1.0],
                           box=BoxSet.nonnegative(2), x0=np.array([0.6, 0.6])),
        oracle_x=np.array([1.0, 0.0]), oracle_y=np.array([1.0]),
        oracle_z=np.array([0.0, -1.0]), oracle_g_r=np.zeros(2),
        oracle_active_lower=(1,), oracle_active_upper=(),
        note="bound-active equality QP; also the strict-complementarity probe",
    ))

    # L1-LIN-1: min x1 + 2|x2| s.t. x1=1, x free.  x*=(1,0), y*=-1; any
    # subgradient with |g_r_2|<=2 certifies, g_r*=0 is the natural one.
    out.append(CorpusInstance(
        problem=ProblemInstance(
            name="l1-lin-1", n=2, m=1,
            f_eval=lambda x: float(x[0]),
            g_eval=lambda x: np.array([1.0, 0.0]),
            c_eval=lambda x: np.array([x[0] - 1.0]),
            J_eval=lambda x: np.array([[1.0, 0.0]]),
            reg=L1Regularizer(np.array([0.0, 2.0])),
            box=BoxSet.free(2), x0=np.array([3.0, -2.0]),
        ),
        oracle_x=np.array([1.0, 0.0]), oracle_y=np.array([-1.0]),
        oracle_z=np.zeros(2), oracle_g_r=np.zeros(2),
        oracle_active_lower=(), oracle_active_upper=(),
        note="separable l1 with a single linear equality",
    ))

    # INFEAS-1: c(x)=x^2+1 has no root; over the orthant the violation
    # 0.5*c^2 has projected gradient max(-2x(x^2+1),0)=0 at x=0 with c=1.
    out.append(CorpusInstance(
        problem=ProblemInstance(
            name="infeas-1", n=1, m=1,
            f_eval=lambda x: 0.5 * float(x[0] ** 2),
            g_eval=lambda x: np.array([x[0]]),
            c_eval=lambda x: np.array([x[0] ** 2 + 1.0]),
            J_eval=lambda x: np.array([[2.0 * x[0]]]),
            reg=L1Regularizer(np.zeros(1)),
            box=BoxSet.nonnegative(1), x0=np.array([0.5]),
        ),
        oracle_x=np.array([0.0]), oracle_y=None, oracle_z=None, oracle_g_r=None,
        oracle_active_lower=(0,), oracle_active_upper=(),
        note="infeasible stationary point certification",
        expected_status="InfeasibleStationary",
    ))

    # BOX-QP-1: min .5(x-3)^2 on [0,1]; upper bound active, z*=2.
    out.append(CorpusInstance(
        problem=_quadratic("box-qp-1", [3.0], box=BoxSet(np.zeros(1), np.ones(1)),
                           x0=np.array([0.2])),
        oracle_x=np.array([1.0]), oracle_y=np.zeros(0),
        oracle_z=np.array([2.0]), oracle_g_r=np.zeros(1),
        oracle_active_lower=(), oracle_active_upper=(0,),
        note="upper-bound-active unconstrained box problem (m=0)",
    ))

    # BOX-QP-2: min .5||x-(2,0.8)||^2 s.t. x1+x2=1, 0<=x1<=1.5, x2>=0.
    # On the line the pull (1.1,-0.1) exits at x2: x*=(1,0), y*=1, z2*=-0.2.
    out.append(CorpusInstance(
        problem=_quadratic("box-qp-2", [2.0, 0.8], A=[[1.0, 1.0]], b=[1.0],
                           box=BoxSet(np.zeros(2), np.array([1.5, np.inf])),
                           x0=np.array([0.1, 0.9])),
        oracle_x=np.array([1.0, 0.0]), oracle_y=np.array([1.0]),
        oracle_z=np.array([0.0, -0.2]), oracle_g_r=np.zeros(2),
        oracle_active_lower=(1,), oracle_active_upper=(),
        note="mixed finite/infinite box with equality",
    ))

    # DEGEN-1: duplicated constraint rows (rank-deficient Jacobian
    # everywhere, LICQ fails).  Minimizer of .5||x||^2 on x1+x2=1 is
    # (.5,.5); multipliers are non-unique, y*=(-0.5,0) is one choice.
    out.append(CorpusInstance(
        problem=ProblemInstance(
            name="degen-1", n=2, m=2,
            f_eval=lambda x: 0.5 * float(x @ x),
            g_eval=lambda x: x.copy(),
            c_eval=lambda x: np.array([x[0] + x[1] - 1.0, 2.0 * (x[0] + x[1] - 1.0)]),
            J_eval=lambda x: np.array([[1.0, 1.0], [2.0, 2.0]]),
            reg=L1Regularizer(np.zeros(2)),
            box=BoxSet.free(2), x0=np.array([2.0, -1.0]),
        ),
        oracle_x=np.array([0.5, 0.5]), oracle_y=np.array([-0.5, 0.0]),
        oracle_z=np.zeros(2), oracle_g_r=np.zeros(2),
        oracle_active_lower=(), oracle_active_upper=(),
        note="LICQ violated by duplicated rows; solver behavior logged",
    ))

    # SOFT-THRESH-1: min .5||x-a||^2 + ||x||_1 with a=(2,.5,-.3):
    # x*=soft(a,1)=(1,0,0), g_r*=a-x*=(1,.5,-.3), all margins strict.
    out.append(CorpusInstance(
        problem=_quadratic("soft-thresh-1", [2.0, 0.5, -0.3],
                           weights=[1.0, 1.0, 1.0], x0=np.array([-1.0, 2.0, 1.0])),
        oracle_x=np.array([1.0, 0.0, 0.0]), oracle_y=np.zeros(0),
        oracle_z=np.zeros(3), oracle_g_r=np.array([1.0, 0.5, -0.3]),
        oracle_active_lower=(), oracle_active_upper=(),
        note="pure shrinkage problem; sign pattern (+,0,0)",
    ))

    # L1-SIGN-1: min .5||x-a||^2 + 0.3||x||_1 s.t. sum(x)=1, a=(1.5,.4,-.2).
    # Pattern (+,0,-): stationarity x=a-g_r-y with g_r=(.3,g2,-.3) gives
    # x=(1.35-y,0,.1-y), the constraint forces y=0.15, then
    # x*=(1.05,0,-0.05) and g2=0.25 sits strictly inside [-0.3,0.3].
    out.append(CorpusInstance(
        problem=_quadratic("l1-sign-1", [1.5, 0.4, -0.2],
                           A=[[1.0, 1.0, 1.0]], b=[1.0],
                           weights=[0.3, 0.3, 0.3], x0=np.array([1.0, 1.0, -1.0])),
        oracle_x=np.array([1.05, 0.0, -0.05]), oracle_y=np.array([0.15]),
        oracle_z=np.zeros(3), oracle_g_r=np.array([0.3, 0.25, -0.3]),
        oracle_active_lower=(), oracle_active_upper=(),
        note="nondegenerate sign pattern (+,0,-) for manifold identification",
    ))

    # ORTHANT-LP-L1: min x1+2x2+0.5||x||_1 s.t. x1+x2=1, x>=0, started at
    # the optimum (1,0): y*=-1.5, z*=(0,-0.5), g_r*=(0.5,0).
    out.append(CorpusInstance(
        problem=ProblemInstance(
            name="orthant-lp-l1", n=2, m=1,
            f_eval=lambda x: float(x[0] + 2.0 * x[1]),
            g_eval=lambda x: np.array([1.0, 2.0]),
            c_eval=lambda x: np.array([x[0] + x[1] - 1.0]),
            J_eval=lambda x: np.array([[1.0, 1.0]]),
            reg=L1Regularizer(np.array([0.5, 0.5])),
            box=BoxSet.nonnegative(2), x0=np.array([1.0, 0.0]),
        ),
        oracle_x=np.array([1.0, 0.0]), oracle_y=np.array([-1.5]),
        oracle_z=np.array([0.0, -0.5]), oracle_g_r=np.array([0.5, 0.0]),
        oracle_active_lower=(1,), oracle_active_upper=(),
        note="starts at an exact optimizer; immediate termination path",
    ))

    # CIRCLE-1: min x1+x2 s.t. x1^2+x2^2=2, x>=0, biased start near
    # (sqrt(2),0): y*=-1/(2 sqrt 2), z*=(0,-1); the symmetric twin
    # (0,sqrt(2)) is avoided by the start.
    r2 = np.sqrt(2.0)
    out.append(CorpusInstance(
        problem=ProblemInstance(
            name="circle-1", n=2, m=1,
            f_eval=lambda x: float(x[0] + x[1]),
            g_eval=lambda x: np.ones(2),
            c_eval=lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 2.0]),
            J_eval=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
            reg=L1Regularizer(np.zeros(2)),
            box=BoxSet.nonnegative(2), x0=np.array([2.0, 0.2]),
        ),
        oracle_x=np.array([r2, 0.0]), oracle_y=np.array([-1.0 / (2.0 * r2)]),
        oracle_z=np.array([0.0, -1.0]), oracle_g_r=np.zeros(2),
        oracle_active_lower=(1,), oracle_active_upper=(),
        note="nonlinear equality over the orthant, bound active at the optimum",
    ))

    # FIXED-VAR-1: x1 pinned at 0.5, x2>=0 pulled to -1 clamps at zero:
    # z*=(0.5,-1), stationarity (x-center)+z=0 holds exactly.
    out.append(CorpusInstance(
        problem=_quadratic("fixed-var-1", [1.0, -1.0],
                           box=BoxSet(np.array([0.5, 0.0]), np.array([0.5, np.inf])),
                           x0=np.array([0.5, 2.0])),
        oracle_x=np.array([0.5, 0.0]), oracle_y=np.zeros(0),
        oracle_z=np.array([0.5, -1.0]), oracle_g_r=np.zeros(2),
        oracle_active_lower=(0, 1), oracle_active_upper=(),
        note="fixed variable (equal bounds) classification",
    ))

    # QUAD-INEQ-1: min .5||x-(2,2)||^2 s.t. x1^2+x2^2 <= 2, built through
    # the slack reformulation.  Boundary optimum (1,1), slack at its upper
    # bound 2 with multiplier y*=0.5, z_s*=0.5.
    inner = add_slacks(
        "quad-ineq-1", 2,
        f_eval=lambda x: 0.5 * float((x[0] - 2.0) ** 2 + (x[1] - 2.0) ** 2),
        g_eval=lambda x: np.array([x[0] - 2.0, x[1] - 2.0]),
        cE_eval=None, JE_eval=None,
        cI_eval=lambda x: np.array([x[0] ** 2 + x[1] ** 2]),
        JI_eval=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
        m_eq=0, m_ineq=1,
        x_lower=np.full(2, -np.inf), x_upper=np.full(2, np.inf),
        c_lower=np.array([-np.inf]), c_upper=np.array([2.0]),
        x0=np.array([0.0, 0.5, 0.25]),
    )
    out.append(CorpusInstance(
        problem=inner,
        oracle_x=np.array([1.0, 1.0, 2.0]), oracle_y=np.array([0.5]),
        oracle_z=np.array([0.0, 0.0, 0.5]), oracle_g_r=np.zeros(3),
        oracle_active_lower=(), oracle_active_upper=(2,),
        note="inequality via slack; multiplier recovered on the slack bound",
    ))

    return out


def validate_corpus(instances=None) -> list[CorpusInstance]:
    """Re-derive every oracle certificate; raises on any failure."""
    instances = _build() if instances is None else instances
    for inst in instances:
        p = inst.problem
        if inst.expected_status == "InfeasibleStationary":
            c_val = p.c(inst.oracle_x)
            delta = compute_delta(inst.oracle_x, p.J(inst.oracle_x).T @ c_val, p.box)
            c_norm = float(np.linalg.norm(c_val))
            if delta > 1e-12 or c_norm <= 1e-6:
                raise RuntimeError(
                    f"{inst.name}: infeasible-stationary oracle failed "
                    f"(delta={delta:g}, ||c||={c_norm:g})")
            continue
        chi, parts = kkt_residual(p, inst.oracle_x, inst.oracle_y,
                                  inst.oracle_z, inst.oracle_g_r)
        if chi > 1e-10:
            raise RuntimeError(f"{inst.name}: oracle KKT residual {chi:g} > 1e-10 "
                               f"({parts})")
    return instances


def corpus() -> list[CorpusInstance]:
    """The validated instance list (validation runs on every call)."""
    return validate_corpus()


def get_instance(name: str) -> CorpusInstance:
    for inst in corpus():
        if inst.name == name:
            return inst
    raise KeyError(f"no corpus instance named {name!r}")
