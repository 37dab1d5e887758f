"""Problem model: smooth objective/constraints, weighted-l1 regularizer, box set.

A problem is

    min f(x) + r(x)   s.t.  c(x) = 0,  lower <= x <= upper,

with f, c smooth (gradient/Jacobian supplied by the caller), r a weighted
l1 term and the box allowing infinite bounds.  Inequality constraints are
brought into this form with slack variables (see :func:`add_slacks`).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "BoxSet",
    "L1Regularizer",
    "ProblemInstance",
    "ScaleInfo",
    "DerivativeReport",
    "EvaluationError",
    "check_derivatives",
    "scale_factors",
    "add_slacks",
    "load_problem",
]


class EvaluationError(RuntimeError):
    """A problem evaluator produced a NaN or Inf."""


def _float_array(value, what: str, shape: Optional[tuple] = None) -> np.ndarray:
    """``value`` as a float array of ``shape`` (any length of 1-D when
    ``shape`` is None), or ValueError naming ``what`` and both shapes.
    Every array that enters pgcon passes here; the strings "inf" and
    "-inf" read as infinite bounds."""
    a = np.asarray(value, dtype=float)
    if (a.ndim != 1) if shape is None else (a.shape != shape):
        need = "(n,)" if shape is None else shape
        raise ValueError(f"{what} has shape {a.shape}, the problem needs {need}")
    return a


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class BoxSet:
    """Axis-aligned box {x : lower <= x <= upper}; a lower bound may be
    -inf and an upper bound +inf.

    The bounds are read-only copies, so ``active_tol`` stays theirs.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.array(_float_array(self.lower, "box.lower"))
        hi = np.array(_float_array(self.upper, "box.upper", lo.shape))
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ValueError("box bounds must not be NaN")
        if (lo == np.inf).any() or (hi == -np.inf).any():
            raise ValueError("box has lower_i = inf or upper_i = -inf")
        if np.any(lo > hi):
            raise ValueError("box has lower_i > upper_i")
        object.__setattr__(self, "lower", _read_only(lo))
        object.__setattr__(self, "upper", _read_only(hi))

    @functools.cached_property
    def lower_finite(self) -> np.ndarray:
        """Where the lower bound is finite."""
        return _read_only(np.isfinite(self.lower))

    @functools.cached_property
    def upper_finite(self) -> np.ndarray:
        """Where the upper bound is finite."""
        return _read_only(np.isfinite(self.upper))

    @functools.cached_property
    def active_tol(self) -> np.ndarray:
        """Per-component tolerance 1e-10 * (1 + |bound|) within which a
        component counts as at its bound; infinite bounds count as 0."""
        lo = np.where(self.lower_finite, np.abs(self.lower), 0.0)
        hi = np.where(self.upper_finite, np.abs(self.upper), 0.0)
        return _read_only(1e-10 * (1.0 + np.maximum(lo, hi)))

    @functools.cached_property
    def fixed(self) -> np.ndarray:
        """Where lower == upper: a fixed variable."""
        return _read_only(self.lower == self.upper)

    @functools.cached_property
    def has_lower(self) -> bool:
        """True when some lower bound is finite."""
        return bool(self.lower_finite.any())

    @functools.cached_property
    def has_upper(self) -> bool:
        """True when some upper bound is finite."""
        return bool(self.upper_finite.any())

    @functools.cached_property
    def has_fixed(self) -> bool:
        """True when some variable is fixed."""
        return bool(self.fixed.any())

    @functools.cached_property
    def orthant(self) -> bool:
        """True when the box is exactly the nonnegative orthant."""
        return bool(np.all(self.lower == 0.0)) and not self.has_upper

    def contains(self, x) -> bool:
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    @staticmethod
    def free(n: int) -> "BoxSet":
        return BoxSet(np.full(n, -np.inf), np.full(n, np.inf))

    @staticmethod
    def nonnegative(n: int) -> "BoxSet":
        return BoxSet(np.zeros(n), np.full(n, np.inf))


@dataclass(frozen=True)
class L1Regularizer:
    """Weighted l1 term r(x) = sum_i weights_i * |x_i|, weights_i finite
    and >= 0.  The weights are a read-only copy, as a box's bounds are."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(_float_array(self.weights, "l1_weights"))
        if not np.logical_and.reduce(np.isfinite(w), axis=None):
            raise ValueError("l1 weights must be finite")
        if np.any(w < 0):
            raise ValueError("l1 weights must be nonnegative")
        object.__setattr__(self, "weights", _read_only(w))

    def value(self, x) -> float:
        return float(np.dot(self.weights, np.abs(x)))


@dataclass(frozen=True)
class ProblemInstance:
    """Immutable bundle of evaluators defining one problem.

    Evaluators must be pure functions of x; the solver caches their values
    per iterate and relies on repeat calls returning identical results.
    ``x0`` is a read-only copy of the start the caller gave, or zeros
    when none is given.
    """

    name: str
    n: int
    m: int
    f_eval: Callable[[np.ndarray], float]
    g_eval: Callable[[np.ndarray], np.ndarray]
    c_eval: Callable[[np.ndarray], np.ndarray]
    J_eval: Callable[[np.ndarray], np.ndarray]
    reg: L1Regularizer
    box: BoxSet
    x0: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.m > self.n:
            raise ValueError(f"require m <= n, got m = {self.m}, n = {self.n}")
        _float_array(self.reg.weights, "l1_weights", (self.n,))
        _float_array(self.box.lower, "box.lower", (self.n,))
        # numpy would broadcast a scalar or length-1 start to every component
        x0 = (np.zeros(self.n) if self.x0 is None
              else np.array(_float_array(self.x0, f"{self.name}: x0", (self.n,))))
        if not np.isfinite(x0).all():
            raise ValueError("x0 must be finite")
        object.__setattr__(self, "x0", _read_only(x0))

    def f(self, x) -> float:
        v = float(self.f_eval(np.asarray(x, dtype=float)))
        if not math.isfinite(v):
            raise EvaluationError(f"{self.name}: f(x) is not finite")
        return v

    def g(self, x) -> np.ndarray:
        return self._checked(self.g_eval(np.asarray(x, dtype=float)), "gradient", (self.n,))

    def c(self, x) -> np.ndarray:
        return self._checked(self.c_eval(np.asarray(x, dtype=float)), "constraint", (self.m,))

    def J(self, x) -> np.ndarray:
        return self._checked(self.J_eval(np.asarray(x, dtype=float)), "Jacobian",
                             (self.m, self.n))

    def _checked(self, v, what: str, shape: tuple) -> np.ndarray:
        """v as a float array of ``shape``, or ValueError naming it and both
        shapes, or EvaluationError naming its first entry that is not finite."""
        v = _float_array(v, f"{self.name}: {what}", shape)
        if not np.logical_and.reduce(np.isfinite(v), axis=None):
            bad = np.argwhere(~np.isfinite(v))[0].tolist()
            where = bad[0] if v.ndim == 1 else tuple(bad)
            raise EvaluationError(f"{self.name}: {what} entry {where} is not finite")
        return v


@dataclass(frozen=True)
class ScaleInfo:
    """Multiplicative factors applied to f and each c_i; all in (0, 1]."""

    objective_factor: float
    constraint_factors: np.ndarray

    def unscale_multipliers(self, y, z, g_r) -> tuple:
        """(y, z, g_r) of the scaled problem in the original one's units."""
        f_fac = self.objective_factor
        return self.constraint_factors * y / f_fac, z / f_fac, g_r / f_fac


@dataclass(frozen=True)
class DerivativeReport:
    g_err: float
    J_err: float

    @property
    def max_err(self) -> float:
        return max(self.g_err, self.J_err)


def check_derivatives(p: ProblemInstance, x, h: Optional[float] = None) -> DerivativeReport:
    """Central-difference check of g against f and J against c.

    Returns the max over components of |fd - analytic| / (1 + |analytic|).
    """
    x = _float_array(x, "x", (p.n,))
    if h is None:
        h = 1e-6 * (1.0 + float(np.max(np.abs(x), initial=0.0)))
    if not 0 < h < math.inf:
        raise ValueError(f"step size must be positive and finite, got h={h!r}")

    g = p.g(x)
    g_fd = np.empty(p.n)
    c_fd = np.empty((p.m, p.n))
    for i in range(p.n):
        e = np.zeros(p.n)
        e[i] = h
        fp, fm = p.f(x + e), p.f(x - e)
        g_fd[i] = (fp - fm) / (2 * h)
        if p.m:
            c_fd[:, i] = (p.c(x + e) - p.c(x - e)) / (2 * h)
    g_err = float(np.max(np.abs(g_fd - g) / (1.0 + np.abs(g)), initial=0.0))
    if p.m:
        Jm = p.J(x)
        J_err = float(np.max(np.abs(c_fd - Jm) / (1.0 + np.abs(Jm))))
    else:
        J_err = 0.0
    return DerivativeReport(g_err=g_err, J_err=J_err)


def scale_factors(g0, J0) -> ScaleInfo:
    """Factors that bring the inf-norm of the gradient of f and of each c_i
    down to at most 100, from g0 and J0 at the start point.

    The solver multiplies f, g and the l1 weights by the objective factor,
    so the scaled problem has the same minimizers, and c_i and row i of J
    by the i-th constraint factor.
    """
    gn = float(np.maximum.reduce(np.abs(g0), initial=0.0))
    Jn = np.maximum.reduce(np.abs(J0), axis=1, initial=0.0)
    return ScaleInfo(objective_factor=100.0 / gn if gn > 100.0 else 1.0,
                     constraint_factors=np.where(Jn > 100.0, 100.0 / Jn, 1.0))


def add_slacks(
    name: str,
    n: int,
    f_eval: Callable,
    g_eval: Callable,
    cE_eval: Optional[Callable],
    JE_eval: Optional[Callable],
    cI_eval: Optional[Callable],
    JI_eval: Optional[Callable],
    m_eq: int,
    m_ineq: int,
    x_lower,
    x_upper,
    c_lower=None,
    c_upper=None,
    l1_weights=None,
    x0=None,
) -> ProblemInstance:
    """Reformulate  cE(x)=0, c_lower <= cI(x) <= c_upper  over (x, s).

    The output instance has equality constraints [cE(x); cI(x) - s] = 0 and
    box [x_lower; c_lower] <= (x, s) <= [x_upper; c_upper].  Regularizer
    weights are extended by zeros on the slack block.  ``x0``, if given, is
    the start point over (x, s).  Either block of rows may be empty.
    """
    x_lower = _float_array(x_lower, "x_lower", (n,))
    x_upper = _float_array(x_upper, "x_upper", (n,))
    w = np.zeros(n) if l1_weights is None else _float_array(l1_weights, "l1_weights", (n,))
    c_lower = _float_array(c_lower if m_ineq else (), "c_lower", (m_ineq,))
    c_upper = _float_array(c_upper if m_ineq else (), "c_upper", (m_ineq,))
    if np.any(c_lower > c_upper):
        raise ValueError("inequality bounds have c_lower_i > c_upper_i")

    n_tot = n + m_ineq
    m_tot = m_eq + m_ineq
    # the slack blocks of every gradient and Jacobian
    zero_slack, neg_eye = np.zeros(m_ineq), -np.eye(m_ineq)

    def c_all(z):
        x, s = z[:n], z[n:]
        parts = []
        if m_eq:
            parts.append(_float_array(cE_eval(x), f"{name}: cE", (m_eq,)))
        if m_ineq:
            parts.append(_float_array(cI_eval(x), f"{name}: cI", (m_ineq,)) - s)
        return np.concatenate(parts) if parts else zero_slack

    def J_all(z):
        x = z[:n]
        Jm = np.zeros((m_tot, n_tot))
        if m_eq:
            Jm[:m_eq, :n] = _float_array(JE_eval(x), f"{name}: JE", (m_eq, n))
        if m_ineq:
            Jm[m_eq:, :n] = _float_array(JI_eval(x), f"{name}: JI", (m_ineq, n))
        Jm[m_eq:, n:] = neg_eye
        return Jm

    return ProblemInstance(
        name=name,
        n=n_tot,
        m=m_tot,
        f_eval=lambda z: f_eval(z[:n]),
        g_eval=lambda z: np.concatenate((_float_array(g_eval(z[:n]), f"{name}: g", (n,)),
                                         zero_slack)),
        c_eval=c_all,
        J_eval=J_all,
        reg=L1Regularizer(np.concatenate([w, zero_slack])),
        box=BoxSet(np.concatenate([x_lower, c_lower]), np.concatenate([x_upper, c_upper])),
        x0=x0,
    )


# --- JSON problem files -----------------------------------------------------
#
# {
#   "name": str,
#   "kind": "quadratic" | "scca" | "analytic:<id>",
#   "n": int, "m": int,
#   "data": {...},                    # kind-specific, dense matrices row-major
#   "l1_weights": [...],              # optional, zeros if absent
#   "box": {"lower": [...], "upper": [...]}   # "-inf"/"inf" sentinels allowed
# }
#
# kind "quadratic": data has Q (n x n), c (n), optionally A (m x n), b (m),
#   const, x0; objective f(x) = 0.5 x'Qx + c'x + const, constraints Ax - b = 0;
#   Q need not be symmetric.
# kind "scca": data has n_x, n_y, N, seed, lam; the instance is generated.
# kind "analytic:<id>": <id> names a built-in corpus instance.


def load_problem(source) -> ProblemInstance:
    """Build a ProblemInstance from a JSON file path or an already-parsed
    dict.  A spec that does not fit the schema raises ValueError."""
    if isinstance(source, (str, bytes)):
        with open(source) as fh:
            spec = json.load(fh)
        where = f"problem file {source}"
    else:
        spec, where = source, "problem spec"
    if not isinstance(spec, dict):
        raise ValueError(f"{where} holds {type(spec).__name__}, not a JSON object")
    try:
        return _problem_from_spec(spec)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {type(exc).__name__}: {exc}") from exc


def _problem_from_spec(spec: dict) -> ProblemInstance:
    kind = spec.get("kind", "quadratic")

    if kind.startswith("analytic:"):
        from . import corpus

        return corpus.get_instance(kind.split(":", 1)[1]).problem

    if kind == "scca":
        from . import scca

        d = spec["data"]
        data = scca.scca_generate(int(d["n_x"]), int(d["n_y"]), int(d["N"]), int(d["seed"]))
        return scca.scca_problem(data, float(d["lam"]))

    if kind != "quadratic":
        raise ValueError(f"unknown problem kind {kind!r}")

    n = int(spec["n"])
    m = int(spec.get("m", 0))
    d = spec["data"]
    Q = _float_array(d["Q"], "data.Q", (n, n))
    Q = 0.5 * (Q + Q.T)  # same f; Q x is its gradient, also for an asymmetric Q
    lin = _float_array(d["c"], "data.c", (n,))
    const = float(d.get("const", 0.0))
    if m:
        A = _float_array(d["A"], "data.A", (m, n))
        b = _float_array(d["b"], "data.b", (m,))
    else:
        A = np.zeros((0, n))
        b = np.zeros(0)
    w = _float_array(spec.get("l1_weights", np.zeros(n)), "l1_weights", (n,))
    box_spec = spec.get("box")
    if box_spec is None:
        box = BoxSet.free(n)
    else:
        box = BoxSet(*(_float_array(box_spec[k], f"box.{k}", (n,)) for k in ("lower", "upper")))

    return ProblemInstance(
        name=spec.get("name", "quadratic"),
        n=n,
        m=m,
        f_eval=lambda x: 0.5 * float(x @ Q @ x) + float(lin @ x) + const,
        g_eval=lambda x: Q @ x + lin,
        c_eval=lambda x: A @ x - b,
        J_eval=lambda x: A.copy(),
        reg=L1Regularizer(w),
        box=box,
        x0=d.get("x0"),
    )
