"""Outer solver loop: step decomposition, merit-based acceptance,
termination taxonomy, per-iteration ledger, and identification trackers.

Status taxonomy
---------------
KktPoint              all three KKT tolerances met
InfeasibleStationary  stationary for the violation but c != 0 (certified)
MaxIter / TimeLimit   budget exhausted
Stalled               proximal parameter collapsed below its floor, the step
                      vanished repeatedly without passing the KKT test, or a
                      subproblem failed on degenerate data
MeritCollapse         merit weight driven below its floor
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import json
import operator
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import globalization as glob
from .geometry import _norm, active_set, kkt_parts, project_box
from .normal_step import ETA_M, GAMMA, KAPPA_V, compute_normal_step
from .problem import EvaluationError, L1Regularizer, ProblemInstance, scale_factors
from .tangential import TangentialError, solve_tangential

__all__ = [
    "SolverConfig",
    "IterationRecord",
    "SolveReport",
    "solve",
    "kkt_residual",
    "identification_trackers",
    "ledger_to_csv",
    "report_to_json",
]

# the merit weight's starting value
TAU_INIT = 1.0
# a trial step with ||s|| / alpha at most this has vanished
TOL_STEP = 1e-12

_POSITIVE_FIELDS = ("alpha0", "tol_c", "tol_stat", "tol_comp", "time_limit")
# the value types each declared field type accepts
_FIELD_KINDS = {"int": int, "float": (int, float)}


@dataclass(frozen=True)
class SolverConfig:
    """What a run chooses: the first proximal parameter ``alpha0``, the
    KKT tolerances (``tol_c`` also marks a stationary point of the
    violation infeasible) and the budgets.  The start is the problem's
    ``x0``.  The method's fixed parameters are constants next to the
    function that reads each.  A config is frozen, so its hash is formed
    once, on the first call of ``config_hash``."""

    alpha0: float = 10.0
    tol_c: float = 1e-6
    tol_stat: float = 1e-4
    tol_comp: float = 1e-4
    max_iter: int = 10000
    time_limit: float = 3600.0

    def __post_init__(self):
        self.validate()

    def validate(self):
        for f in dataclasses.fields(self):
            kinds = _FIELD_KINDS[f.type]
            val = getattr(self, f.name)
            # bool is an int subclass, but no field takes one
            if not isinstance(val, kinds) or isinstance(val, bool):
                raise ValueError(f"{f.name}={val!r} must be of type {f.type}")
            if f.type == "float":
                # an int is stored as the float it names, so it hashes as one
                try:
                    object.__setattr__(self, f.name, float(val))
                except OverflowError:
                    raise ValueError(f"{f.name} is too large for a float") from None
        for name in _POSITIVE_FIELDS:
            val = getattr(self, name)
            if not val > 0:
                raise ValueError(f"{name}={val!r} must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in _FIELD_NAMES}

    @classmethod
    def from_dict(cls, d: dict) -> "SolverConfig":
        unknown = set(d) - set(_FIELD_NAMES)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    def config_hash(self) -> str:
        return self._hash

    @functools.cached_property
    def _hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(SolverConfig))


def kkt_residual(p: ProblemInstance, x, y, z, g_r):
    """(chi, parts) of ``geometry.kkt_parts`` at x for the supplied
    multiplier estimates: the entry for points from outside the solver,
    so it converts its arguments to float arrays."""
    x, y, z, g_r = (np.asarray(a, dtype=float) for a in (x, y, z, g_r))
    parts = kkt_parts(p.g(x), p.c(x), p.J(x), p.box, p.reg.weights, x, y, z, g_r)
    return parts.chi, parts


@dataclass
class IterationRecord:
    k: int
    x_hash: str
    delta: float
    beta: float
    norm_v: float
    norm_u: float
    norm_s: float
    tau: float
    alpha: float
    merit_before: float
    merit_after: float
    accepted: bool
    chi: float
    chi_stat: float
    chi_comp: float
    chi_bar: float
    c_norm: float
    f_val: float
    r_val: float
    active_lower: tuple
    active_upper: tuple
    sign_pattern: str
    tang_iters: int  # Newton steps and refinement solves of the tangential solve
    tang_evals: int  # evaluations of w(y) in the tangential solve


@dataclass
class SolveReport:
    status: str
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    g_r: np.ndarray
    chi: float
    c_norm: float
    iterations: int
    records: list
    objective: float  # unscaled f + r at the final point
    f_unscaled: float
    wall_time: float
    invariant_violations: list = field(default_factory=list)
    config_hash: str = ""


def _hash_point(x) -> str:
    return hashlib.sha256(np.ascontiguousarray(x, dtype=float).tobytes()).hexdigest()[:16]


_SIGN_CHARS = np.frombuffer(b"0+-", dtype="S1")


def _sign_pattern(x, weighted) -> str:
    """One of "+", "-", "0" per weighted component of x (the indices
    ``weighted``), 0 within 1e-12."""
    x_reg = x[weighted]
    code = (x_reg > 1e-12) + 2 * (x_reg < -1e-12)
    return _SIGN_CHARS[code].tobytes().decode()


class _InvariantMonitor:
    """Collects violations of the runtime-checkable step inequalities.

    Each check is a direct transcription of a property the step
    computation is supposed to guarantee; slack 1e-10 absorbs rounding.
    """

    SLACK = 1e-10
    KAPPA1 = GAMMA * ETA_M * (1.0 - ETA_M)

    def __init__(self, orthant: bool):
        self.orthant = orthant
        self.violations = []

    def _add(self, k, name, margin):
        self.violations.append({"k": k, "check": name, "margin": float(margin)})

    def _check_bound(self, k, name, lhs, a, b, cap, J):
        """Flag lhs < a * min(b / (1 + ||J||_2^2), cap) - SLACK.  The bound
        falls as ||J||_2^2 grows, so a pass at 0 is a pass, and only a
        fail there forms ||J||_2^2, an SVD."""
        if lhs < a * min(b, cap) - self.SLACK:
            rhs = a * min(b / (1.0 + float(np.linalg.norm(J, 2) ** 2)), cap)
            if lhs < rhs - self.SLACK:
                self._add(k, name, rhs - lhs)

    def check_iteration(self, rec, *, tau_prev, normal, z, x, c_val, J, A_k,
                        cJs_norm, v_unit_norm):
        """Check iteration ``rec.k`` from its ledger row, the merit weight
        ``tau_prev`` it started from and what the row does not hold."""
        k, alpha, tau, c_norm = rec.k, rec.alpha, rec.tau, rec.c_norm
        if tau < tau_prev:
            # the update's defining inequality after any decrease
            gain = c_norm - cJs_norm
            if tau * A_k > (1.0 - glob.SIGMA_C) * gain + self.SLACK:
                self._add(k, "tau_update_inequality",
                          tau * A_k - (1.0 - glob.SIGMA_C) * gain)
        if rec.norm_s / alpha <= TOL_STEP:
            # a vanishing trial step must come from vanishing parts
            cap = max(10.0 * TOL_STEP * alpha,
                      1e-8 * (1.0 + float(np.maximum.reduce(np.abs(x), initial=0.0))))
            if rec.norm_v > cap or rec.norm_u > cap:
                self._add(k, "step_parts_vanish", max(rec.norm_v, rec.norm_u))
        if rec.delta > 0 and rec.beta > 0:
            ratio = _norm(normal.v_cauchy) / rec.beta
            lhs = 0.5 * float(np.dot(c_val, c_val)) - normal.model_cauchy
            self._check_bound(k, "cauchy_decrease", lhs, self.KAPPA1 * ratio,
                              ratio, KAPPA_V * alpha * rec.delta, J)
            if c_norm > 0:
                gain = c_norm - _norm(c_val + J @ normal.v)
                self._check_bound(k, "linearized_gain", gain,
                                  (self.KAPPA1 / c_norm) * v_unit_norm ** 2,
                                  1.0, KAPPA_V * alpha, J)
        if self.orthant:
            rhs = _norm(np.minimum(x, -z))
            if rec.norm_s < rhs - self.SLACK:
                self._add(k, "step_bounds_complementarity", rhs - rec.norm_s)
        if tau > tau_prev + 1e-15:
            self._add(k, "tau_monotone", tau - tau_prev)

    def check_shifted_merit(self, records):
        """The shifted merit tau*(f + r - f_lb) + ||c||, f_lb one below the
        least f of the run, never grows along the records.  It holds
        whatever alpha does: an accepted step decreases the merit at its
        own tau, tau never grows, and f + r - f_lb >= 1."""
        if not records:
            return
        f_lb = min(r.f_val for r in records) - 1.0
        prev = None
        for r in records:
            val = r.tau * (r.f_val + r.r_val - f_lb) + r.c_norm
            if prev is not None and val > prev + 1e-9 * (1.0 + abs(prev)):
                self._add(r.k, "shifted_merit_monotone", val - prev)
            prev = val


def solve(p: ProblemInstance, cfg: SolverConfig) -> SolveReport:
    """Run the full method on one problem instance.

    f and c are evaluated once per trial point, g and J once per point
    the method moves to (not at a trial that ends the run), and all are
    kept in the caller's units.  The method works on copies scaled by the
    factors of ``scale_factors``; the KKT stop test, the ledger's chi,
    chi_stat and chi_comp, and the report are in the caller's units.  What
    depends on the point alone (the scaled copies, the ledger's hash,
    active set and sign pattern, and a zero normal step, which does not
    depend on alpha) is formed when the point changes; a rejected trial
    reuses it.
    """
    t_start = time.perf_counter()

    x_init = p.x0 if p.x0 is not None else np.zeros(p.n)
    box = p.box
    x = project_box(x_init, box)
    if not np.array_equal(x, x_init):
        warnings.warn(f"{p.name}: starting point projected into the box")

    f_val, g_val, c_val, J_val = p.f(x), p.g(x), p.c(x), p.J(x)
    scale = scale_factors(g_val, J_val)
    f_fac, c_fac = scale.objective_factor, scale.constraint_factors
    reg = p.reg if f_fac == 1.0 else L1Regularizer(f_fac * p.reg.weights)
    weighted = (reg.weights > 0).nonzero()[0]
    r_val = reg.value(x)
    tau, alpha = TAU_INIT, cfg.alpha0

    monitor = _InvariantMonitor(box.orthant)
    records: list[IterationRecord] = []
    isp_streak = 0
    stall_streak = 0
    y = np.zeros(p.m)
    z = np.zeros(p.n)
    g_r = np.zeros(p.n)
    new_point = True

    def finish(status_, tested=None):
        # tested: the stop test's unscaled (y, z, g_r) and chi, when it
        # ran at this x with these multipliers
        monitor.check_shifted_merit(records)
        if tested is not None:
            (y_un, z_un, g_r_un), chi_fin = tested
        else:
            y_un, z_un, g_r_un = scale.unscale_multipliers(y, z, g_r)
            chi_fin = (kkt_parts(g_val, c_val, J_val, box, p.reg.weights, x,
                                 y_un, z_un, g_r_un).chi if records else np.inf)
        return SolveReport(
            status=status_, x=x.copy(), y=y_un, z=z_un, g_r=g_r_un, chi=chi_fin,
            c_norm=_norm(c_val), iterations=len(records), records=records,
            objective=f_val + p.reg.value(x), f_unscaled=f_val,
            wall_time=time.perf_counter() - t_start,
            invariant_violations=monitor.violations, config_hash=cfg.config_hash(),
        )

    for k in range(cfg.max_iter):
        if time.perf_counter() - t_start > cfg.time_limit:
            return finish("TimeLimit")

        if new_point:
            # the method's scaled copies of the caller's values at x
            f_s, g_s = f_fac * f_val, f_fac * g_val
            c_s, J_s = c_fac * c_val, c_fac[:, None] * J_val
            c_norm = _norm(c_s)
            x_hash, aset = _hash_point(x), active_set(x, box)
            sign_pattern = _sign_pattern(x, weighted)
            zero_normal = None
            new_point = False
        normal = (zero_normal if zero_normal is not None else
                  compute_normal_step(x, c_s, J_s, alpha, box, cfg.tol_c))
        if normal.v_inf is None:  # the zero step, free of alpha: kept for x
            zero_normal = normal
        if normal.infeasible_stationary:
            # a streak's previous iteration holds the last record
            if isp_streak and alpha <= records[-1].alpha * (1 + 1e-12):
                isp_streak += 1
            else:
                isp_streak = 1
            if isp_streak >= 3:
                return finish("InfeasibleStationary")
        else:
            isp_streak = 0

        try:
            tang = solve_tangential(x, normal.v, g_s, J_s, alpha, reg, box, y0=y)
        except TangentialError as exc:
            # subproblem failure (degenerate or numerically rank-deficient
            # data): record what we have instead of propagating
            warnings.warn(f"{p.name}: tangential subproblem failed at "
                          f"iteration {k}: {exc}")
            return finish("Stalled")
        y, z, g_r = tang.y, tang.z, tang.g_r
        w = tang.w
        s = w - x

        unscaled = scale.unscale_multipliers(y, z, g_r)
        parts = kkt_parts(g_val, c_val, J_val, box, p.reg.weights, x, *unscaled)
        tested = (unscaled, parts.chi)
        v_unit_norm = _norm(normal.v_unit)
        comp_v1 = max(parts.stationarity, v_unit_norm, parts.complementarity)

        s_norm = _norm(s)
        r_w = reg.value(w)
        A_k = glob.compute_Ak(g_s, s, alpha, r_w, r_val)
        cJs_norm = _norm(c_s + J_s @ s)
        tau_new = glob.update_tau(tau, glob.tau_trial(A_k, c_norm, cJs_norm))

        phi_old = glob.merit_from_parts(f_s, r_val, c_norm, tau_new)
        try:
            f_w = p.f(w)
            c_w = p.c(w)
            phi_new = glob.merit_from_parts(f_fac * f_w, r_w,
                                            _norm(c_fac * c_w), tau_new)
            accepted = glob.sufficient_decrease(phi_new, phi_old, tau_new, alpha, s,
                                                c_norm, cJs_norm)
        except EvaluationError:
            # a non-finite value at the trial point rejects the step; alpha
            # then shrinks
            phi_new, accepted = np.inf, False

        records.append(IterationRecord(
            k=k, x_hash=x_hash, delta=normal.delta, beta=normal.beta,
            norm_v=_norm(normal.v), norm_u=_norm(tang.u), norm_s=s_norm,
            tau=tau_new, alpha=alpha,
            merit_before=phi_old, merit_after=phi_new, accepted=accepted,
            chi=parts.chi, chi_stat=parts.stationarity, chi_comp=parts.complementarity,
            chi_bar=comp_v1, c_norm=c_norm, f_val=f_s, r_val=r_val,
            active_lower=aset.at_lower, active_upper=aset.at_upper,
            sign_pattern=sign_pattern,
            tang_iters=tang.iterations, tang_evals=tang.evaluations,
        ))
        monitor.check_iteration(
            records[-1], tau_prev=tau, normal=normal, z=z, x=x, c_val=c_s, J=J_s,
            A_k=A_k, cJs_norm=cJs_norm, v_unit_norm=v_unit_norm,
        )

        # g_r must lie in lam * d|x| within tol_stat, not only in lam * d|w|
        if (parts.feasibility <= cfg.tol_c
                and max(parts.stationarity, parts.subgradient_margin) <= cfg.tol_stat
                and parts.complementarity <= cfg.tol_comp):
            records[-1].accepted = False
            return finish("KktPoint", tested)

        if tau_new < glob.TAU_FLOOR:
            return finish("MeritCollapse", tested)
        tau = tau_new

        vanished = s_norm / alpha <= TOL_STEP
        if vanished:
            stall_streak += 1
            if stall_streak >= 5:
                return finish("Stalled", tested)
        else:
            stall_streak = 0

        if accepted:
            # the derivatives at w, only for a step that is taken; a
            # non-finite one rejects it as a non-finite value would have
            try:
                g_w, J_w = p.g(w), p.J(w)
            except EvaluationError:
                accepted = records[-1].accepted = False
                records[-1].merit_after = np.inf

        lipschitz = None
        if accepted and not vanished:
            # local Lipschitz estimate of the scaled Lagrangian's gradient
            # along s, with this iteration's y
            d_grad = f_fac * (g_w - g_val) + (J_w - J_val).T @ (c_fac * y)
            lipschitz = _norm(d_grad) / s_norm
        if accepted:
            x = w
            f_val, r_val, c_val = f_w, r_w, c_w
            g_val, J_val = g_w, J_w
            new_point = True
        if not (accepted and vanished):
            # a vanishing accepted step says nothing about the proximal
            # scale; growing alpha on it would reset the stationarity streak
            prev_accepted = len(records) < 2 or records[-2].accepted
            alpha = glob.update_alpha(alpha, accepted, lipschitz, prev_accepted)
        if alpha < glob.ALPHA_FLOOR:
            return finish("Stalled")

    return finish("MaxIter")


def identification_trackers(records) -> tuple:
    """Stabilization iterations for the active set and the sign pattern.

    Returns (active_set_iter, sign_pattern_iter): the first recorded
    iteration after which the respective quantity never changes again for
    the rest of the run; None when there are no records.
    """
    if not records:
        return None, None

    def stabilize(values, ks):
        last_change = 0
        for i in range(1, len(values)):
            if values[i] != values[i - 1]:
                last_change = i
        return ks[last_change]

    ks = [r.k for r in records]
    asets = [(r.active_lower, r.active_upper) for r in records]
    signs = [r.sign_pattern for r in records]
    return stabilize(asets, ks), stabilize(signs, ks)


# ledger cell format by declared field type; wall times are deliberately
# not fields, so identical runs produce byte-identical ledgers
_CELL_FORMAT = {"bool": lambda v: str(int(v)), "float": repr, "int": str, "str": str,
                "tuple": lambda v: "|".join(map(str, v))}
_LEDGER_FIELDS = dataclasses.fields(IterationRecord)
_LEDGER_HEADER = ",".join(f.name for f in _LEDGER_FIELDS) + "\n"
_LEDGER_CELLS = [(operator.attrgetter(f.name), _CELL_FORMAT[f.type]) for f in _LEDGER_FIELDS]


def ledger_to_csv(records) -> str:
    """Render the iteration ledger, one column per ``IterationRecord`` field."""
    buf = io.StringIO()
    buf.write(_LEDGER_HEADER)
    for r in records:
        buf.write(",".join([fmt(get(r)) for get, fmt in _LEDGER_CELLS]) + "\n")
    return buf.getvalue()


def report_to_json(report: SolveReport, extra: dict) -> str:
    """Every ``SolveReport`` field except the records, arrays as lists."""
    out = {}
    for f in dataclasses.fields(SolveReport):
        if f.name != "records":
            val = getattr(report, f.name)
            out[f.name] = val.tolist() if isinstance(val, np.ndarray) else val
    out.update(extra)
    return json.dumps(out, indent=2, sort_keys=True)
