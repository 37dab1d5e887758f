"""Outside-in layer trace for pgcon.

A ``Tracer`` rebinds the names through which pgcon's layers call each
other (``pgcon.driver.solve_tangential``, ``pgcon.tangential.solve_qp``,
``ProblemInstance.f`` and so on) to wrappers that record a span per call
and a few counters read off the call's arguments or result.  Nothing in
the package itself changes; ``uninstall`` puts every original back.

A span is ``(id, parent_id, name, start, end)``.  Each thread keeps its
own open-span stack, span list and counters, so workers of the bench
pool tag their spans with their own thread and never share mutable
state.  Everything stays in memory until ``drain``.

With ``timing=False`` only the counters the determinism cross-check needs
are installed (outer QP iterations per solve); no span is recorded.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter, defaultdict

import numpy as np
import numpy.linalg
import scipy.linalg
import scipy.sparse.linalg

from pgcon import bench, corpus, driver, normal_step, problem, qp, scca, tangential

# the factorizations counted as qp.factor_* when called inside a QP solve
FACTORIZATIONS = (
    (scipy.sparse.linalg, "splu"),
    (scipy.linalg, "solve"),
    (scipy.linalg, "lstsq"),
    (numpy.linalg, "lstsq"),
)


class _ThreadState:
    def __init__(self, thread_name: str):
        self.thread = thread_name
        self.stack: list[tuple[int, str]] = []
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.solve_qp_iters = 0
        self.last_solve_qp_iters = None


class Tracer:
    def __init__(self, timing: bool = True):
        self.timing = timing
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._saved: list[tuple[object, str, object]] = []

    # --- per-thread state -----------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.current_thread().name)
            with self._lock:
                self._states.append(st)
            self._local.st = st
        return st

    def last_solve_qp_iters(self):
        """Outer QP iterations of the last ``solve`` on this thread."""
        return self._state().last_solve_qp_iters

    def drain(self) -> tuple[list[tuple], Counter]:
        """Hand over every span and counter recorded so far and reset."""
        spans, counts = [], Counter()
        with self._lock:
            for st in self._states:
                spans.extend(s + (st.thread,) for s in st.spans)
                counts.update(st.counts)
                st.spans = []
                st.counts = Counter()
        spans.sort(key=lambda s: s[3])
        return spans, counts

    # --- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None, only_in=None):
        """Span around ``fn``; ``before(st, args, kwargs)`` and
        ``after(st, result)`` update counters.  With ``only_in`` set, the
        call is recorded only while a span with that prefix is open."""
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            if only_in is not None and not any(n.startswith(only_in) for _, n in st.stack):
                return fn(*args, **kwargs)
            if before is not None:
                before(st, args, kwargs)
            if not tracer.timing:
                out = fn(*args, **kwargs)
            else:
                sid = next(tracer._ids)
                parent = st.stack[-1][0] if st.stack else 0
                st.stack.append((sid, name))
                t0 = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    st.stack.pop()
                    st.spans.append((sid, parent, name, t0, t1))
            if after is not None:
                after(st, out)
            return out

        return wrapper

    def _rebind(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        w = self._wrap

        def solve_begin(st, args, kwargs):
            st.solve_qp_iters = 0
            st.last_solve_qp_iters = None

        def solve_end(st, report):
            st.last_solve_qp_iters = st.solve_qp_iters

        def qp_done(origin):
            def after(st, sol):
                st.counts["qp.calls"] += 1
                st.counts["qp.iters"] += sol.iterations
                st.counts[f"qp.{origin}_iters"] += sol.iterations
                st.counts["qp.failed"] += sol.status != "solved"
                st.solve_qp_iters += sol.iterations
            return after

        solve = w("driver.solve", driver.solve, before=solve_begin, after=solve_end)
        self._rebind(driver, "solve", solve)
        self._rebind(bench, "solve", solve)
        self._rebind(normal_step, "solve_qp", w("qp.solve", qp.solve_qp, after=qp_done("tr")))
        self._rebind(tangential, "solve_qp",
                     w("qp.solve", qp.solve_qp, after=qp_done("tangential")))
        if not self.timing:
            return

        def normal_done(st, res):
            active = bool(np.any(res.v))
            st.counts["normal_step.active"] += active
            st.counts["normal_step.tr_won"] += active and res.v is res.v_inf

        def cauchy_done(st, res):
            st.counts["normal_step.backtracks"] += res[2]

        def tangential_begin(st, args, kwargs):
            st.counts["tangential.warm_offered"] += kwargs.get("warm") is not None

        self._rebind(qp, "solve_qp", w("qp.nested", qp.solve_qp))
        for owner, attr in FACTORIZATIONS:
            fn = getattr(owner, attr)
            self._rebind(owner, attr, w(f"qp.factor.{owner.__name__}.{attr}", fn,
                                        only_in="qp."))
        self._rebind(driver, "compute_normal_step",
                     w("normal_step.compute", driver.compute_normal_step, after=normal_done))
        self._rebind(normal_step, "cauchy_search",
                     w("normal_step.cauchy", normal_step.cauchy_search, after=cauchy_done))
        self._rebind(normal_step, "solve_tr_inf", w("normal_step.tr", normal_step.solve_tr_inf))
        self._rebind(driver, "solve_tangential",
                     w("tangential.solve", driver.solve_tangential, before=tangential_begin))
        self._rebind(tangential, "build_tangential_qp",
                     w("tangential.build", tangential.build_tangential_qp))
        for attr in ("f", "g", "c", "J"):
            self._rebind(problem.ProblemInstance, attr,
                         w(f"problem.{attr}", getattr(problem.ProblemInstance, attr)))
        self._rebind(scca, "scca_generate", w("scca.generate", scca.scca_generate))
        self._rebind(scca, "scca_problem", w("scca.problem", scca.scca_problem))
        self._rebind(scca, "scca_init", w("scca.init", scca.scca_init))
        self._rebind(corpus, "corpus", w("corpus.build", corpus.corpus))
        self._rebind(bench, "run_benchmark", w("bench.run", bench.run_benchmark))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _durations(spans, prefix):
    return [s[4] - s[3] for s in spans if s[2].startswith(prefix)]


def solve_metrics(spans, counts) -> dict:
    """Per-layer numbers of the solve phase, keyed by metric name."""
    by_name = defaultdict(float)
    n_by_name = Counter()
    child = defaultdict(float)
    for sid, parent, name, t0, t1, _ in spans:
        by_name[name] += t1 - t0
        n_by_name[name] += 1
        child[parent] += t1 - t0
    driver_self = sum(t1 - t0 - child[sid] for sid, _, name, t0, t1, _ in spans
                      if name == "driver.solve")
    factor_s = sum(_durations(spans, "qp.factor."))
    qp_s = by_name["qp.solve"]
    qp_iters = counts["qp.iters"]
    normal_active = counts["normal_step.active"]
    return {
        "driver.s": by_name["driver.solve"],
        "driver.self_s": driver_self,
        "qp.s": qp_s,
        "qp.calls": counts["qp.calls"],
        "qp.iters": qp_iters,
        "qp.ms_per_iter": 1e3 * qp_s / qp_iters if qp_iters else 0.0,
        "qp.failed": counts["qp.failed"],
        "qp.tangential_iters": counts["qp.tangential_iters"],
        "qp.tr_iters": counts["qp.tr_iters"],
        "qp.factor_s": factor_s,
        "qp.factor_calls": len(_durations(spans, "qp.factor.")),
        "qp.self_s": qp_s - factor_s,
        "tangential.s": by_name["tangential.solve"],
        "tangential.calls": n_by_name["tangential.solve"],
        "tangential.build_s": by_name["tangential.build"],
        "tangential.warm_offered": counts["tangential.warm_offered"],
        "normal_step.s": by_name["normal_step.compute"],
        "normal_step.calls": n_by_name["normal_step.compute"],
        "normal_step.active": normal_active,
        "normal_step.cauchy_s": by_name["normal_step.cauchy"],
        "normal_step.backtracks": counts["normal_step.backtracks"],
        "normal_step.tr_s": by_name["normal_step.tr"],
        "normal_step.tr_won": (counts["normal_step.tr_won"] / normal_active
                               if normal_active else 0.0),
        "problem.eval_s": sum(_durations(spans, "problem.")),
        "problem.f_calls": n_by_name["problem.f"],
        "problem.g_calls": n_by_name["problem.g"],
        "problem.c_calls": n_by_name["problem.c"],
        "problem.J_calls": n_by_name["problem.J"],
    }


def setup_metrics(spans) -> dict:
    """Per-layer numbers of the set-up phase."""
    return {
        "scca.generate_s": sum(_durations(spans, "scca.generate")),
        "scca.init_s": sum(_durations(spans, "scca.init")),
        "corpus.build_s": sum(_durations(spans, "corpus.build")),
    }
