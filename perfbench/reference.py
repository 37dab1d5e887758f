"""A fixed reference computation that tracks the machine's current speed.

On a shared host the same solve can take 1.5x longer from one minute to
the next, with CPU time still equal to wall time: the neighbours slow the
core down rather than take it away.  A run therefore times this kernel
just before and just after every interval it times, and rescales the
interval to the speed the kernel had on the reference machine:

    at_reference_speed = measured * REFERENCE_S / mean(kernel before, kernel after)

An interval that keeps both cores busy is rescaled by the median of all
the run's kernel times instead (``run_scale``).

The kernel mixes what a solve spends its time on: a Python loop, small
dense solves and a sparse LU factorization.  It calls nothing in pgcon,
so no change to the package can move it.  Raw and rescaled times are both
kept in the run's record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

# seconds the kernel takes on a quiet 2-vCPU Intel Xeon VM at 2.1 GHz
# (Python 3.11, NumPy 2.4, SciPy 1.17); fixed, so results stay comparable
REFERENCE_S = 0.060
_LOOP = 200_000
_FACTORIZATIONS = 20


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        n = 300
        self._sparse = (scipy.sparse.random(n, n, density=0.02, random_state=rng, format="csc")
                        + 5.0 * scipy.sparse.identity(n, format="csc"))
        self._rhs = np.ones(n)
        self._dense = rng.standard_normal((60, 60)) + 60.0 * np.eye(60)
        self.samples: list[float] = []
        self.time()  # first call pays for lazy imports

    def time(self) -> float:
        """Run the kernel once; its wall time in seconds."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(_LOOP):
            acc += i
        for _ in range(_FACTORIZATIONS):
            scipy.sparse.linalg.splu(self._sparse).solve(self._rhs)
            np.linalg.solve(self._dense, self._rhs[:60])
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def run_scale(self) -> float:
        """Reference over measured speed, from every kernel run so far."""
        return REFERENCE_S / statistics.median(self.samples)

    def timed(self, fn, before: float | None = None):
        """Call ``fn()`` between two kernel runs.

        Returns ``(result, raw_s, scale, after)``: ``raw_s * scale`` is the
        call's time at the reference speed.  Pass ``after`` as ``before``
        of the next call so back-to-back intervals share one kernel run.
        """
        if before is None:
            before = self.time()
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        after = self.time()
        return result, raw, REFERENCE_S / (0.5 * (before + after)), after
