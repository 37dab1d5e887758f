"""Sparse canonical correlation analysis: synthetic data, problem
construction, initialization, and solution-quality metrics.

The synthetic views are rank one: X = a u' and Y = b u', where a and b
are block-signed pattern vectors plus per-entry Gaussian noise and u is a
shared latent series.  The first quarter of the X rows is correlated with
the last quarter of the Y rows, so an estimator with the right support
has nonzeros confined to those blocks.  The data are the factors a, b
and s = u'u alone: the covariances Sxx = s a a', Syy = s b b' and
Sxy = s a b' are never formed, and every quadratic form in them is two
dot products, w_x'a and w_y'b.

All randomness flows through numpy's PCG64 generator seeded explicitly;
normal deviates are produced by inverse-CDF transform of uniforms
(``ndtri``, a port of Cephes's), so the streams are reproducible
bit-for-bit wherever IEEE doubles and the PCG64 stream are available.
Draw order: x-noise, y-noise, latent series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import ProblemInstance, _float_array, add_slacks

__all__ = [
    "SccaData",
    "SccaMetrics",
    "scca_generate",
    "scca_problem",
    "scca_init",
    "scca_metrics",
]

NOISE_STD = 0.1  # entry variance 0.01
# |w_i| at most this counts as zero in scca_metrics' sparsity counts
ZERO_TOL = 1e-8

# Cephes ndtri: on the centre |p - 1/2| <= 1/2 - exp(-2) the deviate is
# p - 1/2 times a rational function of its square; on the tails it is
# r - log(r)/r minus a rational function of z = 1/r, r = sqrt(-2 log p),
# with one pair of polynomials above p = exp(-32) and one below
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _horner(x, coef, monic=False):
    """sum coef[i] x^(N-i) by Horner's rule (Cephes polevl); with
    ``monic`` a leading coefficient 1 precedes coef (p1evl)."""
    ans = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def ndtri(p) -> np.ndarray:
    """Inverse of the standard normal CDF, Cephes's algorithm step for
    step, so it returns the C original's bits; NaN outside [0, 1].  The
    tail logarithms use ``math.log``, which is the C library's; numpy's
    vectorized log rounds differently."""
    p = np.asarray(p, dtype=float)
    upper = p > 1.0 - _EXP_M2  # the upper tail mirrors the lower one
    q = np.where(upper, 1.0 - p, p)
    x = np.where(q == 0.0, np.inf, np.nan)
    mid = q > _EXP_M2
    y = q[mid] - 0.5
    y2 = y * y
    x[mid] = (y + y * (y2 * _horner(y2, _P0) / _horner(y2, _Q0, monic=True))) * _S2PI
    tail = ~mid & (q > 0.0)
    r = np.sqrt(-2.0 * np.array([math.log(v) for v in q[tail].tolist()]))
    r0 = r - np.array([math.log(v) for v in r.tolist()]) / r
    z = 1.0 / r
    near = r < 8.0  # p > exp(-32)
    r1 = np.where(near, z * _horner(z, _P1) / _horner(z, _Q1, monic=True),
                  z * _horner(z, _P2) / _horner(z, _Q2, monic=True))
    x[tail] = r0 - r1
    return np.where(upper | mid, x, -x)


def _standard_normal(rng: np.random.Generator, size) -> np.ndarray:
    u = rng.random(size)
    return ndtri(u)


@dataclass
class SccaData:
    """The factors of the views X = a u' and Y = b u' (s = u'u, N samples)."""

    a: np.ndarray  # n_x
    b: np.ndarray  # n_y
    s: float
    N: int
    seed: int

    @property
    def n_x(self) -> int:
        return self.a.shape[0]

    @property
    def n_y(self) -> int:
        return self.b.shape[0]


@dataclass
class SccaMetrics:
    rho_xy: float
    sr_x: float
    sr_y: float
    sr: float
    sl: int
    voc_x: float
    voc_y: float


def pattern_vectors(n_x: int, n_y: int) -> tuple[np.ndarray, np.ndarray]:
    """Noise-free block patterns: [e; -e; 0] for X and [0; e; -e] for Y."""
    bx = np.zeros(n_x)
    bx[: n_x // 8] = 1.0
    bx[n_x // 8: n_x // 4] = -1.0
    by = np.zeros(n_y)
    by[3 * n_y // 4: 3 * n_y // 4 + n_y // 8] = 1.0
    by[3 * n_y // 4 + n_y // 8:] = -1.0
    return bx, by


def scca_generate(n_x: int, n_y: int, N: int, seed: int) -> SccaData:
    """Draw one synthetic dataset; deterministic under (sizes, seed)."""
    if n_x % 8 or n_y % 8:
        raise ValueError("n_x and n_y must be divisible by 8")
    if N < 1:
        raise ValueError("N must be at least 1")
    rng = np.random.default_rng(seed)
    bx, by = pattern_vectors(n_x, n_y)
    a = bx + NOISE_STD * _standard_normal(rng, n_x)
    b = by + NOISE_STD * _standard_normal(rng, n_y)
    u = _standard_normal(rng, N)
    return SccaData(a=a, b=b, s=float(u @ u), N=N, seed=seed)


def scca_problem(data: SccaData, lam: float) -> ProblemInstance:
    """Build the solver instance over (w_x, w_y, s1, s2).

    Objective -w_x' Sxy w_y with l1 weight lam on both weight blocks; the
    unit-variance inequalities become equalities against slack variables
    bounded above by one.  With p = w_x'a and q = w_y'b the objective is
    -s p q, the variances are s p^2 and s q^2, and each evaluation costs
    two dot products.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    nx, ny = data.n_x, data.n_y
    n = nx + ny
    a, b, s = data.a, data.b, data.s

    def pq(wz):
        return float(wz[:nx] @ a), float(wz[nx:n] @ b)

    def f(wz):
        p, q = pq(wz)
        return -s * p * q

    def g(wz):
        p, q = pq(wz)
        return np.concatenate([(-s * q) * a, (-s * p) * b])

    def cI(wz):
        p, q = pq(wz)
        return np.array([s * p * p, s * q * q])

    def JI(wz):
        p, q = pq(wz)
        out = np.zeros((2, n))
        out[0, :nx] = (2.0 * s * p) * a
        out[1, nx:] = (2.0 * s * q) * b
        return out

    # w = 0 is a (useless) stationary point, so a solve from a zero start
    # would stop immediately; ship the canonical-correlation warm start
    return add_slacks(
        f"scca-nx{nx}-ny{ny}-N{data.N}-lam{lam:g}-seed{data.seed}",
        n,
        f_eval=f,
        g_eval=g,
        cE_eval=None,
        JE_eval=None,
        cI_eval=cI,
        JI_eval=JI,
        m_eq=0,
        m_ineq=2,
        x_lower=np.full(n, -np.inf),
        x_upper=np.full(n, np.inf),
        c_lower=np.full(2, -np.inf),
        c_upper=np.ones(2),
        l1_weights=np.full(n, lam),
        x0=scca_init(data),
    )


def scca_init(data: SccaData) -> np.ndarray:
    """Leading canonical pair of the rank-one data, in closed form:
    w_x = a / (sqrt(s) |a|^2) and w_y = b / (sqrt(s) |b|^2), which sit on
    both variance constraints and give w_x' Sxy w_y = 1.

    Returns the full starting point (w_x, w_y, 1, 1) including slacks.
    """
    a, b, r = data.a, data.b, np.sqrt(data.s)
    return np.concatenate([a / (r * (a @ a)), b / (r * (b @ b)), [1.0, 1.0]])


def scca_metrics(w_x, w_y, data: SccaData) -> SccaMetrics:
    """Correlation, sparsity ratios, support-error count, and constraint
    violations for a candidate weight pair."""
    nx, ny = data.n_x, data.n_y
    w_x, w_y = _float_array(w_x, "w_x", (nx,)), _float_array(w_y, "w_y", (ny,))
    p, q = float(w_x @ data.a), float(w_y @ data.b)
    vx, vy = data.s * p * p, data.s * q * q
    rho = data.s * p * q / math.sqrt(vx * vy) if vx > 0 and vy > 0 else 0.0

    nnz_x = int(np.count_nonzero(np.abs(w_x) > ZERO_TOL))
    nnz_y = int(np.count_nonzero(np.abs(w_y) > ZERO_TOL))
    # nonzeros outside the ground-truth blocks: first quarter of x, last quarter of y
    sl = int(np.count_nonzero(np.abs(w_x[nx // 4:]) > ZERO_TOL)
             + np.count_nonzero(np.abs(w_y[: 3 * ny // 4]) > ZERO_TOL))
    return SccaMetrics(
        rho_xy=rho,
        sr_x=(nx - nnz_x) / nx,
        sr_y=(ny - nnz_y) / ny,
        sr=((nx + ny) - (nnz_x + nnz_y)) / (nx + ny),
        sl=sl,
        voc_x=max(vx - 1.0, 0.0),
        voc_y=max(vy - 1.0, 0.0),
    )
