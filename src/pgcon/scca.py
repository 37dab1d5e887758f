"""Sparse canonical correlation analysis: synthetic data, problem
construction, initialization, and solution-quality metrics.

The synthetic views are rank one: X = a u' and Y = b u', where a and b
are block-signed pattern vectors plus per-entry Gaussian noise and u is a
shared latent series.  The first quarter of the X rows is correlated with
the last quarter of the Y rows, so an estimator with the right support
has nonzeros confined to those blocks.  The data keep the factors a, b
and s = u'u, and the covariances follow from them: Sxx = s a a',
Syy = s b b' and Sxy = s a b'.

All randomness flows through numpy's PCG64 generator seeded explicitly;
normal deviates are produced by inverse-CDF transform of uniforms, so the
streams are reproducible bit-for-bit wherever IEEE doubles and the PCG64
stream are available.  Draw order: x-noise, y-noise, latent series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .problem import ProblemInstance, add_slacks

__all__ = [
    "SccaData",
    "SccaMetrics",
    "scca_generate",
    "scca_problem",
    "scca_init",
    "scca_metrics",
]

NOISE_STD = 0.1  # entry variance 0.01


def _standard_normal(rng: np.random.Generator, size) -> np.ndarray:
    u = rng.random(size)
    return ndtri(u)


@dataclass
class SccaData:
    """The factors of the views X = a u' and Y = b u' (s = u'u, N samples)
    and the covariances formed from them."""

    a: np.ndarray  # n_x
    b: np.ndarray  # n_y
    s: float
    N: int
    seed: int
    sigma_xx: np.ndarray
    sigma_yy: np.ndarray
    sigma_xy: np.ndarray
    xi_x: np.ndarray  # the drawn pattern noise, kept for diagnostics
    xi_y: np.ndarray

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
    wall_time: float = 0.0
    rho_defined: bool = True


def pattern_vectors(n_x: int, n_y: int) -> tuple[np.ndarray, np.ndarray]:
    """Noise-free block patterns: [e; -e; 0] for X and [0; e; -e] for Y."""
    bx = np.zeros(n_x)
    bx[: n_x // 8] = 1.0
    bx[n_x // 8: n_x // 4] = -1.0
    by = np.zeros(n_y)
    by[3 * n_y // 4: 3 * n_y // 4 + n_y // 8] = 1.0
    by[3 * n_y // 4 + n_y // 8:] = -1.0
    return bx, by


def scca_generate(n_x: int, n_y: int, N: int, seed: int,
                  noise_std: float = NOISE_STD) -> SccaData:
    """Draw one synthetic dataset; deterministic under (sizes, seed)."""
    if n_x % 8 or n_y % 8:
        raise ValueError("n_x and n_y must be divisible by 8")
    if N < 1:
        raise ValueError("N must be at least 1")
    rng = np.random.default_rng(seed)
    bx, by = pattern_vectors(n_x, n_y)
    xi_x = noise_std * _standard_normal(rng, n_x)
    xi_y = noise_std * _standard_normal(rng, n_y)
    u = _standard_normal(rng, N)
    a, b, s = bx + xi_x, by + xi_y, float(u @ u)
    return SccaData(a=a, b=b, s=s, N=N, seed=seed, sigma_xx=s * np.outer(a, a),
                    sigma_yy=s * np.outer(b, b), sigma_xy=s * np.outer(a, b),
                    xi_x=xi_x, xi_y=xi_y)


def scca_problem(data: SccaData, lam: float) -> ProblemInstance:
    """Build the solver instance over (w_x, w_y, s1, s2).

    Objective -w_x' Sxy w_y with l1 weight lam on both weight blocks; the
    unit-variance inequalities become equalities against slack variables
    bounded above by one.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    nx, ny = data.n_x, data.n_y
    n = nx + ny
    Sxx, Syy, Sxy = data.sigma_xx, data.sigma_yy, data.sigma_xy

    def f(wz):
        return -float(wz[:nx] @ Sxy @ wz[nx:n])

    def g(wz):
        return np.concatenate([-(Sxy @ wz[nx:n]), -(Sxy.T @ wz[:nx])])

    def cI(wz):
        wx, wy = wz[:nx], wz[nx:n]
        return np.array([wx @ Sxx @ wx, wy @ Syy @ wy])

    def JI(wz):
        wx, wy = wz[:nx], wz[nx:n]
        out = np.zeros((2, n))
        out[0, :nx] = 2.0 * (Sxx @ wx)
        out[1, nx:] = 2.0 * (Syy @ wy)
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


def scca_metrics(w_x, w_y, data: SccaData, zero_tol: float = 1e-8,
                 wall_time: float = 0.0) -> SccaMetrics:
    """Correlation, sparsity ratios, support-error count, and constraint
    violations for a candidate weight pair."""
    w_x = np.asarray(w_x, dtype=float)
    w_y = np.asarray(w_y, dtype=float)
    nx, ny = data.n_x, data.n_y
    vx = float(w_x @ data.sigma_xx @ w_x)
    vy = float(w_y @ data.sigma_yy @ w_y)
    defined = vx > 0 and vy > 0
    rho = float(w_x @ data.sigma_xy @ w_y) / float(np.sqrt(vx * vy)) if defined else 0.0

    nnz_x = int(np.count_nonzero(np.abs(w_x) > zero_tol))
    nnz_y = int(np.count_nonzero(np.abs(w_y) > zero_tol))
    # nonzeros outside the ground-truth blocks: first quarter of x, last quarter of y
    sl = int(np.count_nonzero(np.abs(w_x[nx // 4:]) > zero_tol)
             + np.count_nonzero(np.abs(w_y[: 3 * ny // 4]) > zero_tol))
    return SccaMetrics(
        rho_xy=rho,
        sr_x=(nx - nnz_x) / nx,
        sr_y=(ny - nnz_y) / ny,
        sr=((nx + ny) - (nnz_x + nnz_y)) / (nx + ny),
        sl=sl,
        voc_x=max(vx - 1.0, 0.0),
        voc_y=max(vy - 1.0, 0.0),
        wall_time=wall_time,
        rho_defined=defined,
    )
