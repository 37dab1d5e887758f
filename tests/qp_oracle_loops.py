"""The per-pattern loop form of ``qp_oracle.enumerate_qp``, kept as its
reference: ``test_qp_oracle.py`` requires the two to return the same
``(x, y, z)``, bit for bit.

Enumerates every pattern assigning each variable to {free, at lower, at
upper} (skipping infinite bounds), solves the resulting linear KKT
system, and keeps the feasible stationary point with correct dual signs.
"""

import itertools

import numpy as np


def enumerate_qp(H, q, Aeq, beq, lower, upper, tol=1e-9):
    """Return (x, y, z) for the best KKT point found, or None."""
    H = np.asarray(H, dtype=float)
    q = np.asarray(q, dtype=float)
    d = q.shape[0]
    Aeq = np.zeros((0, d)) if Aeq is None else np.asarray(Aeq, dtype=float)
    beq = np.zeros(0) if beq is None else np.asarray(beq, dtype=float)
    p = Aeq.shape[0]

    options = []
    for i in range(d):
        opts = ["free"]
        if np.isfinite(lower[i]):
            opts.append("lo")
        if np.isfinite(upper[i]) and upper[i] != lower[i]:
            opts.append("hi")
        options.append(opts)

    best = None
    best_obj = np.inf
    for pattern in itertools.product(*options):
        free = [i for i in range(d) if pattern[i] == "free"]
        x = np.zeros(d)
        for i in range(d):
            if pattern[i] == "lo":
                x[i] = lower[i]
            elif pattern[i] == "hi":
                x[i] = upper[i]
        fixed = [i for i in range(d) if pattern[i] != "free"]
        nf = len(free)
        # unknowns (x_free, y); stationarity on free rows + equality rows
        K = np.zeros((nf + p, nf + p))
        rhs = np.zeros(nf + p)
        H_free = H[free]
        K[:nf, :nf] = H_free[:, free]
        if p:
            K[:nf, nf:] = Aeq[:, free].T
            K[nf:, :nf] = Aeq[:, free]
            rhs[nf:] = beq - (Aeq[:, fixed] @ x[fixed] if fixed else 0.0)
        rhs[:nf] = -(q[free] + (H_free[:, fixed] @ x[fixed] if fixed else 0.0))
        if nf + p:
            try:
                sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
            except np.linalg.LinAlgError:
                continue
            if np.linalg.norm(K @ sol - rhs, ord=np.inf) > tol:
                continue
        else:
            sol = np.zeros(0)
        x[free] = sol[:nf]
        y = sol[nf:]
        # primal feasibility
        if np.any(x < lower - tol) or np.any(x > upper + tol):
            continue
        if p and np.linalg.norm(Aeq @ x - beq, ord=np.inf) > tol:
            continue
        grad = H @ x + q + (Aeq.T @ y if p else 0.0)
        z = np.zeros(d)
        ok = True
        for i in range(d):
            if pattern[i] == "free":
                continue
            z[i] = -grad[i]
            if lower[i] == upper[i]:
                continue
            if pattern[i] == "lo" and z[i] > tol:
                ok = False
                break
            if pattern[i] == "hi" and z[i] < -tol:
                ok = False
                break
        if not ok:
            continue
        obj = 0.5 * x @ H @ x + q @ x
        if obj < best_obj - 1e-12:
            best_obj = obj
            best = (x.copy(), y.copy(), z.copy())
    return best
