"""Brute-force reference solver for small box/equality QPs.

Enumerates every pattern assigning each variable to {free, at lower, at
upper} (skipping infinite bounds), solves the resulting linear KKT
system, and keeps the feasible stationary point with correct dual signs.
It shares no code with pgcon: the tests judge the bounded least-squares
kernel pgcon.qp by it, and the tangential dual solve by its answer on the
split QP of small subproblems.  A bounded least-squares problem
0.5||c0 + G x||^2 enters in normal-equations form, H = G'G and q = G'c0.

Each pattern costs one ``lstsq``; everything else is done per free set or
over all patterns at once.
"""

import itertools

import numpy as np


def enumerate_qp(H, q, Aeq, beq, lower, upper, tol=1e-9):
    """Return (x, y, z) for the best KKT point found, or None."""
    H = np.asarray(H, dtype=float)
    q = np.asarray(q, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    d = q.shape[0]
    Aeq = np.zeros((0, d)) if Aeq is None else np.asarray(Aeq, dtype=float)
    beq = np.zeros(0) if beq is None else np.asarray(beq, dtype=float)
    p = Aeq.shape[0]

    # one row per pattern, in itertools.product order: 0 free, 1 at the
    # lower bound, 2 at the upper bound
    options = [[0] + [1] * bool(np.isfinite(lo)) + [2] * bool(np.isfinite(hi) and hi != lo)
               for lo, hi in zip(lower, upper)]
    codes = np.array(list(itertools.product(*options)), dtype=np.int8).reshape(-1, d)
    X = np.where(codes == 1, lower, np.where(codes == 2, upper, 0.0))
    Y = np.zeros((len(codes), p))
    solved = np.zeros(len(codes), dtype=bool)

    keys = (codes == 0) @ (1 << np.arange(d))
    for key in np.unique(keys):
        rows = np.flatnonzero(keys == key)
        free = np.flatnonzero(codes[rows[0]] == 0)
        fixed = np.flatnonzero(codes[rows[0]])
        nf = free.size
        if not nf + p:
            # every variable at a bound and no equality rows: nothing to solve
            solved[rows] = True
            continue
        # unknowns (x_free, y); stationarity on free rows + equality rows
        K = np.zeros((nf + p, nf + p))
        H_free = H[free]
        K[:nf, :nf] = H_free[:, free]
        K[:nf, nf:] = Aeq[:, free].T
        K[nf:, :nf] = Aeq[:, free]
        H_fixed, A_fixed, q_free = H_free[:, fixed], Aeq[:, fixed], q[free]
        solved_rows, sols = [], []
        for k in rows:
            x_fixed = X[k, fixed]
            rhs = -(q_free + H_fixed @ x_fixed)
            if p:
                rhs = np.concatenate((rhs, beq - A_fixed @ x_fixed))
            try:
                sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
            except np.linalg.LinAlgError:
                continue
            if np.abs(K @ sol - rhs).max() > tol:
                continue
            solved_rows.append(k)
            sols.append(sol)
        if sols:
            sols = np.array(sols)
            solved[solved_rows] = True
            X[np.ix_(solved_rows, free)] = sols[:, :nf]
            Y[solved_rows] = sols[:, nf:]

    # screen all patterns at twice the tolerance: the batched products
    # differ from the per-pattern ones by rounding only, so every pattern
    # the exact test below keeps passes
    keep = (solved & ~np.any(X < lower - tol, axis=1)
            & ~np.any(X > upper + tol, axis=1)
            & ~(np.abs(X @ Aeq.T - beq).max(axis=1, initial=0.0) > 2 * tol))
    Z = -(X @ H.T + q + Y @ Aeq)
    signed = lower != upper
    keep &= ~np.any(signed & ((codes == 1) & (Z > 2 * tol) | (codes == 2) & (Z < -2 * tol)),
                    axis=1)

    best = None
    best_obj = np.inf
    for k in np.flatnonzero(keep):
        x, y = X[k], Y[k]
        if p and np.linalg.norm(Aeq @ x - beq, ord=np.inf) > tol:
            continue
        grad = H @ x + q + (Aeq.T @ y if p else 0.0)
        z = np.where(codes[k] == 0, 0.0, -grad)
        if np.any(signed & ((codes[k] == 1) & (z > tol) | (codes[k] == 2) & (z < -tol))):
            continue
        obj = 0.5 * x @ H @ x + q @ x
        if obj < best_obj - 1e-12:
            best_obj = obj
            best = (x.copy(), y.copy(), z)
    return best
