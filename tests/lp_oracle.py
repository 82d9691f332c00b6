"""Brute-force linear-programming oracle for the earth mover's distance.

The EMD is written out verbatim as one dense LP over all n^2 flows with its
four constraints as explicit matrices, independent of ``metrics.emd``'s
shared-mass cancelling, dummy node and plan extraction. It runs on scipy's
HiGHS, as ``persal.transport`` does, so it does not check the LP engine
itself: ``ssp_oracle`` is the solver-independent check. Slow but
trustworthy; used to pin the expected costs the fast path must reproduce.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog


def ground_distance(h: int, w: int, metric: str = "euclidean") -> np.ndarray:
    """Pairwise distance between cell centers of an h x w grid, in cell units."""
    rows, cols = np.divmod(np.arange(h * w), w)
    dr = rows[:, None] - rows[None, :]
    dc = cols[:, None] - cols[None, :]
    if metric == "euclidean":
        return np.hypot(dr, dc).astype(np.float64)
    if metric == "manhattan":
        return (np.abs(dr) + np.abs(dc)).astype(np.float64)
    raise ValueError(metric)


def emd_oracle(p: np.ndarray, q: np.ndarray, distance: str = "euclidean") -> float:
    """Linear-variant EMD by direct LP over all n^2 flow variables.

    minimize sum f_ij d_ij + |sum p - sum q| * max d, subject to
    (1) f >= 0, (2) row sums <= p, (3) column sums <= q,
    (4) total flow = min(sum p, sum q).
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError("shape mismatch")
    h, w = p.shape
    n = h * w
    pv, qv = p.ravel(), q.ravel()
    mp, mq = float(pv.sum()), float(qv.sum())
    D = ground_distance(h, w, distance)
    if mp == 0.0 and mq == 0.0:
        return 0.0

    A_ub = np.zeros((2 * n, n * n))
    for i in range(n):
        A_ub[i, i * n : (i + 1) * n] = 1.0  # (2) row sums <= p_i
    for j in range(n):
        A_ub[n + j, j::n] = 1.0  # (3) column sums <= q_j
    A_eq = np.ones((1, n * n))  # (4) total shipped mass
    res = linprog(
        D.ravel(),
        A_ub=A_ub,
        b_ub=np.concatenate([pv, qv]),
        A_eq=A_eq,
        b_eq=[min(mp, mq)],
        bounds=(0, None),  # (1)
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"LP oracle failed: {res.message}")
    return float(res.fun) + abs(mp - mq) * float(D.max())
