"""Exact transportation-problem solver.

The balanced S x T transportation problem is solved as a sparse linear
program by the HiGHS interior-point method (``scipy.optimize.linprog`` with
``method="highs-ipm"``). Crossover ends every solve at a vertex of the
transportation polytope, so the plan has at most S+T-1 positive entries and is
exactly optimal, not approximate.

HiGHS measures feasibility with absolute tolerances (1e-7). When the residual
mass is small (near-identical maps leave ~1e-3 spread over many cells) that
lets the marginals drift by ~1e-7, or the problem be declared infeasible.
Supply and demand are therefore scaled to O(1) mass per node before the
solve and the plan is scaled back afterwards.
"""

from __future__ import annotations

import numpy as np

BACKEND = "highs"


def solve_transport(supply: np.ndarray, demand: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Minimize sum(F * cost) with row sums == supply and column sums == demand.

    Requires sum(supply) == sum(demand) (the caller balances with a dummy
    node). Returns the dense flow matrix F with shape cost.shape.
    """
    supply = np.asarray(supply, dtype=np.float64)
    demand = np.asarray(demand, dtype=np.float64)
    cost = np.asarray(cost, dtype=np.float64)
    S, T = cost.shape
    if supply.shape != (S,) or demand.shape != (T,):
        raise ValueError("supply/demand shapes do not match the cost matrix")
    total = float(supply.sum())
    if abs(total - demand.sum()) > 1e-6 * max(1.0, total):
        raise ValueError("transportation problem must be balanced")
    if total <= 0.0:
        return np.zeros((S, T))

    # scipy.optimize takes about 0.5 s to import; only eval ever needs it
    from scipy import sparse
    from scipy.optimize import linprog

    # Variable i*T + j is the flow from source i to sink j. Its two unit
    # entries sit in row i (supply of i) and row S + j (demand of j). The last
    # demand row is implied by the others on a balanced problem; leaving it
    # out keeps the matrix full rank, which makes the IPM and its crossover
    # markedly faster on the larger problems.
    k = np.arange(S * T)
    rows = np.concatenate([k // T, S + k % T])
    cols = np.concatenate([k, k])
    keep = rows < S + T - 1
    a_eq = sparse.csr_array(
        (np.ones(int(keep.sum())), (rows[keep], cols[keep])), shape=(S + T - 1, S * T)
    )
    scale = (S + T) / total
    b_eq = np.concatenate([supply, demand[:-1]]) * scale

    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs-ipm")
    if res.status == 2:
        # presolve can call a feasible problem infeasible when a node's mass
        # is below HiGHS's tolerances (e.g. a 5e-10 source next to a dummy
        # sink of rounding-level mass); the unreduced problem solves
        res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs-ipm",
                      options={"presolve": False})
    if res.status != 0:
        raise RuntimeError(f"transportation solve failed: {res.message}")
    return res.x.reshape(S, T) / scale
