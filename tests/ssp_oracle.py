"""Independent exact oracle for the transportation problem.

Primal-dual successive shortest paths in pure NumPy. It shares neither code
nor algorithm with :mod:`persal.transport`, which solves the same problem as a
linear program with HiGHS, so the two agreeing is evidence of correctness.
Each phase runs one Dijkstra with node potentials over the bipartite residual
graph, updates the potentials, then pushes as much flow as possible through
the zero-reduced-cost (admissible) subgraph by repeated DFS augmentation.
Flow only ever travels on admissible arcs, so the final plan is exactly
optimal, not approximate. Slow (about 0.65 s for a 12x12 EMD pair).
"""

from __future__ import annotations

import numpy as np

EPS = 1e-12
RC_TOL = 1e-10  # fp slack when testing reduced costs for admissibility


def ssp_transport(supply: np.ndarray, demand: np.ndarray, cost: np.ndarray) -> np.ndarray:
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
    if abs(supply.sum() - demand.sum()) > 1e-6 * max(1.0, supply.sum()):
        raise ValueError("transportation problem must be balanced")

    st = _State(supply.copy(), demand.copy(), np.zeros((S, T)), np.zeros(S), np.zeros(T))
    max_phases = 100 * (S + T) + 1000
    for _ in range(max_phases):
        if float(st.rem_s.sum()) <= EPS:
            return st.flow
        if not _phase(cost, st):
            raise RuntimeError("transportation network disconnected")
    if float(st.rem_s.sum()) <= EPS:
        return st.flow
    raise RuntimeError("transportation solver failed to converge")


class _State:
    def __init__(self, rem_s, rem_d, flow, pot_s, pot_t):
        self.rem_s = rem_s
        self.rem_d = rem_d
        self.flow = flow
        self.pot_s = pot_s
        self.pot_t = pot_t


def _phase(cost, st) -> bool:
    """One Dijkstra, a potential update, then a saturating flow push.

    Returns False when no demand sink is reachable from the remaining supply.
    """
    S, T = cost.shape
    dist_s = np.where(st.rem_s > EPS, 0.0, np.inf)
    dist_t = np.full(T, np.inf)
    done_s = np.zeros(S, dtype=bool)
    done_t = np.zeros(T, dtype=bool)
    max_target_dist = -np.inf

    while True:
        ds = np.where(done_s, np.inf, dist_s)
        dt = np.where(done_t, np.inf, dist_t)
        i = int(ds.argmin())
        j = int(dt.argmin())
        if not np.isfinite(ds[i]) and not np.isfinite(dt[j]):
            break  # everything reachable is finalized
        if dt[j] <= ds[i]:
            done_t[j] = True
            if st.rem_d[j] > EPS and dt[j] > max_target_dist:
                max_target_dist = dt[j]
            # relax reverse edges (sink j -> sources with flow)
            nd = np.maximum(dt[j] + st.pot_t[j] - cost[:, j] - st.pot_s, dt[j])
            upd = (st.flow[:, j] > EPS) & ~done_s & (nd < dist_s)
            dist_s[upd] = nd[upd]
        else:
            done_s[i] = True
            # relax forward edges (source i -> every sink)
            nd = np.maximum(ds[i] + st.pot_s[i] + cost[i, :] - st.pot_t, ds[i])
            upd = ~done_t & (nd < dist_t)
            dist_t[upd] = nd[upd]

    if not np.isfinite(max_target_dist):
        return False

    st.pot_s += np.minimum(dist_s, max_target_dist)
    st.pot_t += np.minimum(dist_t, max_target_dist)

    # arcs whose reduced cost dropped to zero; fixed for the whole phase
    admissible = cost + st.pot_s[:, None] - st.pot_t[None, :] <= RC_TOL
    while _augment_once(admissible, st):
        pass
    return True


def _augment_once(admissible, st) -> bool:
    """DFS one augmenting path through the admissible subgraph and push its
    bottleneck. Reverse arcs (sink -> source) exist wherever flow is positive;
    flow-carrying arcs always have zero reduced cost."""
    S, T = admissible.shape
    visited_s = np.zeros(S, dtype=bool)
    visited_t = np.zeros(T, dtype=bool)

    for root in np.flatnonzero(st.rem_s > EPS):
        visited_s[root] = True
        path = [int(root)]  # alternating source, sink, source, ...
        while path:
            if len(path) % 2 == 1:  # top is a source
                i = path[-1]
                open_t = admissible[i] & ~visited_t
                # prefer finishing at a demanding sink over wandering through
                # reverse arcs; long detours fragment the flow
                js = np.flatnonzero(open_t & (st.rem_d > EPS))
                if len(js):
                    path.append(int(js[0]))
                    _apply(path, st)
                    return True
                js = np.flatnonzero(open_t)
                if len(js) == 0:
                    path.pop()  # retreat; the sink below resumes its own scan
                    continue
                j = int(js[0])
                visited_t[j] = True
                path.append(j)
            else:  # top is a sink; continue through a reverse arc
                j = path[-1]
                is_ = np.flatnonzero((st.flow[:, j] > EPS) & ~visited_s)
                if len(is_) == 0:
                    path.pop()
                    continue
                i = int(is_[0])
                visited_s[i] = True
                path.append(i)
    return False


def _apply(path, st) -> None:
    root, target = path[0], path[-1]
    forward = [(path[k], path[k + 1]) for k in range(0, len(path) - 1, 2)]
    backward = [(path[k + 1], path[k]) for k in range(1, len(path) - 1, 2)]
    delta = min(st.rem_s[root], st.rem_d[target])
    for i, j in backward:
        delta = min(delta, st.flow[i, j])
    for i, j in forward:
        st.flow[i, j] += delta
    for i, j in backward:
        st.flow[i, j] -= delta
    st.rem_s[root] -= delta
    st.rem_d[target] -= delta
