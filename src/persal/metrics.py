"""Saliency evaluation suite: CC, SIM, KL-Judd, plain KLD, and linear EMD.

All logarithms are natural. CC uses population covariance / stddev; constant
grids make it undefined and are excluded from batch means with an exclusion
count rather than imputed. CC and SIM are one row kernel each (:func:`cc_rows`,
:func:`sim_rows`), shared by :func:`cc` / :func:`sim` and the ``tune`` sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import transport
from .errors import (
    NotNormalizedError,
    UndefinedRatioError,
    ZeroVarianceError,
)
from .grid import SaliencyGrid, require_same_shape

KLD_JUDD_EPS = 2.2204e-16
SUM_TOL = 1e-6
DEFAULT_EMD_RESOLUTION = 32
MASS_EPS = 1e-15


def cc_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pearson correlation of each row of the (K, n) ``a`` with the (n,) ``b``;
    NaN where the row or ``b`` is constant, which leaves CC undefined."""
    a = a - a.mean(axis=1, keepdims=True)
    b = b - b.mean()
    sa = np.sqrt((a * a).mean(axis=1))
    sb = np.sqrt((b * b).mean())
    out = np.full(len(a), np.nan)
    ok = (sa != 0.0) & (sb != 0.0)
    out[ok] = np.clip((a[ok] * b).mean(axis=1) / (sa[ok] * sb), -1.0, 1.0)
    return out


def sim_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of element-wise minima of each row of the (K, n) ``a`` with the (n,) ``b``."""
    return np.minimum(a, b).sum(axis=1)


def cc(p: SaliencyGrid, q: SaliencyGrid) -> float:
    """Pearson correlation coefficient between the two grids."""
    require_same_shape(p, q)
    value = float(cc_rows(p.values.reshape(1, -1), q.values.ravel())[0])
    if np.isnan(value):
        raise ZeroVarianceError("correlation undefined for a constant grid")
    return value


def _require_normalized(v: np.ndarray, name: str) -> None:
    s = float(v.sum())
    if abs(s - 1.0) > SUM_TOL:
        raise NotNormalizedError(f"{name} has pixel-sum {s}, expected 1")


def _require_distributions(p: SaliencyGrid, q: SaliencyGrid) -> None:
    require_same_shape(p, q)
    _require_normalized(p.values, "p")
    _require_normalized(q.values, "q")


def sim(p: SaliencyGrid, q: SaliencyGrid) -> float:
    """Histogram intersection of two distributions: sum of element-wise minima."""
    _require_distributions(p, q)
    return float(sim_rows(p.values.reshape(1, -1), q.values.ravel())[0])


def kld_judd(p: SaliencyGrid, q: SaliencyGrid) -> float:
    """Epsilon-regularized KL divergence, the saliency-benchmark variant."""
    _require_distributions(p, q)
    pv = p.values
    qv = q.values
    return float(np.sum(qv * np.log(KLD_JUDD_EPS + qv / (KLD_JUDD_EPS + pv))))


def kld_plain(p: SaliencyGrid, q: SaliencyGrid) -> float:
    """Plain KL divergence sum(p * log(p / q)); 0*log(0) taken as 0."""
    _require_distributions(p, q)
    pv = p.values.ravel()
    qv = q.values.ravel()
    support = pv > 0
    if np.any(qv[support] == 0):
        raise UndefinedRatioError("p has mass where q is zero")
    ps = pv[support]
    return float(np.sum(ps * np.log(ps / qv[support])))


@dataclass(frozen=True)
class FlowPlan:
    """Optimal transport plan: (from_bin, to_bin, mass) triples over row-major
    bins of the (possibly downsampled) grids, plus the achieved total cost."""

    flows: tuple[tuple[int, int, float], ...]
    total_cost: float
    grid_shape: tuple[int, int] = (0, 0)


@lru_cache(maxsize=16)
def _ground_distance(h: int, w: int, metric: str) -> np.ndarray:
    rows, cols = np.divmod(np.arange(h * w), w)
    dr = rows[:, None] - rows[None, :]
    dc = cols[:, None] - cols[None, :]
    if metric == "euclidean":
        d = np.hypot(dr, dc)
    elif metric == "manhattan":
        d = np.abs(dr) + np.abs(dc)
    else:
        raise ValueError(f"unknown ground distance {metric!r}")
    return d.astype(np.float64)


@lru_cache(maxsize=64)
def _axis_matrix(old: int, new: int) -> np.ndarray:
    """Read-only (new, old) weights: the share of old cell i that falls in new cell k."""
    scale = new / old
    m = np.zeros((new, old))
    for i in range(old):
        lo = i * scale
        hi = (i + 1) * scale
        k0 = int(np.floor(lo))
        k1 = min(new - 1, int(np.ceil(hi)) - 1)
        for k in range(k0, k1 + 1):
            m[k, i] = max(0.0, min(hi, k + 1) - max(lo, k)) / scale
    m.setflags(write=False)
    return m


def _mass_preserving_downsample(v: np.ndarray, new_h: int, new_w: int) -> np.ndarray:
    """Aggregate cell masses into a coarser grid by exact area overlap."""
    return _axis_matrix(v.shape[0], new_h) @ v @ _axis_matrix(v.shape[1], new_w).T


def emd(
    p: SaliencyGrid,
    q: SaliencyGrid,
    resolution: int = DEFAULT_EMD_RESOLUTION,
    distance: str = "euclidean",
) -> tuple[float, FlowPlan]:
    """Linear-variant earth mover's distance with an exact transport solver.

    Ground distance is measured between cell centers in cell units. Unequal
    masses incur the |sum p - sum q| * max distance penalty; grids larger than
    ``resolution`` are downsampled mass-preservingly first. When both grids
    carry no mass the distance is 0 by convention.
    """
    require_same_shape(p, q)
    pv = p.values
    qv = q.values
    h, w = pv.shape
    if h > resolution or w > resolution:
        new_h, new_w = min(h, resolution), min(w, resolution)
        pv = _mass_preserving_downsample(pv, new_h, new_w)
        qv = _mass_preserving_downsample(qv, new_h, new_w)
        h, w = new_h, new_w

    mp = float(pv.sum())
    mq = float(qv.sum())
    if mp <= MASS_EPS and mq <= MASS_EPS:
        return 0.0, FlowPlan((), 0.0, (h, w))

    dist = _ground_distance(h, w, distance)
    penalty = abs(mp - mq) * float(dist.max())

    # the ground distance is a metric, so an optimal plan exists that leaves
    # the shared mass min(p, q) in place; only the residuals need the solver
    common = np.minimum(pv, qv).ravel()
    rp = pv.ravel() - common
    rq = qv.ravel() - common

    src = np.flatnonzero(rp > 0)
    snk = np.flatnonzero(rq > 0)
    flows = [(int(i), int(i), float(m)) for i, m in zip(np.flatnonzero(common), common[common > 0])]
    move_cost = 0.0
    if len(src) and len(snk):
        supply = rp[src]
        demand = rq[snk]
        cost = dist[np.ix_(src, snk)]
        ms = float(supply.sum())
        md = float(demand.sum())
        # balance with a free dummy node absorbing the heavier side's excess
        if ms > md:
            demand = np.append(demand, ms - md)
            cost = np.hstack([cost, np.zeros((len(src), 1))])
        elif md > ms:
            supply = np.append(supply, md - ms)
            cost = np.vstack([cost, np.zeros((1, len(snk)))])
        flow = transport.solve_transport(supply, demand, cost)
        real = flow[: len(src), : len(snk)]
        move_cost = float((real * cost[: len(src), : len(snk)]).sum())
        fi, fj = np.nonzero(real)
        flows += [(int(src[i]), int(snk[j]), float(real[i, j])) for i, j in zip(fi, fj)]

    total = move_cost + penalty
    return total, FlowPlan(tuple(flows), total, (h, w))


@dataclass(frozen=True)
class PairResult:
    image_id: str
    cc: float | None = None
    sim: float | None = None
    kld_judd: float | None = None
    kld_plain: float | None = None
    emd: float | None = None
    error: str | None = None


@dataclass(frozen=True)
class MetricReport:
    records: tuple[PairResult, ...]
    means: dict[str, float]
    cc_excluded: int
    failures: int
    config: dict


def evaluate_pair(
    p: SaliencyGrid,
    q: SaliencyGrid,
    image_id: str = "",
    emd_resolution: int = DEFAULT_EMD_RESOLUTION,
    distance: str = "euclidean",
) -> PairResult:
    require_same_shape(p, q)
    try:
        cc_val = cc(p, q)
    except ZeroVarianceError:
        cc_val = None
    emd_val, _ = emd(p, q, resolution=emd_resolution, distance=distance)
    return PairResult(
        image_id=image_id,
        cc=cc_val,
        sim=sim(p, q),
        kld_judd=kld_judd(p, q),
        kld_plain=kld_plain(p, q),
        emd=emd_val,
    )


def summarize(records: list[PairResult], config: dict) -> MetricReport:
    """Arithmetic means over the records that scored.

    Failure records are counted in ``failures``; pairs with undefined CC
    contribute to the other means and are counted in ``cc_excluded``.
    """
    ok = [r for r in records if r.error is None]
    cc_vals = [r.cc for r in ok if r.cc is not None]
    means = {"cc": float(np.mean(cc_vals)) if cc_vals else float("nan")}
    for name in ("sim", "kld_judd", "kld_plain", "emd"):
        means[name] = float(np.mean([getattr(r, name) for r in ok])) if ok else float("nan")
    return MetricReport(
        records=tuple(records),
        means=means,
        cc_excluded=len(ok) - len(cc_vals),
        failures=len(records) - len(ok),
        config=config,
    )
