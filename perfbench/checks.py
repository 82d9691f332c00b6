"""Output checks for the benchmark: an independent NumPy/SciPy model of each
CLI output, sharing no code with ``persal`` or its tests.

Every check returns a list of problems (empty when the output is correct), so
one run can report all of them before it fails.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from math import ceil, floor
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from corpus import GRID, THRESHOLD, read_fgrd

KLD_EPS = 2.2204e-16  # the saliency-benchmark KL-Judd regularizer
METRIC_RTOL = 1e-9  # CC, SIM and KL recomputed from the same float64 inputs
EMD_RTOL = 1e-7  # exact EMD against an LP solved to HiGHS's default tolerances
GRID_RTOL = 1e-6  # grids written as float32
METRIC_COLUMNS = ("cc", "sim", "kld_judd", "kld_plain", "emd")


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=rtol * 1e-3)


def sample_names(names: list[str], k: int) -> list[str]:
    """A fixed sample chosen by name: the k names with the smallest SHA-256."""
    return sorted(names, key=lambda n: hashlib.sha256(n.encode()).hexdigest())[:k]


# --- metrics ------------------------------------------------------------------


def metric_values(p: np.ndarray, q: np.ndarray) -> dict[str, float]:
    a, b = p.ravel() - p.mean(), q.ravel() - q.mean()
    support = p > 0
    return {
        "cc": float(np.dot(a, b) / math.sqrt(np.dot(a, a) * np.dot(b, b))),
        "sim": float(np.minimum(p, q).sum()),
        "kld_judd": float(np.sum(q * np.log(KLD_EPS + q / (KLD_EPS + p)))),
        "kld_plain": float(np.sum(p[support] * np.log(p[support] / q[support]))),
    }


def _area_weights(old: int, new: int) -> np.ndarray:
    """share of old cell i that falls into new cell k, as a (new, old) matrix"""
    edges_old = np.arange(old + 1) * (new / old)
    lo = np.maximum(edges_old[None, :-1], np.arange(new)[:, None])
    hi = np.minimum(edges_old[None, 1:], np.arange(1, new + 1)[:, None])
    return np.clip(hi - lo, 0.0, None) * (old / new)


def emd_lp(p: np.ndarray, q: np.ndarray, resolution: int) -> float:
    """Linear EMD as one LP over every cell pair, after area downsampling.

    minimize sum f_ij d_ij + |sum p - sum q| * max d  subject to  f >= 0,
    row sums <= p, column sums <= q, total flow = min(sum p, sum q).
    """
    h, w = p.shape
    nh, nw = min(h, resolution), min(w, resolution)
    if (nh, nw) != (h, w):
        p = _area_weights(h, nh) @ p @ _area_weights(w, nw).T
        q = _area_weights(h, nh) @ q @ _area_weights(w, nw).T
    p, q = p.ravel(), q.ravel()
    n = p.size
    yx = np.stack(np.divmod(np.arange(n), nw), axis=1).astype(np.float64)
    d = np.sqrt(((yx[:, None, :] - yx[None, :, :]) ** 2).sum(axis=2))
    rows = sparse.kron(sparse.eye(n), np.ones((1, n)))
    cols = sparse.kron(np.ones((1, n)), sparse.eye(n))
    res = linprog(
        d.ravel(),
        A_ub=sparse.vstack([rows, cols]).tocsr(),
        b_ub=np.concatenate([p, q]),
        A_eq=np.ones((1, n * n)),
        b_eq=[min(p.sum(), q.sum())],
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"EMD LP failed: {res.message}")
    return float(res.fun) + abs(p.sum() - q.sum()) * float(d.max())


def check_eval_report(report: Path, pred: Path, gt: Path, emd_res: int,
                      emd_sample: int) -> list[str]:
    """per_image.csv against recomputed metrics, a sample of EMDs against the
    LP, and aggregate.json against the column means of per_image.csv."""
    problems = []
    with open(report / "per_image.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    expected = sorted(p.name for p in pred.glob("*.fgrd"))
    if [r["id"] + ".fgrd" for r in rows] != expected:
        problems.append("per_image.csv does not list exactly the scored images")
    emd_ids = set(sample_names([r["id"] for r in rows], emd_sample))
    for r in rows:
        if r["flags"] not in ("", "cc_undefined"):
            problems.append(f"{r['id']}: failure record {r['flags']!r}")
            continue
        p, q = read_fgrd(pred / f"{r['id']}.fgrd"), read_fgrd(gt / f"{r['id']}.fgrd")
        for name, value in metric_values(p, q).items():
            if r[name] == "" and name == "cc" and r["flags"] == "cc_undefined":
                continue
            if not _close(float(r[name]), value, METRIC_RTOL):
                problems.append(f"{r['id']}: {name} {r[name]} != recomputed {value!r}")
        if r["id"] in emd_ids:
            value = emd_lp(p, q, emd_res)
            if not _close(float(r["emd"]), value, EMD_RTOL):
                problems.append(f"{r['id']}: emd {r['emd']} != LP {value!r}")
    agg = json.loads((report / "aggregate.json").read_text())
    for name in METRIC_COLUMNS:
        col = [float(r[name]) for r in rows if r[name] != ""]
        mean = float(np.mean(col)) if col else float("nan")
        if not _close(agg["means"][name], mean, 1e-12):
            problems.append(f"aggregate mean {name} {agg['means'][name]!r} != column mean {mean!r}")
    if agg["counts"]["images"] != len(rows) or agg["counts"]["failures"] != 0:
        problems.append(f"aggregate counts {agg['counts']} for {len(rows)} rows")
    return problems


# --- preference vector, ground truth, prior, baselines ---------------------------


def load_mapping(path: Path) -> tuple[list[str], dict[int, int]]:
    doc = json.loads(path.read_text())
    return doc["super_categories"], {int(k): int(v) for k, v in doc["map"].items()}


def pvec_from_history(history: list[dict], mapping: dict[int, int], n_super: int,
                      now: float, window_days: int = 90) -> np.ndarray:
    sums = np.zeros(n_super)
    for rec in history:
        if now - window_days * 86400.0 <= rec["timestamp"] <= now:
            for d in rec["detections"]:
                sums[mapping[d["category_id"]]] += d["score"]
    return sums / sums.max()


def _paint(boxes: list[tuple[list[float], float]], size: int, image: int) -> np.ndarray:
    """Max-paint each box value over the cells its clamped pixel box touches."""
    out = np.zeros((size, size))
    scale = size / image
    for (x, y, w, h), value in boxes:
        x0, y0 = min(max(x, 0.0), image), min(max(y, 0.0), image)
        x1, y1 = min(max(x + w, 0.0), image), min(max(y + h, 0.0), image)
        if x1 <= x0 or y1 <= y0:
            continue
        r0, r1 = floor(y0 * scale), min(size, ceil(y1 * scale))
        c0, c1 = floor(x0 * scale), min(size, ceil(x1 * scale))
        out[r0:r1, c0:c1] = np.maximum(out[r0:r1, c0:c1], value)
    return out


def _minmax(v: np.ndarray) -> np.ndarray:
    return (v - v.min()) / (v.max() - v.min())


def ground_truth(fix: np.ndarray, rec: dict, pvec: np.ndarray, mapping: dict[int, int],
                 weights: tuple[float, float, float]) -> np.ndarray:
    """softmax(minmax(a*SAL + b*SAL*PMAP + c*PMAP)) with SAL = minmax(fixations)."""
    a, b, c = weights
    sal = _minmax(fix)
    pm = _paint([(d["bbox"], pvec[mapping[d["category_id"]]]) for d in rec["detections"]],
                GRID, rec["width"])
    e = np.exp(_minmax(a * sal + b * sal * pm + c * pm) - 1.0)
    return e / e.sum()


def detection_baseline(rec: dict, pvec: np.ndarray, mapping: dict[int, int],
                       seed: int = 0) -> np.ndarray:
    """Confidence x preference boxes, or the seeded PCG64 uniform fallback."""
    kept = [(d["bbox"], d["score"] * pvec[mapping[d["category_id"]]])
            for d in rec["detections"] if d["score"] >= THRESHOLD]
    out = _paint(kept, GRID, rec["width"])
    if out.sum() <= 0:
        v = np.random.Generator(np.random.PCG64(seed)).random((GRID, GRID))
        return v / v.sum()
    return out / out.sum()


def grids_match(path: Path, expected: np.ndarray) -> bool:
    got = read_fgrd(path)
    return got.shape == expected.shape and np.allclose(got, expected, rtol=GRID_RTOL, atol=0)


def check_grids(out_dir: Path, expected: dict[str, np.ndarray], what: str) -> list[str]:
    names = sorted(p.stem for p in out_dir.glob("*.fgrd"))
    problems = [] if set(expected) <= set(names) else [f"{what}: missing grids"]
    return problems + [f"{what}: {n}.fgrd differs from the recomputed grid"
                       for n in sorted(expected)
                       if n in names and not grids_match(out_dir / f"{n}.fgrd", expected[n])]


# --- tune ------------------------------------------------------------------------


def check_sweep(sweep_csv: Path, n_rows: int, recompute: dict[tuple[float, float, float],
                tuple[float, float]]) -> list[str]:
    """Row count, no failed candidate, objective = mean CC + mean SIM, and the
    recomputed mean CC and SIM of the candidates in ``recompute``."""
    with open(sweep_csv, newline="") as f:
        rows = list(csv.DictReader(f))
    problems = [] if len(rows) == n_rows else [f"sweep.csv has {len(rows)} rows, not {n_rows}"]
    for r in rows:
        weights = (float(r["alpha"]), float(r["beta"]), float(r["gamma"]))
        if r["failed"] != "0":
            problems.append(f"sweep candidate {weights} failed")
            continue
        cc, sim, obj = float(r["mean_cc"]), float(r["mean_sim"]), float(r["objective"])
        if not _close(obj, cc + sim, 1e-12):
            problems.append(f"sweep candidate {weights}: objective {obj} != cc + sim")
        if weights in recompute:
            want_cc, want_sim = recompute[weights]
            if not (_close(cc, want_cc, METRIC_RTOL) and _close(sim, want_sim, METRIC_RTOL)):
                problems.append(f"sweep candidate {weights}: ({cc}, {sim}) != "
                                f"recomputed ({want_cc}, {want_sim})")
    return problems
