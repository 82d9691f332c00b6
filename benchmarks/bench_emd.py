"""Time the exact EMD, whose cost is the HiGHS transportation solve.

Usage: python3 benchmarks/bench_emd.py [--sizes 8,16,24,32] [--repeats 3]

Two pairs per EMD resolution:

- dirichlet: two random dense distributions (every bin nonzero), so
  shared-mass cancelling leaves every cell a source or a sink;
- realistic: personalized ground truth from ``generate_psal`` (a smooth
  fixation map blended with two preferred boxes) against the detection
  baseline of the same image with its boxes shifted, the pair ``persal eval``
  scores. Both are 38x38 grids, downsampled to the resolution by ``emd``.

Each row gives the best of ``--repeats`` runs of ``emd`` on one fixed pair and
the size S x T of the residual transportation problem that was solved.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from persal import (
    AnnotatedImage,
    BaselineConfig,
    CategoryMapping,
    Detection,
    DetectionSet,
    GtWeights,
    PreferenceVector,
    SaliencyGrid,
    detection_baseline,
    emd,
    generate_psal,
    transport,
)

IMAGE = 380  # pixels; 10 per cell of the 38x38 ground-truth grid


def dirichlet_pair(size: int) -> tuple[SaliencyGrid, SaliencyGrid]:
    rng = np.random.default_rng(0)
    p, q = rng.dirichlet(np.ones(size * size), 2).reshape(2, size, size)
    return SaliencyGrid(p), SaliencyGrid(q)


def realistic_pair() -> tuple[SaliencyGrid, SaliencyGrid]:
    rng = np.random.default_rng(0)
    ys, xs = np.mgrid[0:38, 0:38]
    fix = sum(
        np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / (2.0 * s**2))
        for cy, cx, s in zip(rng.uniform(5, 33, 6), rng.uniform(5, 33, 6), rng.uniform(2, 6, 6))
    )
    mapping = CategoryMapping(super_names=("preferred", "other"), entries={0: 0, 1: 1})
    pvec = PreferenceVector(mapping.super_names, np.array([1.0, 0.3]))
    boxes = [(0, (40.0, 60.0, 150.0, 120.0)), (1, (200.0, 180.0, 120.0, 150.0))]
    gt = generate_psal(
        AnnotatedImage(SaliencyGrid(fix), DetectionSet(IMAGE, IMAGE, tuple(
            Detection(c, 1.0, box) for c, box in boxes)), mapping),
        pvec, GtWeights(0.06, 0.752, 0.188),
    )
    shifted = DetectionSet(IMAGE, IMAGE, tuple(
        Detection(c, score, (x + 30.0, y - 20.0, w, h))
        for (c, (x, y, w, h)), score in zip(boxes, (0.9, 0.7))
    ))
    pred = detection_baseline(shifted, mapping, pvec, BaselineConfig("detection"))
    return gt, pred


def bench_pair(p: SaliencyGrid, q: SaliencyGrid, size: int, repeats: int) -> tuple[float, str]:
    """Best wall time of ``emd`` and the S x T of the solve it made."""
    solve = transport.solve_transport
    shapes = []

    def recording(supply, demand, cost):
        shapes.append(cost.shape)
        return solve(supply, demand, cost)

    transport.solve_transport = recording  # metrics.emd looks this up per call
    try:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            emd(p, q, resolution=size)
            best = min(best, time.perf_counter() - t0)
    finally:
        transport.solve_transport = solve
    return best, "x".join(map(str, shapes[0])) if shapes else "-"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="8,16,24,32")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    transport.solve_transport(np.ones(1), np.ones(1), np.ones((1, 1)))  # import scipy untimed
    print(f"backend: {transport.BACKEND}")
    print(f"{'grid':>6} {'pair':>10} {'S x T':>9} {'seconds':>9}")
    realistic = realistic_pair()
    for size in (int(s) for s in args.sizes.split(",")):
        for name, (p, q) in (("dirichlet", dirichlet_pair(size)), ("realistic", realistic)):
            seconds, shape = bench_pair(p, q, size, args.repeats)
            print(f"{size:>3}x{size:<2} {name:>10} {shape:>9} {seconds:>9.4f}")


if __name__ == "__main__":
    main()
