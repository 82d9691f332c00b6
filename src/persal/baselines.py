"""Comparison baselines: center prior and the preference-weighted detection map.

The detection baseline falls back to a seeded pseudorandom grid when nothing
clears the confidence threshold (or when the weighted map carries no mass),
so every image still yields a usable distribution. PCG64 keeps the fallback
reproducible across platforms for a recorded seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroMassError
from .grid import SaliencyGrid
from .preference import CategoryMapping, DetectionSet, PreferenceVector
from .raster import GRID_SIZE, paint_max


@dataclass(frozen=True)
class BaselineConfig:
    kind: str  # "center_prior" | "detection"
    seed: int = 0
    confidence_threshold: float = 0.5

    def __post_init__(self):
        if self.kind not in ("center_prior", "detection"):
            raise ValueError(f"unknown baseline kind {self.kind!r}")
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ValueError("confidence_threshold must be in [0, 1]")


def center_prior_baseline(prior: SaliencyGrid) -> SaliencyGrid:
    """Re-normalize the dataset center prior to pixel-sum 1 (plain division)."""
    s = float(prior.values.sum())
    if s <= 0:
        raise ZeroMassError("center prior has zero mass")
    return SaliencyGrid(prior.values / s)


def random_fallback_grid(seed: int, grid_h: int, grid_w: int) -> SaliencyGrid:
    """Seeded i.i.d. uniform(0,1) grid normalized to pixel-sum 1."""
    rng = np.random.Generator(np.random.PCG64(seed))
    v = rng.random((grid_h, grid_w))
    return SaliencyGrid(v / v.sum())


def detection_baseline(
    dets: DetectionSet,
    mapping: CategoryMapping,
    pvec: PreferenceVector,
    cfg: BaselineConfig,
    grid_h: int = GRID_SIZE,
    grid_w: int = GRID_SIZE,
) -> SaliencyGrid:
    """Highlight detections with confidence x preference, normalized to sum 1."""
    if cfg.kind != "detection":
        raise ValueError("detection_baseline requires a detection-kind config")
    kept = [d for d in dets.detections if d.score >= cfg.confidence_threshold]
    if not kept:
        return random_fallback_grid(cfg.seed, grid_h, grid_w)
    values = [d.score * float(pvec.weights[mapping.super_index(d.category_id)]) for d in kept]
    out = paint_max((d.box for d in kept), values, dets.image_w, dets.image_h, grid_h, grid_w)
    mass = out.sum()
    if mass <= 0:  # all kept detections carry zero weight; same story as no detections
        return random_fallback_grid(cfg.seed, grid_h, grid_w)
    return SaliencyGrid(out / mass)
