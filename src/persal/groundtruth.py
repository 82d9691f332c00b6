"""Personalized ground-truth synthesis and center-prior construction.

The blend runs on a min-max-normalized fixation map so the three weights act
on a known [0, 1] scale regardless of how the source annotations were stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gridio, preference
from .errors import DimMismatchError, EmptyListError
from .grid import SaliencyGrid, minmax_normalize, resample, softmax_normalize
from .preference import CategoryMapping, DetectionSet, PreferenceVector
from .raster import GRID_SIZE, paint_max

WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class GtWeights:
    """Blend weights for fixation map, product term, and preference map."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ValueError("weights must be nonnegative")
        if abs(self.alpha + self.beta + self.gamma - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1, got {self.alpha + self.beta + self.gamma!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.alpha, self.beta, self.gamma)


@dataclass(frozen=True)
class AnnotatedImage:
    """Fixation map plus ground-truth object boxes (annotation confidence 1)."""

    sal: SaliencyGrid
    boxes: DetectionSet
    mapping: CategoryMapping
    image_id: str = ""


def pmap(
    img: AnnotatedImage,
    pvec: PreferenceVector,
    grid_h: int = GRID_SIZE,
    grid_w: int = GRID_SIZE,
) -> SaliencyGrid:
    """Preference map: each cell takes the max preference weight among the
    ground-truth objects covering it; uncovered cells are 0."""
    dets = img.boxes.detections
    weights = [float(pvec.weights[img.mapping.super_index(d.category_id)]) for d in dets]
    return SaliencyGrid(paint_max((d.box for d in dets), weights,
                                  img.boxes.image_w, img.boxes.image_h, grid_h, grid_w))


def generate_psal(
    img: AnnotatedImage,
    pvec: PreferenceVector,
    w: GtWeights,
    grid_h: int = GRID_SIZE,
    grid_w: int = GRID_SIZE,
) -> SaliencyGrid:
    """Blend fixations with the preference map and normalize to a distribution.

    output = softmax(minmax(alpha*SAL + beta*SAL.pMap + gamma*pMap)) with SAL
    itself min-max normalized first.
    """
    sal = minmax_normalize(resample(img.sal, grid_h, grid_w)).values
    pm = pmap(img, pvec, grid_h, grid_w).values
    blend = w.alpha * sal + w.beta * sal * pm + w.gamma * pm
    return softmax_normalize(minmax_normalize(SaliencyGrid(blend)))


def load_annotation_manifest(path: str | Path,
                             mapping: CategoryMapping) -> tuple[list[AnnotatedImage], list[Path]]:
    """Read an annotation manifest: detection-manifest records (score
    defaulting to 1) plus a ``fixation_grid`` FGRD path per image, resolved
    relative to the manifest. Returns the images and the fixation-grid paths."""
    base = Path(path).parent
    images, fixations = [], []
    for boxes, rec, where in preference.detection_records(path, default_score=1.0):
        fixations.append(base / preference.field(rec, "fixation_grid", where))
        images.append(AnnotatedImage(sal=gridio.read_grid(fixations[-1]), boxes=boxes,
                                     mapping=mapping, image_id=boxes.image_id))
    return images, fixations


def center_prior(sals: list[SaliencyGrid]) -> SaliencyGrid:
    """Sum fixation maps across a dataset and min-max normalize to [0, 1]."""
    if not sals:
        raise EmptyListError("center prior needs at least one saliency map")
    shape = sals[0].shape
    total = np.zeros(shape, dtype=np.float64)
    for s in sals:
        if s.shape != shape:
            raise DimMismatchError(f"saliency map shape {s.shape} != {shape}")
        total += s.values
    return minmax_normalize(SaliencyGrid(total))
