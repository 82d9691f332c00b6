"""Personalized ground-truth synthesis and center-prior construction.

The blend runs on a min-max-normalized fixation map so the three weights act
on a known [0, 1] scale regardless of how the source annotations were stored.
:func:`blend` is the one definition of it: ``gen-gt`` applies it to one
weight triple per image, the ``tune`` sweep to all its candidates at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gridio, preference
from .errors import DimMismatchError, EmptyListError
from .grid import SaliencyGrid, bilinear, minmax_rows, softmax_rows
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
        if not all(map(math.isfinite, self.as_tuple())):
            raise ValueError(f"weights must be finite, got {self.as_tuple()!r}")
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
) -> np.ndarray:
    """Preference map, a (grid_h, grid_w) array: each cell takes the max preference
    weight among the ground-truth objects covering it; uncovered cells are 0."""
    dets = img.boxes.detections
    weights = [float(pvec.weights[img.mapping.super_index(d.category_id)]) for d in dets]
    return paint_max((d.box for d in dets), weights,
                     img.boxes.image_w, img.boxes.image_h, grid_h, grid_w)


def blend_inputs(
    img: AnnotatedImage,
    pvec: PreferenceVector,
    grid_h: int = GRID_SIZE,
    grid_w: int = GRID_SIZE,
) -> tuple[np.ndarray, np.ndarray]:
    """The image's blend inputs at ``grid_h`` x ``grid_w``, flattened row-major:
    SAL, the fixation map resampled and min-max normalized, and the preference
    map. They depend on the image alone, not on the blend weights."""
    sal = minmax_rows(bilinear(img.sal.values, grid_h, grid_w).reshape(1, -1))[0]
    return sal, pmap(img, pvec, grid_h, grid_w).ravel()


def blend(sal: np.ndarray, pm: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """softmax(minmax(alpha*SAL + beta*SAL.pMap + gamma*pMap)) for every row
    (alpha, beta, gamma) of the (K, 3) ``weights``, on the flattened inputs of
    :func:`blend_inputs`; row k of the (K, h*w) result is candidate k's
    distribution."""
    alpha, beta, gamma = weights.T[:, :, None]
    return softmax_rows(minmax_rows(alpha * sal + beta * sal * pm + gamma * pm))


def generate_psal(
    img: AnnotatedImage,
    pvec: PreferenceVector,
    w: GtWeights,
    grid_h: int = GRID_SIZE,
    grid_w: int = GRID_SIZE,
) -> SaliencyGrid:
    """Blend fixations with the preference map and normalize to a distribution
    (:func:`blend` with one weight triple)."""
    sal, pm = blend_inputs(img, pvec, grid_h, grid_w)
    out = blend(sal, pm, np.array([w.as_tuple()]))
    return SaliencyGrid(out.reshape(grid_h, grid_w))


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
    return SaliencyGrid(minmax_rows(total.reshape(1, -1)).reshape(shape))
