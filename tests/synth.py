"""Synthetic data builders shared by the tests.

Smoothed random fixation maps plus random box layouts stand in for the
fixation/detection corpora the original experiments used.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import gaussian_filter

from persal import AnnotatedImage, CategoryMapping, Detection, DetectionSet, SaliencyGrid

IMAGE_SIZE = 380  # pixels; 10 px per cell on the default 38x38 grid


def two_cat_mapping() -> CategoryMapping:
    """Two super categories: id 0 -> 'preferred', id 1 -> 'other'."""
    return CategoryMapping(super_names=("preferred", "other"), entries={0: 0, 1: 1})


def fixation_map(rng: np.random.Generator, h: int = 38, w: int = 38, sigma: float = 3.0) -> SaliencyGrid:
    """Smoothed random fixation map; generically non-constant."""
    return SaliencyGrid(gaussian_filter(rng.random((h, w)), sigma))


def gaussian_blob(h: int, w: int, cy: float, cx: float, sigma: float) -> SaliencyGrid:
    ys = np.arange(h)[:, None]
    xs = np.arange(w)[None, :]
    return SaliencyGrid(np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / (2.0 * sigma**2)))


def random_boxes(
    rng: np.random.Generator,
    n: int,
    image_size: int = IMAGE_SIZE,
    categories: tuple[int, ...] = (0, 1),
    score: float = 1.0,
) -> tuple[Detection, ...]:
    boxes = []
    for _ in range(n):
        w = float(rng.uniform(0.15, 0.45) * image_size)
        h = float(rng.uniform(0.15, 0.45) * image_size)
        x = float(rng.uniform(0, image_size - w))
        y = float(rng.uniform(0, image_size - h))
        boxes.append(Detection(int(rng.choice(categories)), score, (x, y, w, h)))
    return tuple(boxes)


def random_annotated(
    rng: np.random.Generator,
    mapping: CategoryMapping | None = None,
    image_id: str = "",
    n_boxes: int | None = None,
    h: int = 38,
    w: int = 38,
) -> AnnotatedImage:
    """Random fixation map plus 1-4 ground-truth boxes (confidence 1)."""
    if mapping is None:
        mapping = two_cat_mapping()
    if n_boxes is None:
        n_boxes = int(rng.integers(1, 5))
    boxes = DetectionSet(
        image_w=IMAGE_SIZE,
        image_h=IMAGE_SIZE,
        detections=random_boxes(rng, n_boxes),
        image_id=image_id,
    )
    return AnnotatedImage(sal=fixation_map(rng, h, w), boxes=boxes, mapping=mapping, image_id=image_id)


def normalized_grid(rng: np.random.Generator, h: int, w: int) -> SaliencyGrid:
    """Random strictly positive distribution (pixel-sum exactly renormalized)."""
    v = rng.random((h, w)) + 1e-3
    return SaliencyGrid(v / v.sum())


def tiny_cell_triple() -> list[SaliencyGrid]:
    """Unit-mass 4x4 grids p, q, r on which HiGHS-IPM raised "Solve error"
    for emd(q, r), while emd(p, q) and emd(p, r) solved: q holds one cell of
    1.83e-9, and the residual problem's dummy sink 1.1e-16 of rounding."""
    e = 4.940986207940986e-08
    q = np.array([[0, 4, 0, 1], [4, 4, 4, 0], [0, 0, 4, e], [4, 2, 0, 0]], dtype=np.float64)
    p = np.zeros((4, 4))
    p[3, 3] = 1.0
    r = np.zeros((4, 4))
    r[0, 3] = r[2, 0] = r[2, 1] = 1.0 / 3.0
    return [SaliencyGrid(p), SaliencyGrid(q / q.sum()), SaliencyGrid(r)]
