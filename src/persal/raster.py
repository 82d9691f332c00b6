"""Painting pixel boxes onto saliency grids.

Boxes live in source-image pixel coordinates; grids use a fixed resolution
(38x38 by default). A grid cell counts as covered when its cell rectangle
intersects the scaled box with positive area (half-open intervals).
"""

from __future__ import annotations

from collections.abc import Iterable
from math import ceil, floor

import numpy as np

GRID_SIZE = 38

Box = tuple[float, float, float, float]  # x, y, w, h in source-image pixels


def box_to_cells(
    box: Box,
    image_w: int,
    image_h: int,
    grid_h: int,
    grid_w: int,
) -> tuple[int, int, int, int] | None:
    """Map a pixel box to the half-open grid-cell span (r0, r1, c0, c1) it covers.

    Returns None for boxes with no positive-area footprint.
    """
    x, y, w, h = box
    if w <= 0 or h <= 0:
        return None
    sx = grid_w / image_w
    sy = grid_h / image_h
    c0 = max(0, floor(x * sx))
    c1 = min(grid_w, ceil((x + w) * sx))
    r0 = max(0, floor(y * sy))
    r1 = min(grid_h, ceil((y + h) * sy))
    if r1 <= r0 or c1 <= c0:
        return None
    return r0, r1, c0, c1


def paint_max(
    boxes: Iterable[Box],
    values: Iterable[float],
    image_w: int,
    image_h: int,
    grid_h: int,
    grid_w: int,
) -> np.ndarray:
    """Zero grid with each box's value painted over the cells it covers;
    overlapping boxes keep the per-cell max."""
    out = np.zeros((grid_h, grid_w), dtype=np.float64)
    for box, value in zip(boxes, values):
        span = box_to_cells(box, image_w, image_h, grid_h, grid_w)
        if span is None:
            continue
        r0, r1, c0, c1 = span
        region = out[r0:r1, c0:c1]
        np.maximum(region, value, out=region)
    return out
