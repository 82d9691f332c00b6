"""Saliency grid container and the normalization / resampling primitives.

All operations are pure: they never mutate their inputs and return fresh
grids. Values are kept as float64 internally; file serialization narrows to
float32 (see :mod:`persal.gridio`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConstantGridWarning, DimMismatchError, ZeroDimError

NORM_TOL = 1e-9


@dataclass(frozen=True)
class SaliencyGrid:
    """2-D nonnegative float grid, optionally a probability distribution.

    ``normalized=True`` asserts the pixel-sum is 1 within 1e-9.
    """

    values: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ZeroDimError(f"grid must be 2-D with positive dims, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid values must be finite")
        if np.any(v < 0):
            raise ValueError("grid values must be nonnegative")
        if self.normalized and abs(float(v.sum()) - 1.0) > NORM_TOL:
            raise ValueError(f"normalized flag set but pixel-sum is {v.sum()!r}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def minmax_normalize(g: SaliencyGrid) -> SaliencyGrid:
    """Affine-rescale values to [0, 1].

    A constant grid has no defined rescale; it maps to all zeros and emits a
    :class:`ConstantGridWarning` so batch pipelines stay total.
    """
    v = g.values
    lo = float(v.min())
    hi = float(v.max())
    if hi == lo:
        warnings.warn("constant grid in min-max normalization, returning zeros", ConstantGridWarning)
        return SaliencyGrid(np.zeros_like(v))
    return SaliencyGrid((v - lo) / (hi - lo))


def softmax_normalize(g: SaliencyGrid) -> SaliencyGrid:
    """Map the grid to a strictly positive probability distribution."""
    v = g.values
    e = np.exp(v - v.max())  # shift for numerical stability; cancels in the ratio
    e /= e.sum()
    return SaliencyGrid(e, normalized=True)


def resample(g: SaliencyGrid, new_h: int, new_w: int) -> SaliencyGrid:
    """Bilinear resampling with half-pixel-center alignment.

    Normalized inputs are re-normalized to pixel-sum 1 after interpolation.
    """
    if new_h < 1 or new_w < 1:
        raise ZeroDimError(f"target dims must be >= 1, got {new_h}x{new_w}")
    v = g.values
    if (new_h, new_w) == v.shape:
        return SaliencyGrid(v, normalized=g.normalized)
    out = _bilinear(v, new_h, new_w)
    if g.normalized:
        out /= out.sum()
    return SaliencyGrid(out, normalized=g.normalized)


def _bilinear(v: np.ndarray, new_h: int, new_w: int) -> np.ndarray:
    h, w = v.shape
    ys = (np.arange(new_h) + 0.5) * (h / new_h) - 0.5
    xs = (np.arange(new_w) + 0.5) * (w / new_w) - 0.5
    y0 = np.clip(np.floor(ys), 0, h - 1).astype(np.intp)
    x0 = np.clip(np.floor(xs), 0, w - 1).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = np.clip(ys - y0, 0.0, 1.0)[:, None]
    fx = np.clip(xs - x0, 0.0, 1.0)[None, :]
    top = v[np.ix_(y0, x0)] * (1 - fx) + v[np.ix_(y0, x1)] * fx
    bot = v[np.ix_(y1, x0)] * (1 - fx) + v[np.ix_(y1, x1)] * fx
    return top * (1 - fy) + bot * fy


def require_same_shape(p: SaliencyGrid, q: SaliencyGrid) -> None:
    if p.shape != q.shape:
        raise DimMismatchError(f"grid shapes differ: {p.shape} vs {q.shape}")
