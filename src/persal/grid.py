"""Saliency grid container and the normalization / resampling primitives.

:class:`SaliencyGrid` is the type at the file and API edge, and checks its
values once, on construction; internal steps run on the ndarray kernels
(``minmax_rows``, ``softmax_rows``, ``bilinear``) that the grid functions wrap.
Nothing mutates its inputs. Values are float64 internally; file serialization
narrows them to float32 (see :mod:`persal.gridio`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConstantGridWarning, DimMismatchError, ZeroDimError


@dataclass(frozen=True)
class SaliencyGrid:
    """2-D, finite, nonnegative float grid (a read-only float64 copy)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ZeroDimError(f"grid must be 2-D with positive dims, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid values must be finite")
        if np.any(v < 0):
            raise ValueError("grid values must be nonnegative")
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


def minmax_rows(v: np.ndarray) -> np.ndarray:
    """Affine-rescale each row (last axis) of ``v`` to [0, 1].

    A constant row has no defined rescale; it maps to all zeros, and a call
    with any such row emits one :class:`ConstantGridWarning`.
    """
    lo = v.min(axis=-1, keepdims=True)
    span = v.max(axis=-1, keepdims=True) - lo
    flat = span == 0
    if not flat.any():
        return (v - lo) / span
    warnings.warn("constant grid in min-max normalization, returning zeros", ConstantGridWarning)
    return np.where(flat, 0.0, (v - lo) / np.where(flat, 1.0, span))


def softmax_rows(v: np.ndarray) -> np.ndarray:
    """Each row (last axis) of ``v`` as a strictly positive distribution."""
    e = np.exp(v - v.max(axis=-1, keepdims=True))  # shift for stability; cancels in the ratio
    e /= e.sum(axis=-1, keepdims=True)
    return e


def minmax_normalize(g: SaliencyGrid) -> SaliencyGrid:
    """Affine-rescale values to [0, 1]; a constant grid maps to all zeros with
    a :class:`ConstantGridWarning`, so batch pipelines stay total."""
    return SaliencyGrid(minmax_rows(g.values.reshape(1, -1)).reshape(g.shape))


def softmax_normalize(g: SaliencyGrid) -> SaliencyGrid:
    """Map the grid to a strictly positive probability distribution."""
    return SaliencyGrid(softmax_rows(g.values.reshape(1, -1)).reshape(g.shape))


def resample(g: SaliencyGrid, new_h: int, new_w: int) -> SaliencyGrid:
    """Bilinear resampling with half-pixel-center alignment (:func:`bilinear`)."""
    return SaliencyGrid(bilinear(g.values, new_h, new_w))


def bilinear(v: np.ndarray, new_h: int, new_w: int) -> np.ndarray:
    """The 2-D array ``v`` resampled bilinearly to ``new_h`` x ``new_w`` with
    half-pixel-center alignment; ``v`` itself when the shape is unchanged."""
    if new_h < 1 or new_w < 1:
        raise ZeroDimError(f"target dims must be >= 1, got {new_h}x{new_w}")
    h, w = v.shape
    if (new_h, new_w) == (h, w):
        return v
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
