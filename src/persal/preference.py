"""User preference vectors built from detection histories or manual ratings.

Note: no confidence cutoff is applied here. Detection manifests are assumed
pre-thresholded by the producing detector; confidence thresholds belong to
the NMS stage (:mod:`persal.raster`). Low-confidence detections therefore
contribute their (small) confidence to the category sums.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    RatingOutOfRangeError,
    TooManySuperCategoriesError,
    UnmappedCategoryError,
)

CHANNEL_CAP = 20  # fixed Mapping-layer output width
DEFAULT_WINDOW_DAYS = 90


@dataclass(frozen=True)
class Detection:
    category_id: int
    score: float
    box: tuple[float, float, float, float]  # x, y, w, h in source-image pixels

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"confidence {self.score} outside [0, 1]")


@dataclass(frozen=True)
class DetectionSet:
    image_w: int
    image_h: int
    detections: tuple[Detection, ...]
    timestamp: float | None = None
    image_id: str = ""

    def __post_init__(self):
        if self.image_w < 1 or self.image_h < 1:
            raise ValueError("image dimensions must be positive")
        clamped = []
        for d in self.detections:
            x, y, w, h = d.box
            x0 = min(max(x, 0.0), self.image_w)
            y0 = min(max(y, 0.0), self.image_h)
            x1 = min(max(x + w, 0.0), self.image_w)
            y1 = min(max(y + h, 0.0), self.image_h)
            clamped.append(Detection(d.category_id, d.score, (x0, y0, x1 - x0, y1 - y0)))
        object.__setattr__(self, "detections", tuple(clamped))


@dataclass(frozen=True)
class PreferenceVector:
    names: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or len(w) != len(self.names):
            raise ValueError("weights must be 1-D and match names")
        if len(w) > CHANNEL_CAP:
            raise TooManySuperCategoriesError(
                f"{len(w)} super categories exceed the channel cap of {CHANNEL_CAP}"
            )
        if np.any(w < 0) or np.any(w > 1):
            raise ValueError("preference weights must lie in [0, 1]")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "names", tuple(self.names))

    def __len__(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class CategoryMapping:
    """Many-to-one map from detailed category ids to super-category indices."""

    super_names: tuple[str, ...]
    entries: dict[int, int]
    catch_all: int | None = None

    def __post_init__(self):
        n = self.n_super
        if n > CHANNEL_CAP:
            raise TooManySuperCategoriesError(f"{n} super categories exceed the cap of {CHANNEL_CAP}")
        if any(not 0 <= s < n for s in self.entries.values()):
            raise ValueError("super-category index out of range")
        if self.catch_all is not None and not 0 <= self.catch_all < n:
            raise ValueError("catch_all index out of range")
        object.__setattr__(self, "super_names", tuple(self.super_names))
        object.__setattr__(self, "entries", dict(self.entries))

    @property
    def n_super(self) -> int:
        return len(self.super_names)

    def super_index(self, category_id: int) -> int:
        idx = self.entries.get(int(category_id))
        if idx is None:
            idx = self.catch_all
        if idx is None:
            raise UnmappedCategoryError(f"category id {category_id} has no mapping and no catch-all")
        return idx


def extract_preferences(
    history: list[DetectionSet],
    mapping: CategoryMapping,
    now: float,
    window_days: int = DEFAULT_WINDOW_DAYS,
) -> PreferenceVector:
    """Sum detection confidences per super category, then divide by the max.

    Only sets with a timestamp inside the trailing window (or no timestamp at
    all) contribute. An empty or all-zero history yields the all-zero vector.
    """
    if window_days <= 0:
        raise ValueError("window_days must be positive")
    cutoff = now - window_days * 86400.0
    sums = np.zeros(mapping.n_super, dtype=np.float64)
    for ds in history:
        if ds.timestamp is not None and not cutoff <= ds.timestamp <= now:
            continue
        for d in ds.detections:
            sums[mapping.super_index(d.category_id)] += d.score
    top = sums.max() if len(sums) else 0.0
    if top > 0:
        sums = sums / top
    return PreferenceVector(mapping.super_names, sums)


def from_ratings(names: list[str], ratings: list[int]) -> PreferenceVector:
    """Turn 0..10 integer ratings into preference weights (rating / 10)."""
    if len(names) != len(ratings):
        raise ValueError("names and ratings must have equal length")
    for r in ratings:
        if not 0 <= r <= 10:
            raise RatingOutOfRangeError(f"rating {r} outside 0..10")
    return PreferenceVector(tuple(names), np.asarray(ratings, dtype=np.float64) / 10.0)


def pad_to_channels(pvec: PreferenceVector, channels: int = CHANNEL_CAP) -> PreferenceVector:
    """Zero-pad the vector to the fixed channel count of the mapping stage."""
    if len(pvec) > channels:
        raise TooManySuperCategoriesError(f"{len(pvec)} super categories exceed {channels} channels")
    if len(pvec) == channels:
        return pvec
    pad = channels - len(pvec)
    names = pvec.names + tuple(f"_reserved_{i}" for i in range(len(pvec), channels))
    return PreferenceVector(names, np.concatenate([pvec.weights, np.zeros(pad)]))


# --- JSON plumbing -----------------------------------------------------------

def load_mapping(path: str | Path) -> CategoryMapping:
    """Read a mapping config: {super_categories, map, catch_all?}."""
    with open(path) as f:
        doc = json.load(f)
    entries = {int(k): int(v) for k, v in doc["map"].items()}
    return CategoryMapping(
        super_names=tuple(doc["super_categories"]),
        entries=entries,
        catch_all=doc.get("catch_all"),
    )


def default_mapping() -> CategoryMapping:
    """The bundled 12-super-category COCO-style mapping."""
    return load_mapping(Path(__file__).parent / "data" / "coco12_mapping.json")


def load_detection_manifest(path: str | Path) -> list[DetectionSet]:
    """Read a detection manifest: a JSON array of per-image records."""
    with open(path) as f:
        doc = json.load(f)
    out = []
    for rec in doc:
        dets = tuple(
            Detection(int(d["category_id"]), float(d["score"]), tuple(float(v) for v in d["bbox"]))
            for d in rec.get("detections", [])
        )
        out.append(
            DetectionSet(
                image_w=int(rec["width"]),
                image_h=int(rec["height"]),
                detections=dets,
                timestamp=rec.get("timestamp"),
                image_id=str(rec.get("image_id", "")),
            )
        )
    return out


def load_pvec(path: str | Path) -> PreferenceVector:
    with open(path) as f:
        doc = json.load(f)
    return PreferenceVector(tuple(doc["names"]), np.asarray(doc["weights"], dtype=np.float64))


def save_pvec(pvec: PreferenceVector, path: str | Path) -> None:
    with open(path, "w") as f:
        json.dump(pvec_to_dict(pvec), f, indent=2)
        f.write("\n")


def pvec_to_dict(pvec: PreferenceVector) -> dict:
    return {"names": list(pvec.names), "weights": [float(w) for w in pvec.weights]}
