"""User preference vectors built from detection histories or manual ratings.

Note: no confidence cutoff is applied here. Detection manifests are assumed
pre-thresholded by the producing detector; the only confidence threshold is
the detection baseline's (``BaselineConfig.confidence_threshold``).
Low-confidence detections therefore contribute their (small) confidence to
the category sums.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    PersalIOError,
    RatingOutOfRangeError,
    TooManySuperCategoriesError,
    UnmappedCategoryError,
)

CHANNEL_CAP = 20  # most super categories a mapping or preference vector may hold
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


# --- JSON plumbing -----------------------------------------------------------

def _only(*types):
    """The conversion that keeps a value of ``types``, never a bool."""
    def keep(value):
        if isinstance(value, bool) or not isinstance(value, types):
            raise TypeError
        return value
    return keep


def _box(value) -> tuple[float, float, float, float]:
    x, y, w, h = map(float, value)  # ValueError unless there are exactly four
    return x, y, w, h


# kinds for ``field``: (what the value must be, a conversion raising TypeError or ValueError)
INT = ("an integer", int)
NUMBER = ("a number", float)
OBJECT = ("an object", _only(dict))
ARRAY = ("an array", _only(list))
BOX = ("4 numbers", _box)
NUMBER_OR_NULL = ("a number or null", _only(int, float, type(None)))


def field(doc, key: str, where, kind=None, default=...):
    """``doc[key]`` of a JSON object, converted by ``kind``, or ``default`` if
    one is given and the key is absent. No object, no key or a value of the
    wrong kind is a :class:`PersalIOError` naming ``where`` and the key."""
    if not isinstance(doc, dict):
        raise PersalIOError(f"{where}: expected an object with {key!r}, got {type(doc).__name__}")
    if key not in doc:
        if default is ...:
            raise PersalIOError(f"{where}: missing key {key!r}")
        return default
    if kind is None:
        return doc[key]
    what, convert = kind
    try:
        return convert(doc[key])
    except (TypeError, ValueError, OverflowError):
        raise PersalIOError(f"{where}: {key!r} must be {what}, got {doc[key]!r}") from None


def load_mapping(path: str | Path) -> CategoryMapping:
    """Read a mapping config: {super_categories, map, catch_all?}."""
    with open(path) as f:
        doc = json.load(f)
    entries = {int(k): int(v) for k, v in field(doc, "map", path, OBJECT).items()}
    return CategoryMapping(
        super_names=tuple(field(doc, "super_categories", path)),
        entries=entries,
        catch_all=doc.get("catch_all"),
    )


def default_mapping() -> CategoryMapping:
    """The bundled 12-super-category COCO-style mapping."""
    return load_mapping(Path(__file__).parent / "data" / "coco12_mapping.json")


def detection_records(path: str | Path,
                      default_score: float = ...) -> list[tuple[DetectionSet, dict, str]]:
    """Parse a JSON array of per-image records into (detection set, record,
    the record's name in errors: file, index and image id) triples. A detection
    without a ``score`` takes ``default_score``; without one it must have one."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, list):
        raise PersalIOError(f"{path}: expected an array of per-image records")
    out = []
    for i, rec in enumerate(doc):
        where = f"{path}: record {i}"
        if isinstance(rec, dict) and "image_id" in rec:
            where += f" (image {rec['image_id']!r})"
        image_w, image_h = field(rec, "width", where, INT), field(rec, "height", where, INT)
        dets = []
        for j, d in enumerate(field(rec, "detections", where, ARRAY, default=[])):
            at = f"{where}, detection {j}"
            dets.append(Detection(field(d, "category_id", at, INT),
                                  field(d, "score", at, NUMBER, default_score),
                                  field(d, "bbox", at, BOX)))
        boxes = DetectionSet(image_w, image_h, tuple(dets),
                             timestamp=field(rec, "timestamp", where, NUMBER_OR_NULL, None),
                             image_id=str(rec.get("image_id", "")))
        out.append((boxes, rec, where))
    return out


def load_detection_manifest(path: str | Path) -> list[DetectionSet]:
    """Read a detection manifest: a JSON array of per-image records."""
    return [boxes for boxes, _, _ in detection_records(path)]


def load_pvec(path: str | Path) -> PreferenceVector:
    with open(path) as f:
        doc = json.load(f)
    return PreferenceVector(tuple(field(doc, "names", path)),
                            np.asarray(field(doc, "weights", path), dtype=np.float64))


def load_ratings(path: str | Path) -> PreferenceVector:
    """Read manual ratings {names, ratings} and turn them into weights."""
    with open(path) as f:
        doc = json.load(f)
    return from_ratings(field(doc, "names", path), field(doc, "ratings", path))


def pvec_to_dict(pvec: PreferenceVector) -> dict:
    return {"names": list(pvec.names), "weights": [float(w) for w in pvec.weights]}
