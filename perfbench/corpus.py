"""Seeded synthetic corpus for the persal CLI benchmark.

Everything here is a pure function of the seed: the same seed and size give
byte-identical files. The corpus is written with the benchmark's own FGRD
writer, so the program under test only ever sees the generated files.

Layout of a corpus directory:

    fix/<id>.fgrd       38x38 fixation maps (raw, not normalized)
    labels/<id>.fgrd    reference labels for ``tune`` (a distribution that is
                        deliberately not the ground truth the CLI generates)
    annotations.json    annotation manifest (ground-truth boxes, score 1)
    history.json        detection manifest (detector output per image)
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

GRID = 38
IMAGE_SIZE = 380  # pixels, 10 px per cell on the 38x38 grid
NOW = 1_700_000_000.0  # fixed "now" for ``profile --now``
THRESHOLD = 0.5  # the detection baseline's default confidence threshold

# COCO category ids from the bundled 12-super-category mapping, grouped so a
# user preference can favour some super categories over others.
FAVOURED = (1, 17, 18, 19, 20, 21)  # person, animals
OTHERS = (3, 6, 44, 47, 62, 63, 67, 72, 73, 77)  # vehicles, kitchen, furniture, electronics


def fgrd_bytes(values: np.ndarray) -> bytes:
    """Serialize a 2-D grid in the FGRD format (header, float32 payload, BLAKE2b-64)."""
    h, w = values.shape
    payload = np.ascontiguousarray(values, dtype="<f4").tobytes()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return struct.pack("<4sBII", b"FGRD", 1, h, w) + payload + digest


def read_fgrd(path: str | Path) -> np.ndarray:
    """Read an FGRD file as float64, verifying the magic and the checksum."""
    data = Path(path).read_bytes()
    magic, version, h, w = struct.unpack_from("<4sBII", data)
    end = 13 + 4 * h * w
    payload = data[13:end]
    if magic != b"FGRD" or version != 1 or len(data) != end + 8:
        raise ValueError(f"{path}: not a version-1 FGRD file")
    if hashlib.blake2b(payload, digest_size=8).digest() != data[end:]:
        raise ValueError(f"{path}: checksum mismatch")
    return np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(h, w)


def _box(rng: np.random.Generator) -> list[float]:
    w = float(rng.uniform(0.15, 0.45) * IMAGE_SIZE)
    h = float(rng.uniform(0.15, 0.45) * IMAGE_SIZE)
    x = float(rng.uniform(0, IMAGE_SIZE - w))
    y = float(rng.uniform(0, IMAGE_SIZE - h))
    return [round(x, 2), round(y, 2), round(w, 2), round(h, 2)]


def _box_mask(bbox: list[float]) -> np.ndarray:
    x, y, w, h = (v * GRID / IMAGE_SIZE for v in bbox)
    mask = np.zeros((GRID, GRID))
    mask[int(y) : int(np.ceil(y + h)), int(x) : int(np.ceil(x + w))] = 1.0
    return mask


def _fixation_map(rng: np.random.Generator, boxes: list[list[float]]) -> np.ndarray:
    """Smoothed noise plus a fixation hot spot on each object."""
    v = gaussian_filter(rng.random((GRID, GRID)), 3.0)
    ys, xs = np.mgrid[0:GRID, 0:GRID]
    for x, y, w, h in boxes:
        cy, cx = (y + h / 2) * GRID / IMAGE_SIZE, (x + w / 2) * GRID / IMAGE_SIZE
        v += 0.3 * np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / (2.0 * rng.uniform(2.0, 5.0) ** 2))
    return v


def _label(rng: np.random.Generator, fix: np.ndarray, boxes, favoured) -> np.ndarray:
    """A reference distribution that weights fixations inside favoured objects."""
    boost = np.zeros((GRID, GRID))
    for bbox, fav in zip(boxes, favoured):
        boost = np.maximum(boost, _box_mask(bbox) * (1.0 if fav else 0.3))
    v = (fix - fix.min()) / (fix.max() - fix.min())
    v = v * (0.5 + boost) + 0.05 * rng.random((GRID, GRID))
    return v / v.sum()


def make_corpus(seed: int, n_images: int, out: str | Path) -> list[str]:
    """Write a corpus of ``n_images`` images into ``out``; return the image ids.

    The images come in blocks of four, so every seed gives the same mix: one
    image each with 1, 2, 3 and 4 objects, and one image (a quarter of the
    corpus when ``n_images`` is a multiple of 4) whose detections all stay
    below the baseline's confidence threshold, so the detection baseline takes
    its seeded random fallback there. Which images they are depends on the seed.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, n_images]))
    out = Path(out)
    (out / "fix").mkdir(parents=True)
    (out / "labels").mkdir()
    ids = [f"img{i:05d}" for i in range(n_images)]
    # stratified so that a run's solver cost varies less from seed to seed
    n_objects, fallback = [], []
    for _ in range(0, n_images, 4):
        n_objects += (1 + rng.permutation(4)).tolist()
        fallback += (rng.permutation(4) == 0).tolist()

    annotations, history = [], []
    for i, image_id in enumerate(ids):
        n_obj = n_objects[i]
        favoured = [k % 2 == 0 for k in range(n_obj)]
        cats = [int(rng.choice(FAVOURED if f else OTHERS)) for f in favoured]
        boxes = [_box(rng) for _ in range(n_obj)]
        fix = _fixation_map(rng, boxes)
        (out / "fix" / f"{image_id}.fgrd").write_bytes(fgrd_bytes(fix))
        (out / "labels" / f"{image_id}.fgrd").write_bytes(
            fgrd_bytes(_label(rng, fix, boxes, favoured))
        )
        annotations.append({
            "image_id": image_id, "width": IMAGE_SIZE, "height": IMAGE_SIZE,
            "fixation_grid": f"fix/{image_id}.fgrd",
            "detections": [{"category_id": c, "bbox": b} for c, b in zip(cats, boxes)],
        })
        lo, hi = (0.05, THRESHOLD - 0.05) if fallback[i] else (THRESHOLD + 0.05, 0.99)
        dets = []
        for c, b in zip(cats, boxes):
            jitter = rng.normal(0.0, 4.0, 4)
            bbox = [round(max(0.0, v + d), 2) for v, d in zip(b, jitter)]
            dets.append({"category_id": c, "score": round(float(rng.uniform(lo, hi)), 4),
                         "bbox": bbox})
        history.append({
            "image_id": image_id, "width": IMAGE_SIZE, "height": IMAGE_SIZE,
            "timestamp": NOW - float(rng.uniform(0.0, 60.0)) * 86400.0,
            "detections": dets,
        })
    (out / "annotations.json").write_text(json.dumps(annotations, indent=1) + "\n")
    (out / "history.json").write_text(json.dumps(history, indent=1) + "\n")
    return ids


def tree_digest(root: str | Path) -> str:
    """SHA-256 over the relative paths and bytes of every file under ``root``."""
    root = Path(root)
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()
