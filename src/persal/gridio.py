"""Binary grid file format (FGRD) and PGM export.

FGRD layout: magic "FGRD", one version byte, height and width as 32-bit
little-endian unsigned ints, row-major float32 little-endian payload, and a
trailing 64-bit checksum (BLAKE2b-64 of the payload bytes, little-endian).
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

from .errors import BadMagicError, ChecksumMismatchError, TruncatedFileError
from .grid import SaliencyGrid

MAGIC = b"FGRD"
VERSION = 1
_HEADER = struct.Struct("<4sBII")


def _checksum(payload: bytes) -> int:
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def write_grid(g: SaliencyGrid, path: str | Path) -> None:
    payload = np.ascontiguousarray(g.values, dtype="<f4").tobytes()
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, VERSION, g.height, g.width))
        f.write(payload)
        f.write(struct.pack("<Q", _checksum(payload)))


def _parse_header(data: bytes, path: str | Path) -> tuple[int, int]:
    if len(data) < _HEADER.size:
        raise TruncatedFileError(f"{path}: too short for an FGRD header")
    magic, version, h, w = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise BadMagicError(f"{path}: unsupported version {version}")
    return h, w


def read_shape(path: str | Path) -> tuple[int, int]:
    """(height, width) from the FGRD header alone; the payload and its
    checksum are left for :func:`read_grid`."""
    with open(path, "rb") as f:
        return _parse_header(f.read(_HEADER.size), path)


def read_grid(path: str | Path) -> SaliencyGrid:
    """Read an FGRD file; the checksum is always enforced. Float32 rounding
    perturbs pixel sums, so callers re-check sums where they matter."""
    with open(path, "rb") as f:
        data = f.read()
    h, w = _parse_header(data, path)
    expected = _HEADER.size + 4 * h * w + 8
    if len(data) < expected:
        raise TruncatedFileError(f"{path}: expected {expected} bytes, got {len(data)}")
    payload = data[_HEADER.size : _HEADER.size + 4 * h * w]
    (stored,) = struct.unpack_from("<Q", data, _HEADER.size + 4 * h * w)
    if _checksum(payload) != stored:
        raise ChecksumMismatchError(f"{path}: payload checksum mismatch")
    values = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(h, w)
    return SaliencyGrid(values)


def export_pgm(g: SaliencyGrid, path: str | Path) -> None:
    """Write an 8-bit binary PGM with values min-max scaled to 0..255 (lossy)."""
    v = g.values
    lo, hi = float(v.min()), float(v.max())
    if hi > lo:
        scaled = np.round((v - lo) / (hi - lo) * 255.0)
    else:
        scaled = np.zeros_like(v)
    data = scaled.astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{g.width} {g.height}\n255\n".encode())
        f.write(data.tobytes())
