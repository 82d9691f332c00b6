"""Run manifests: a deterministic snapshot of a CLI invocation.

Every CLI run writes one next to its outputs. Re-running from a manifest
replays the stored argv (with all defaults already resolved), which together
with seeded randomness makes outputs bit-for-bit reproducible on the same
solver backend, transport kernel source, NumPy version and
``persal.__version__``, which the manifest records too. No timestamps are
recorded, so the manifest itself is deterministic as well, however persal was
installed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from . import __version__, transport


def environment() -> dict:
    """What decides the EMD bits besides the inputs."""
    return {
        "solver_backend": transport.BACKEND,
        "solver_kernel_sha256": transport.kernel_sha256(),
        "numpy": np.__version__,
    }


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(
    path: str | Path,
    command: str,
    argv: list[str],
    config: dict,
    input_paths: list[str | Path],
) -> None:
    doc = {
        "tool": "persal",
        "tool_version": __version__,
        "command": command,
        "argv": list(argv),
        "config": config,
        "environment": environment(),
        "inputs": {str(p): file_digest(p) for p in sorted(map(str, input_paths))},
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def read_manifest(path: str | Path) -> dict:
    with open(path) as f:
        return json.load(f)
