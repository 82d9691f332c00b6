"""Exact transportation-problem solver: a network simplex in C.

The balanced S x T transportation problem is solved by the primal network
simplex in ``transport.c`` (Bonneel, van de Panne, Paris & Heidrich,
"Displacement interpolation using Lagrangian mass transport", SIGGRAPH Asia
2011): block-search pivoting, a spanning tree kept in parent / thread / depth
arrays and updated in place at each pivot, and strongly feasible trees, so
that degenerate pivots cannot cycle. Every solve ends at a vertex of the
transportation polytope: the plan is exactly optimal and has at most S+T-1
positive entries.

The kernel is compiled on the first solve with the system ``cc`` and loaded
with ctypes. The library is cached in ``$XDG_CACHE_HOME/persal`` (by default
``~/.cache/persal``) under a name that holds the SHA-256 of the C source, so
an edited source is rebuilt and an unchanged one never is. It is written to a
temporary name and published with ``os.replace``, so processes that compile
at the same time on a cold cache each load a complete library.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
from pathlib import Path

import numpy as np

BACKEND = "network-simplex"
SOURCE = Path(__file__).with_name("transport.c")
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")  # no -march: bits independent of the CPU
ERRORS = {1: "pivot limit reached", 2: "out of memory", 3: "empty problem"}


@functools.cache
def kernel_sha256() -> str:
    """SHA-256 of the kernel source: it names the cached library, and the
    manifest records it, since the source decides the EMD bits."""
    return hashlib.sha256(SOURCE.read_bytes()).hexdigest()


def _compile(library: Path) -> None:
    import subprocess  # only a cold cache pays for it

    library.parent.mkdir(parents=True, exist_ok=True)
    tmp = library.with_name(f"{library.name}.{os.getpid()}.tmp")
    cmd = ["cc", *CFLAGS, "-o", str(tmp), str(SOURCE)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as exc:
        raise RuntimeError(f"cannot compile the transport kernel: {' '.join(cmd)}: {exc}") from None
    if done.returncode != 0:
        tmp.unlink(missing_ok=True)
        raise RuntimeError(f"cannot compile the transport kernel: {' '.join(cmd)} exited with "
                           f"{done.returncode}: {done.stderr.strip()[-500:]}")
    os.replace(tmp, library)


@functools.cache
def _kernel():
    """The kernel's entry point, compiled into the cache first if need be."""
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "persal"
    library = cache / f"transport-{os.uname().machine}-{kernel_sha256()}.so"
    if not library.is_file():
        _compile(library)
    fn = ctypes.CDLL(str(library)).persal_transport
    fn.restype = ctypes.c_int
    fn.argtypes = [ctypes.c_int, ctypes.c_int, *[ctypes.c_void_p] * 4, ctypes.c_longlong]
    return fn


def pivot_limit(S: int, T: int) -> int:
    """Pivots a solve may take. EMD solves take about 10 per node (S + T) at
    res 12-32, so reaching this limit means the kernel cycled."""
    return 1000 * (S + T) + 100_000


def solve_transport(supply: np.ndarray, demand: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Minimize sum(F * cost) with row sums == supply and column sums == demand.

    Requires sum(supply) == sum(demand) (the caller balances with a dummy
    node). Returns the dense flow matrix F with shape cost.shape.
    """
    supply = np.asarray(supply, dtype=np.float64)
    demand = np.asarray(demand, dtype=np.float64)
    cost = np.asarray(cost, dtype=np.float64)
    S, T = cost.shape
    if supply.shape != (S,) or demand.shape != (T,):
        raise ValueError("supply/demand shapes do not match the cost matrix")
    if not (np.isfinite(supply).all() and np.isfinite(demand).all() and np.isfinite(cost).all()):
        raise ValueError("supply, demand and cost must be finite")
    if (supply < 0).any() or (demand < 0).any():
        raise ValueError("supply and demand must be nonnegative")
    total = float(supply.sum())
    if abs(total - demand.sum()) > 1e-6 * max(1.0, total):
        raise ValueError("transportation problem must be balanced")
    flow = np.zeros((S, T))
    rows = np.flatnonzero(supply > 0)
    cols = np.flatnonzero(demand > 0)
    if not len(rows) or not len(cols):
        return flow

    # a node without mass carries no flow; the kernel sees only the others,
    # as fresh C-contiguous float64 arrays
    cells = np.ix_(rows, cols)
    sub, out = cost[cells], np.zeros((len(rows), len(cols)))
    supply, demand = supply[rows], demand[cols]
    code = _kernel()(len(rows), len(cols), supply.ctypes.data, demand.ctypes.data,
                     sub.ctypes.data, out.ctypes.data, pivot_limit(len(rows), len(cols)))
    if code:
        raise RuntimeError(f"transport kernel error {code} "
                           f"({ERRORS.get(code, 'unknown')}) on a {S}x{T} problem")
    flow[cells] = out
    return flow
