"""Run one persal CLI command with spans recorded around its layers.

Usage: python3 perfbench/tracer.py SPAN_FILE SPAWN_TIME persal-arguments...

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started this
process (CLOCK_MONOTONIC, shared by all processes on the machine), so the span
file can report interpreter start-up plus imports as ``startup_s``.

The program is not modified. Spans come from wrapping module attributes at
the layer boundaries (all public except ``metrics._mass_preserving_downsample``,
the EMD's downsampling step), in the namespace of the module that makes the
call: ``tuning`` binds ``generate_psal``, ``cc`` and ``sim`` at import
time, so those names are wrapped in ``persal.tuning`` as well as in the
modules that define them. Forked pool workers inherit the wrappers; each
worker appends its own spans to ``SPAN_FILE.<pid>`` after every outermost span
it finishes, because pool workers leave through ``os._exit``.

Each line of a span file is a JSON list
``[name, span_id, parent_id, start, end, extra]`` where ids are ``"pid:n"``.
The first line of the main process's file is a header object.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self, path: str):
        self.path = path
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[str] = []
        self.forked = False
        self.base_depth = 0  # stack depth inherited from the parent at fork
        self.counter = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self.forked = True
        self.base_depth = len(self.stack)

    def wrap(self, module, attr: str, name: str, extra=None) -> None:
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            self.counter += 1
            span_id = f"{self.pid}:{self.counter}"
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            start = time.perf_counter()
            info = None
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    info = extra(args, result)
                return result
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans.append([name, span_id, parent, start, end, info])
                if self.forked and len(self.stack) == self.base_depth:
                    self.flush(f"{self.path}.{self.pid}")

        traced.__wrapped__ = fn
        setattr(module, attr, traced)

    def flush(self, path: str, header: dict | None = None) -> None:
        with open(path, "a") as f:
            if header is not None:
                f.write(json.dumps(header) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
        self.spans = []


def _grid_bytes(grid) -> int:
    return 13 + 4 * grid.height * grid.width + 8  # FGRD header + payload + checksum


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from persal import baselines, cli, gridio, groundtruth, manifest, metrics, transport, tuning

    w = tracer.wrap
    for command in ("profile", "gen_gt", "prior", "baseline", "eval", "tune"):
        w(cli, f"cmd_{command}", f"cli.{command}")
    w(transport, "solve_transport", "transport.solve", lambda a, r: list(r.shape))
    w(metrics, "evaluate_pair", "metrics.evaluate_pair")
    w(metrics, "emd", "metrics.emd", lambda a, r: len(r[1].flows))
    w(metrics, "_mass_preserving_downsample", "metrics.downsample")
    for fn in ("cc", "sim", "kld_judd", "kld_plain"):
        w(metrics, fn, f"metrics.{fn}")
    for fn in ("cc", "sim"):
        w(tuning, fn, f"metrics.{fn}")
    w(groundtruth, "generate_psal", "groundtruth.generate_psal")
    w(tuning, "generate_psal", "groundtruth.generate_psal")
    w(tuning, "sweep_alpha", "tuning.sweep",
      lambda a, r: [len(r.candidates), sum(c.failed for c in r.candidates)])
    w(tuning, "sweep_ratio", "tuning.sweep",
      lambda a, r: [len(r.candidates), sum(c.failed for c in r.candidates)])
    w(gridio, "read_grid", "gridio.read_grid", lambda a, r: _grid_bytes(r))
    w(gridio, "write_grid", "gridio.write_grid", lambda a, r: _grid_bytes(a[0]))
    w(manifest, "write_manifest", "manifest.write_manifest")
    w(manifest, "file_digest", "manifest.file_digest", lambda a, r: os.path.getsize(a[0]))
    w(baselines, "detection_baseline", "baselines.detection_baseline")
    w(baselines, "random_fallback_grid", "baselines.random_fallback_grid")


def _self_time(span: list, children: list[list]) -> float:
    """Span duration minus the part of it that child spans cover; children in
    pool workers can overlap each other, so their intervals are merged."""
    covered, reach = 0.0, span[3]
    for lo, hi in sorted((max(c[3], span[3]), min(c[4], span[4])) for c in children):
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span[4] - span[3] - covered


def summarize(span_files: list[Path], jobs: int) -> dict[str, float]:
    """Per-layer metrics from the span files of one traced pass.

    Times are totals in seconds over the pass; ``jobs`` is the eval worker
    count, so shares of eval time are shares of ``jobs x eval wall time``.
    """
    headers, spans = [], []
    for first in span_files:
        for path in [first, *sorted(first.parent.glob(first.name + ".*"))]:
            for line in path.read_text().splitlines():
                item = json.loads(line)
                (headers if isinstance(item, dict) else spans).append(item)
    by_name, children, by_id = defaultdict(list), defaultdict(list), {}
    for s in spans:
        by_name[s[0]].append(s)
        children[s[2]].append(s)
        by_id[s[1]] = s

    def total(name: str) -> float:
        return sum(s[4] - s[3] for s in by_name[name])

    def self_total(name: str) -> float:
        return sum(_self_time(s, children[s[1]]) for s in by_name[name])

    def under(span: list, name: str) -> bool:
        while span[2] is not None:
            span = by_id[span[2]]
            if span[0] == name:
                return True
        return False

    solves = [s[5] for s in by_name["transport.solve"]]
    sweeps = [s[5] for s in by_name["tuning.sweep"]]
    pairs = len(by_name["metrics.evaluate_pair"])
    eval_capacity = jobs * total("cli.eval")
    detection = len(by_name["baselines.detection_baseline"])
    m = {
        "transport.solve.calls": len(solves),
        "transport.solve.s": total("transport.solve"),
        "transport.solve.share_of_eval":
            total("transport.solve") / eval_capacity if eval_capacity else 0.0,
        "transport.solve.S": statistics.fmean(s for s, t in solves) if solves else 0.0,
        "transport.solve.T": statistics.fmean(t for s, t in solves) if solves else 0.0,
        "transport.solve.cells": sum(s * t for s, t in solves),
        "metrics.emd.self_s": self_total("metrics.emd"),
        "metrics.emd.flows": sum(s[5] for s in by_name["metrics.emd"]),
        "groundtruth.generate_psal.calls": len(by_name["groundtruth.generate_psal"]),
        "groundtruth.generate_psal.s": total("groundtruth.generate_psal"),
        "tuning.candidates": sum(c for c, f in sweeps),
        "tuning.failed": sum(f for c, f in sweeps),
        "tuning.self_s": self_total("tuning.sweep"),
        "manifest.write_manifest.s": total("manifest.write_manifest"),
        "manifest.bytes_hashed": sum(s[5] for s in by_name["manifest.file_digest"]),
        "baselines.detection_baseline.s": total("baselines.detection_baseline"),
        "baselines.fallback_share":
            len(by_name["baselines.random_fallback_grid"]) / detection if detection else 0.0,
        "cli.startup_s": statistics.median(h["startup_s"] for h in headers),
        "cli.eval.self_s": self_total("cli.eval"),
        "cli.eval.read_grid_per_pair": sum(
            under(s, "cli.eval") for s in by_name["gridio.read_grid"]) / pairs if pairs else 0.0,
        "cli.pool_efficiency":
            total("metrics.evaluate_pair") / eval_capacity if eval_capacity else 0.0,
    }
    for name in ("evaluate_pair", "emd", "downsample", "cc", "sim", "kld_judd", "kld_plain"):
        m[f"metrics.{name}.s"] = total(f"metrics.{name}")
    for name in ("read_grid", "write_grid"):
        m[f"gridio.{name}.calls"] = len(by_name[f"gridio.{name}"])
        m[f"gridio.{name}.s"] = total(f"gridio.{name}")
        m[f"gridio.{name}.bytes"] = sum(s[5] for s in by_name[f"gridio.{name}"])
    return m


def main() -> int:
    span_file, spawn_time, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    import multiprocessing

    from persal import cli, transport

    tracer = Tracer(span_file)
    install(tracer)
    header = {
        "startup_s": time.perf_counter() - spawn_time,
        "backend": transport.BACKEND,
        "start_method": multiprocessing.get_start_method(),
    }
    try:
        return cli.main(argv)
    finally:
        tracer.flush(span_file, header)


if __name__ == "__main__":
    sys.exit(main())
