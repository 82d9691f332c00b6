"""Benchmark of the persal command-line pipeline on a seeded synthetic corpus.

Usage, from the repository root:

    python3 perfbench/run.py --workload score-detection --seed 1 --seconds 30 --trace 0

The benchmark writes its own corpus from ``--seed`` under ``.bench_work/``
and drives the ``persal`` CLI from ``src/`` as a closed loop with one client:
each command runs in its own Python process, started the way the console
script starts it, and the next one starts when it has exited. The workload's
measured pass is repeated while another pass still fits in ``--seconds``.
Every output is then checked against the independent model in ``checks.py``,
and the digests of the deterministic artifacts must agree across every
set-up and every pass of the run.

The last line of standard output is the result object. The line before it
records the environment (solver backend, versions, CPU count, seed, corpus
size, fallback share), every set-up and pass time, and the digests.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one pass
untraced, then the set-up commands and one pass under ``tracer.py``, and
reports the per-layer metrics and the tracing overhead.

Workloads, both score workloads with EMD at ``--emd-res 12``. The CLI default
of 32 takes minutes per pair on the pure-Python solver. At 16 a pair takes
0.7-5 s, and the time varies with the solver's phase count from pair to pair,
so a 30 s run holds about a dozen pairs and its time varied by a third across
seeds. At 12 a pair takes about 0.65 s and a run holds 40 or more.

- score-detection: ground truth from ``gen-gt`` scored against the detection
  baseline with ``--jobs 1``. A quarter of the images have only detections
  below the threshold and get the seeded random fallback. The transport
  solver takes nearly all the time, so this is the single-threaded reference
  for solver work.
- score-model-par: ground truth scored against near-identical "model" maps
  (``gen-gt`` with other blend weights) with ``--jobs 2``. Shared-mass
  cancelling leaves nearly every cell a source or a sink, and the process
  pool runs, so per-process costs show here.
- sweep-corpus: profile, gen-gt, prior, both baselines and tune over 2000
  images. There is no eval, so the solver does no work; grid I/O, ground
  truth synthesis, CC/SIM, manifests and CLI start-up take the time.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import checks
import tracer
from corpus import NOW, THRESHOLD, make_corpus, read_fgrd, tree_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MAPPING = SRC / "persal" / "data" / "coco12_mapping.json"
CONSOLE = "import sys; from persal.cli import main; sys.exit(main())"
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_REPEATS = 3
EMD_RES = 12
EMD_SAMPLE = 2  # pairs per score workload checked against the LP
GT_WEIGHTS = (0.06, 0.752, 0.188)  # the CLI's default blend
MODEL_WEIGHTS = (0.2, 0.64, 0.16)
SWEEP_ROWS = 14  # default alpha grid (8) plus ratio grid (6)


class BenchError(Exception):
    pass


class Counts:
    """Attempted and failed operations: commands, scored images, sweep candidates."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


class Cli:
    """Runs persal commands in child processes and records their cost."""

    def __init__(self, cwd: Path, counts: Counts, deadline: float):
        self.cwd = cwd
        self.counts = counts
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.timings: list[tuple[str, float, float]] = []  # command, seconds, peak RSS MB
        self.span_files: list[Path] = []
        self.trace_dir: Path | None = None  # set while tracing

    def __call__(self, *args: str) -> None:
        if self.trace_dir is None:
            cmd = [sys.executable, "-c", CONSOLE, *args]
        else:
            span_file = self.trace_dir / f"{len(self.span_files):03d}-{args[0]}.jsonl"
            self.span_files.append(span_file)
            cmd = [sys.executable, str(HERE / "tracer.py"), str(span_file),
                   repr(time.perf_counter()), *args]
        with open(self.cwd / "stdout.txt", "w") as out, open(self.cwd / "stderr.txt", "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.cwd, env=self.env, stdout=out, stderr=err,
                                    start_new_session=True)
            code, rusage = self._wait(proc)
            seconds = time.perf_counter() - start
        self.timings.append((args[0], seconds, rusage.ru_maxrss / 1024.0))
        self.counts.add(1, int(code != 0))
        if code != 0:
            tail = (self.cwd / "stderr.txt").read_text()[-1000:]
            raise BenchError(f"persal {' '.join(args)} exited with code {code}: {tail}")

    def _wait(self, proc: subprocess.Popen):
        """wait4 the child for its rusage; kill its whole session at the deadline."""
        def expire(signum, frame):
            os.killpg(proc.pid, signal.SIGKILL)

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, max(self.deadline - time.perf_counter(), 0.001))
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if time.perf_counter() >= self.deadline:
            raise BenchError(f"run limit of {RUN_LIMIT_S} s reached; the command was killed")
        return proc.returncode, rusage


def digest(path: Path) -> str:
    return tree_digest(path) if path.is_dir() else hashlib.sha256(path.read_bytes()).hexdigest()


# --- workloads -----------------------------------------------------------------------


class Workload:
    """A corpus, the set-up commands and the measured pass of one workload.

    Set-up writes under ``setup/`` of the work directory, a pass under
    ``pass/``; all paths handed to the CLI are relative to the work directory.
    """

    name = ""
    n_images = 0
    jobs = 1  # eval worker processes
    setup_artifacts: tuple[str, ...] = ()
    pass_artifacts: tuple[str, ...] = ()

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def setup(self, cli: Cli) -> None:
        make_corpus(self.seed, self.n_images, self.work / "setup" / "corpus")

    def run_pass(self, cli: Cli) -> None:
        raise NotImplementedError

    def account(self, counts: Counts) -> None:
        """Count the per-item outcomes of the pass just run."""

    def check(self) -> list[str]:
        raise NotImplementedError

    def digests(self, stage: str, names: tuple[str, ...]) -> dict[str, str]:
        return {f"{stage}/{n}": digest(self.work / stage / n) for n in names}

    def profile(self, cli: Cli, out: str) -> None:
        cli("profile", "--detections", "setup/corpus/history.json", "--now", repr(NOW),
            "--out", out)


class ScoreWorkload(Workload):
    pred = ""
    pass_artifacts = ("per_image.csv", "aggregate.json")

    def run_pass(self, cli: Cli) -> None:
        cli("eval", "--pred", f"setup/{self.pred}", "--gt", "setup/gt", "--out", "pass",
            "--emd-res", str(EMD_RES), "--jobs", str(self.jobs))

    def account(self, counts: Counts) -> None:
        with open(self.work / "pass" / "per_image.csv", newline="") as f:
            flags = [r["flags"] for r in csv.DictReader(f)]
        counts.add(len(flags), sum(f not in ("", "cc_undefined") for f in flags))

    def check(self) -> list[str]:
        setup = self.work / "setup"
        return check_inputs(setup, setup / "pvec.json", setup / "gt", **{
            self.pred: setup / self.pred}) + checks.check_eval_report(
            self.work / "pass", setup / self.pred, setup / "gt", EMD_RES, EMD_SAMPLE)


class ScoreDetection(ScoreWorkload):
    name = "score-detection"
    n_images = 40
    pred = "pred"
    setup_artifacts = ("corpus", "pvec.json", "gt", "pred")

    def setup(self, cli: Cli) -> None:
        super().setup(cli)
        self.profile(cli, "setup/pvec.json")
        cli("gen-gt", "--annotations", "setup/corpus/annotations.json",
            "--pvec", "setup/pvec.json", "--out", "setup/gt")
        cli("baseline", "--kind", "detection", "--detections", "setup/corpus/history.json",
            "--pvec", "setup/pvec.json", "--out", "setup/pred")


class ScoreModelPar(ScoreWorkload):
    name = "score-model-par"
    n_images = 80
    jobs = 2
    pred = "model"
    setup_artifacts = ("corpus", "pvec.json", "gt", "model")

    def setup(self, cli: Cli) -> None:
        super().setup(cli)
        self.profile(cli, "setup/pvec.json")
        for out, weights in (("gt", GT_WEIGHTS), ("model", MODEL_WEIGHTS)):
            cli("gen-gt", "--annotations", "setup/corpus/annotations.json",
                "--pvec", "setup/pvec.json", "--weights", ",".join(map(repr, weights)),
                "--out", f"setup/{out}")


class SweepCorpus(Workload):
    name = "sweep-corpus"
    n_images = 2000
    setup_artifacts = ("corpus",)
    pass_artifacts = ("pvec.json", "gt", "prior.fgrd", "pred_prior.fgrd", "pred", "sweep.csv")

    def run_pass(self, cli: Cli) -> None:
        (self.work / "pass").mkdir()
        self.profile(cli, "pass/pvec.json")
        cli("gen-gt", "--annotations", "setup/corpus/annotations.json",
            "--pvec", "pass/pvec.json", "--out", "pass/gt")
        cli("prior", "--grids", "setup/corpus/fix", "--out", "pass/prior.fgrd")
        cli("baseline", "--kind", "center_prior", "--prior", "pass/prior.fgrd",
            "--out", "pass/pred_prior.fgrd")
        cli("baseline", "--kind", "detection", "--detections", "setup/corpus/history.json",
            "--pvec", "pass/pvec.json", "--out", "pass/pred")
        cli("tune", "--annotations", "setup/corpus/annotations.json",
            "--pvec", "pass/pvec.json", "--labels", "setup/corpus/labels",
            "--out", "pass/sweep.csv")

    def account(self, counts: Counts) -> None:
        with open(self.work / "pass" / "sweep.csv", newline="") as f:
            failed = [r["failed"] for r in csv.DictReader(f)]
        counts.add(len(failed), sum(f != "0" for f in failed))

    def check(self) -> list[str]:
        setup, out = self.work / "setup", self.work / "pass"
        problems = check_inputs(setup, out / "pvec.json", out / "gt", pred=out / "pred")
        fix = {p.stem: read_fgrd(p) for p in sorted((setup / "corpus" / "fix").glob("*.fgrd"))}
        total = sum(fix.values())
        prior = (total - total.min()) / (total.max() - total.min())
        if not np.allclose(read_fgrd(out / "prior.fgrd"), prior, rtol=checks.GRID_RTOL, atol=1e-7):
            problems.append("prior.fgrd differs from the recomputed center prior")
        if not np.allclose(read_fgrd(out / "pred_prior.fgrd"), prior / prior.sum(),
                           rtol=checks.GRID_RTOL, atol=1e-12):
            problems.append("pred_prior.fgrd differs from the normalized center prior")
        # mean CC and SIM over the whole corpus for the default blend, recomputed
        _, mapping = checks.load_mapping(MAPPING)
        pvec = np.array(json.loads((out / "pvec.json").read_text())["weights"])
        ccs, sims = [], []
        for rec in json.loads((setup / "corpus" / "annotations.json").read_text()):
            g = checks.ground_truth(fix[rec["image_id"]], rec, pvec, mapping, GT_WEIGHTS)
            label = read_fgrd(setup / "corpus" / "labels" / f"{rec['image_id']}.fgrd")
            values = checks.metric_values(g, label)
            ccs.append(values["cc"])
            sims.append(values["sim"])
        recompute = {GT_WEIGHTS: (float(np.mean(ccs)), float(np.mean(sims)))}
        return problems + checks.check_sweep(out / "sweep.csv", SWEEP_ROWS, recompute)


WORKLOADS = {w.name: w for w in (ScoreDetection, ScoreModelPar, SweepCorpus)}


def check_inputs(setup: Path, pvec_path: Path, gt: Path, pred: Path | None = None,
                 model: Path | None = None) -> list[str]:
    """The preference vector and every ground-truth, model or baseline grid
    against the independent model in ``checks``."""
    names, mapping = checks.load_mapping(MAPPING)
    history = json.loads((setup / "corpus" / "history.json").read_text())
    annotations = json.loads((setup / "corpus" / "annotations.json").read_text())
    pvec = checks.pvec_from_history(history, mapping, len(names), NOW)
    got = json.loads(pvec_path.read_text())
    problems = []
    if got["names"] != names or not np.allclose(got["weights"], pvec, rtol=1e-12, atol=0):
        problems.append("pvec.json differs from the recomputed preference vector")
    fix = {r["image_id"]: read_fgrd(setup / "corpus" / r["fixation_grid"]) for r in annotations}
    blends = [("gen-gt", gt, GT_WEIGHTS)] + ([("gen-gt model", model, MODEL_WEIGHTS)] if model else [])
    for what, out, weights in blends:
        problems += checks.check_grids(out, {r["image_id"]: checks.ground_truth(
            fix[r["image_id"]], r, pvec, mapping, weights) for r in annotations}, what)
    if pred is not None:
        problems += checks.check_grids(pred, {r["image_id"]: checks.detection_baseline(
            r, pvec, mapping) for r in history}, "baseline")
    return problems


def fallback_share(corpus: Path) -> float:
    history = json.loads((corpus / "history.json").read_text())
    return sum(all(d["score"] < THRESHOLD for d in r["detections"]) for r in history) / len(history)


# --- measurement -----------------------------------------------------------------------


class Run:
    def __init__(self, workload: Workload, cli: Cli):
        self.wl = workload
        self.cli = cli
        self.digests: dict[str, str] = {}
        self.mismatches: list[str] = []
        self.retired = 0

    def clear(self, stage: str) -> None:
        """Move the outputs of an earlier repeat aside; they are deleted with
        the work directory, so no deletion runs while a later repeat is timed."""
        if (self.wl.work / stage).exists():
            self.retired += 1
            (self.wl.work / stage).rename(self.wl.work / f"retired-{self.retired}")

    def record(self, stage: str, names: tuple[str, ...]) -> None:
        """Digest the artifacts of a stage; any difference to the first is an error."""
        for key, value in self.wl.digests(stage, names).items():
            if self.digests.setdefault(key, value) != value:
                self.mismatches.append(f"{key} differs between repeats")

    def setup(self) -> float:
        self.clear("setup")
        start = time.perf_counter()
        self.wl.setup(self.cli)
        seconds = time.perf_counter() - start
        self.record("setup", self.wl.setup_artifacts)
        return seconds

    def one_pass(self) -> tuple[float, list[tuple[str, float, float]]]:
        self.clear("pass")
        first = len(self.cli.timings)
        start = time.perf_counter()
        self.wl.run_pass(self.cli)
        seconds = time.perf_counter() - start
        self.wl.account(self.cli.counts)
        self.record("pass", self.wl.pass_artifacts)
        return seconds, self.cli.timings[first:]


def measure(run: Run, seconds: float, info: dict) -> dict[str, float]:
    """End-to-end metrics: medians over set-up repeats and passes."""
    info["setup_s"] = [run.setup() for _ in range(SETUP_REPEATS)]
    info["pass_s"], peak_mb = [], 0.0
    start = time.perf_counter()
    while True:
        wall, commands = run.one_pass()
        info["pass_s"].append(wall)
        peak_mb = max([peak_mb] + [rss for _, _, rss in commands])
        if time.perf_counter() - start + wall > seconds:
            break
    return {
        "wall_s": statistics.median(info["pass_s"]),
        "setup_s": statistics.median(info["setup_s"]),
        "peak_rss_mb": peak_mb,
    }


def measure_layers(run: Run, info: dict) -> dict[str, float]:
    """Per-layer metrics: one untraced pass, then set-up and one pass traced."""
    info["setup_s"] = [run.setup()]
    wall, _ = run.one_pass()
    command_s = {name: 0.0 for name in ("eval", "tune", "gen-gt")}
    for name, s, _ in run.cli.timings:  # untraced set-up and pass
        if name in command_s:
            command_s[name] += s
    run.cli.trace_dir = run.wl.work / "spans"
    run.cli.trace_dir.mkdir()
    info["setup_s"].append(run.setup())
    traced_wall, _ = run.one_pass()
    info["pass_s"] = [wall, traced_wall]
    metrics = tracer.summarize(run.cli.span_files, run.wl.jobs)
    metrics.update({
        "cli.eval_s": command_s["eval"],
        "cli.tune_s": command_s["tune"],
        "cli.gen_gt_s": command_s["gen-gt"],
        "trace.overhead_s": traced_wall - wall,
        "failed_frac": run.cli.counts.failed / run.cli.counts.attempted,
    })
    return metrics


def backend(env: dict) -> str:
    out = subprocess.run([sys.executable, "-c", "import persal.transport as t; print(t.BACKEND)"],
                         env=env, capture_output=True, text=True, timeout=60, check=True)
    return out.stdout.strip()


def units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the persal CLI pipeline.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "persal" / "cli.py").is_file():
        print(f"error: no persal sources under {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    counts = Counts()
    cli = Cli(work, counts, time.perf_counter() + RUN_LIMIT_S)
    wl = WORKLOADS[args.workload](args.seed, work)
    run = Run(wl, cli)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "images": wl.n_images}
    try:
        info["backend"] = backend(cli.env)
        metrics = measure_layers(run, info) if args.trace else measure(run, args.seconds, info)
        info["fallback_share"] = fallback_share(work / "setup" / "corpus")
        if (work / "pass" / "aggregate.json").is_file():
            info["means"] = json.loads((work / "pass" / "aggregate.json").read_text())["means"]
        problems = run.mismatches + wl.check()
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        info["commands"] = [(name, round(s, 4)) for name, s, _ in cli.timings]
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    info["digests"] = run.digests
    info["problems"] = problems
    print(json.dumps(info))
    unit = units(bool(args.trace))
    correct = not problems and counts.failed == 0 and bool(info["backend"])
    print(json.dumps({
        "correct": correct,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit[name]} for name in unit},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
