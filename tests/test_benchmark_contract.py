"""The benchmark's own pieces (``perfbench/``) against the current code: its
independent checks on a small corpus, and its tracer's wrapped names. Both are
loaded by path; perfbench is not a package."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import persal
from persal.cli import main

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SRC = Path(persal.__file__).resolve().parents[1]
GT_WEIGHTS = (0.06, 0.752, 0.188)  # the CLI's default blend


def load(name):
    """perfbench/<name>.py as module ``name`` (``checks`` imports ``corpus`` by name)."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_profile_and_tune_pass_the_benchmark_checks(tmp_path, capsys):
    corpus, checks = load("corpus"), load("checks")
    root = tmp_path / "corpus"
    corpus.make_corpus(3, 16, root)
    pvec_path, sweep = tmp_path / "pvec.json", tmp_path / "sweep.csv"
    assert main(["profile", "--detections", str(root / "history.json"),
                 "--now", repr(corpus.NOW), "--out", str(pvec_path)]) == 0
    assert main(["tune", "--annotations", str(root / "annotations.json"), "--pvec", str(pvec_path),
                 "--labels", str(root / "labels"), "--out", str(sweep)]) == 0
    capsys.readouterr()

    _, mapping = checks.load_mapping(SRC / "persal" / "data" / "coco12_mapping.json")
    pvec = np.array(json.loads(pvec_path.read_text())["weights"])
    ccs, sims = [], []
    for rec in json.loads((root / "annotations.json").read_text()):
        fix = corpus.read_fgrd(root / "fix" / f"{rec['image_id']}.fgrd")
        label = corpus.read_fgrd(root / "labels" / f"{rec['image_id']}.fgrd")
        values = checks.metric_values(checks.ground_truth(fix, rec, pvec, mapping, GT_WEIGHTS),
                                      label)
        ccs.append(values["cc"])
        sims.append(values["sim"])
    recompute = {GT_WEIGHTS: (float(np.mean(ccs)), float(np.mean(sims)))}
    assert checks.check_sweep(sweep, 14, recompute) == []


def test_tracer_finds_every_name_it_wraps(tmp_path):
    # the tracer wraps module attributes by name (tuning.generate_psal, .cc and
    # .sim among them); a renamed one would only fail a traced benchmark run
    code = ("import importlib.util, sys\n"
            "spec = importlib.util.spec_from_file_location('tracer', sys.argv[1])\n"
            "tracer = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(tracer)\n"
            "tracer.install(tracer.Tracer(sys.argv[2]))\n")
    subprocess.run([sys.executable, "-c", code, str(PERFBENCH / "tracer.py"),
                    str(tmp_path / "s.jsonl")],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
