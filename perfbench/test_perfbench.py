"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import tracer
from corpus import fgrd_bytes, make_corpus, read_fgrd, tree_digest

ROOT = Path(__file__).resolve().parent.parent


def test_corpus_is_a_pure_function_of_the_seed(tmp_path):
    ids = make_corpus(7, 8, tmp_path / "a")
    assert make_corpus(7, 8, tmp_path / "b") == ids
    make_corpus(8, 8, tmp_path / "c")
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
    assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "c")


def test_corpus_has_a_quarter_fallback_images(tmp_path):
    make_corpus(3, 16, tmp_path)
    history = json.loads((tmp_path / "history.json").read_text())
    below = [all(d["score"] < checks.THRESHOLD for d in r["detections"]) for r in history]
    assert sum(below) == 4


def test_fgrd_round_trip(tmp_path):
    values = np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0
    (tmp_path / "g.fgrd").write_bytes(fgrd_bytes(values))
    assert np.array_equal(read_fgrd(tmp_path / "g.fgrd"), values.astype(np.float32))


def test_emd_lp_on_known_shifts():
    p = np.zeros((4, 4))
    q = np.zeros((4, 4))
    p[0, 0], q[0, 3] = 1.0, 1.0  # all mass moves 3 cells
    assert checks.emd_lp(p, q, 16) == pytest.approx(3.0, rel=1e-9)
    q[0, 3], q[3, 3] = 0.5, 0.5  # half 3 cells, half sqrt(18) cells
    assert checks.emd_lp(p, q, 16) == pytest.approx(1.5 + 0.5 * 18 ** 0.5, rel=1e-9)
    p[1, 1] = 0.5  # unequal mass: one unit moves, plus |1.5 - 1| * max distance sqrt(18)
    assert checks.emd_lp(p, q, 16) == pytest.approx(
        0.5 * 8 ** 0.5 + 0.5 * 3.0 + 0.5 * 18 ** 0.5, rel=1e-9)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """A real ``persal eval`` report on six small random pairs."""
    base = tmp_path_factory.mktemp("eval")
    rng = np.random.default_rng(0)
    for d in ("pred", "gt"):
        (base / d).mkdir()
        for i in range(6):
            v = rng.random((6, 6)) + 1e-3
            (base / d / f"p{i}.fgrd").write_bytes(fgrd_bytes(v / v.sum()))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", "import sys; from persal.cli import main; sys.exit(main())",
                    "eval", "--pred", "pred", "--gt", "gt", "--out", "report", "--jobs", "1"],
                   cwd=base, env=env, check=True, timeout=120)
    return base


def _check(base: Path) -> list[str]:
    return checks.check_eval_report(base / "report", base / "pred", base / "gt", 16, 6)


def _rewrite_csv(path: Path, row: int, column: str, factor: float) -> None:
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    rows[row][column] = repr(float(rows[row][column]) * factor)
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def test_checks_accept_a_correct_report(report):
    assert _check(report) == []


def test_checks_reject_a_perturbed_emd(report, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(report, copy)
    _rewrite_csv(copy / "report" / "per_image.csv", 2, "emd", 1 + 1e-6)
    problems = _check(copy)
    assert any("emd" in p and "LP" in p for p in problems), problems


def test_checks_reject_a_mismatched_mean(report, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(report, copy)
    agg_path = copy / "report" / "aggregate.json"
    agg = json.loads(agg_path.read_text())
    agg["means"]["sim"] *= 1 + 1e-9
    agg_path.write_text(json.dumps(agg))
    problems = _check(copy)
    assert any("aggregate mean sim" in p for p in problems), problems


def test_self_time_merges_overlapping_children():
    parent = ["cli.eval", "1:1", None, 0.0, 10.0, None]
    children = [  # two pool workers overlapping, one child running past the parent
        ["metrics.evaluate_pair", "2:1", "1:1", 1.0, 5.0, None],
        ["metrics.evaluate_pair", "3:1", "1:1", 2.0, 6.0, None],
        ["gridio.write_grid", "1:2", "1:1", 9.0, 11.0, None],
    ]
    assert tracer._self_time(parent, children) == pytest.approx(10.0 - 5.0 - 1.0)
