"""Property tests: metric laws on random grids, batch robustness of eval, and
that every producer of a distribution returns one."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from persal import (
    AnnotatedImage,
    BaselineConfig,
    DetectionSet,
    PreferenceVector,
    SaliencyGrid,
    cc,
    center_prior_baseline,
    detection_baseline,
    emd,
    final_weights,
    generate_psal,
    sim,
    write_grid,
)
from persal.baselines import random_fallback_grid
from persal.cli import main
from persal.errors import ZeroVarianceError
from synth import IMAGE_SIZE, fixation_map, random_boxes, tiny_cell_triple, two_cat_mapping

CELL = st.floats(0.0, 1.0, allow_subnormal=False)
SHAPE = st.tuples(st.integers(1, 40), st.integers(1, 40))
SEED = st.integers(0, 2**32 - 1)
MAPPING = two_cat_mapping()


@st.composite
def grids(draw, n=2, normalized=True, max_side=6):
    """``n`` same-shape grids of at most ``max_side`` x ``max_side`` cells."""
    h = draw(st.integers(1, max_side))
    w = draw(st.integers(1, max_side))
    out = []
    for _ in range(n):
        cells = st.lists(CELL, min_size=h * w, max_size=h * w)
        if normalized:
            cells = cells.filter(lambda v: sum(v) > 1e-3)
        v = np.array(draw(cells)).reshape(h, w)
        out.append(SaliencyGrid(v / v.sum()) if normalized else SaliencyGrid(v))
    return out


def emd_slack(*values):
    # the solver is exact: its costs agree with the SSP oracle to 1e-12
    # relative (tests/test_transport.py), so the laws hold to that too
    return 1e-12 * max(1.0, sum(values))


@settings(max_examples=40, deadline=None)
@given(grids(n=3))
@example(tiny_cell_triple())
def test_emd_is_symmetric_and_obeys_the_triangle_inequality(g):
    p, q, r = g
    pq, qp, qr, pr = emd(p, q)[0], emd(q, p)[0], emd(q, r)[0], emd(p, r)[0]
    assert abs(pq - qp) <= emd_slack(pq, qp)
    assert pr <= pq + qr + emd_slack(pq, qr, pr)


@settings(max_examples=60, deadline=None)
@given(grids(normalized=False))
def test_cc_in_unit_interval_or_undefined(g):
    try:
        value = cc(*g)
    except ZeroVarianceError:
        return
    assert -1.0 <= value <= 1.0


@settings(max_examples=60, deadline=None)
@given(grids())
def test_sim_in_unit_interval(g):
    # a sum of element-wise minima of two unit-mass grids; the slack covers
    # float rounding of that sum when the grids coincide
    assert 0.0 <= sim(*g) <= 1.0 + 1e-12


@pytest.mark.filterwarnings("error")
@settings(max_examples=15, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=6), st.integers(0, 2**32 - 1))
def test_zero_mass_predictions_never_abort_a_batch(zero_mass, seed):
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        pred, gt, out = Path(tmp, "pred"), Path(tmp, "gt"), Path(tmp, "report")
        pred.mkdir()
        gt.mkdir()
        for i, zero in enumerate(zero_mass):
            values = np.zeros((4, 4)) if zero else rng.random((4, 4)) + 0.1
            write_grid(SaliencyGrid(values), pred / f"{i}.fgrd")
            write_grid(SaliencyGrid(rng.random((4, 4)) + 0.1), gt / f"{i}.fgrd")
        assert main(["eval", "--pred", str(pred), "--gt", str(gt), "--out", str(out),
                     "--jobs", "1", "--normalize"]) == 0
        agg = json.loads((out / "aggregate.json").read_text())
        rows = (out / "per_image.csv").read_text().strip().splitlines()[1:]
    assert agg["counts"]["failures"] == sum(zero_mass)
    for row, zero in zip(rows, zero_mass):
        fields = row.split(",")
        if zero:
            assert fields[6] == f"ZeroMassError: {fields[0]}: prediction has zero mass"
        else:
            assert all(fields[1:6]) and fields[6] == ""


def assert_distribution(g):
    v = g.values
    assert np.all(np.isfinite(v)) and np.all(v >= 0)
    assert abs(float(v.sum()) - 1.0) <= 1e-9


@pytest.mark.filterwarnings("ignore::persal.errors.ConstantGridWarning")
@settings(max_examples=40, deadline=None)
@given(SEED, SHAPE, st.booleans(), st.tuples(CELL, CELL), CELL, CELL)
def test_generated_ground_truth_is_a_distribution(seed, shape, constant, weights, alpha, frac):
    rng = np.random.default_rng(seed)
    sal = SaliencyGrid(np.full((38, 38), 0.5)) if constant else fixation_map(rng)
    boxes = DetectionSet(IMAGE_SIZE, IMAGE_SIZE, random_boxes(rng, int(rng.integers(0, 4))))
    img = AnnotatedImage(sal=sal, boxes=boxes, mapping=MAPPING)
    pvec = PreferenceVector(MAPPING.super_names, np.array(weights))
    assert_distribution(generate_psal(img, pvec, final_weights(alpha, frac), *shape))


@settings(max_examples=40, deadline=None)
@given(SEED, SHAPE, st.sampled_from(["painted", "zero-weight", "fallback"]))
def test_detection_baseline_is_a_distribution(seed, shape, case):
    rng = np.random.default_rng(seed)
    score = 0.2 if case == "fallback" else float(rng.uniform(0.5, 1.0))  # threshold 0.5
    boxes = DetectionSet(IMAGE_SIZE, IMAGE_SIZE, random_boxes(rng, int(rng.integers(1, 4)),
                                                              score=score))
    weights = np.zeros(2) if case == "zero-weight" else rng.uniform(0.01, 1.0, 2)
    cfg = BaselineConfig(kind="detection", seed=seed)
    out = detection_baseline(boxes, MAPPING, PreferenceVector(MAPPING.super_names, weights),
                             cfg, *shape)
    fallback = random_fallback_grid(seed, *shape)
    assert_distribution(out)
    assert_distribution(fallback)
    if case != "painted":
        assert np.array_equal(out.values, fallback.values)


@settings(max_examples=40, deadline=None)
@given(grids(n=1, normalized=False, max_side=12).filter(lambda g: g[0].values.sum() > 0))
def test_center_prior_baseline_is_a_distribution(g):
    assert_distribution(center_prior_baseline(g[0]))
