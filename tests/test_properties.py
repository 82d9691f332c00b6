"""Property tests: metric laws on random grids, and batch robustness of eval."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from persal import SaliencyGrid, cc, emd, sim, write_grid
from persal.cli import main
from persal.errors import ZeroVarianceError
from synth import tiny_cell_triple

CELL = st.floats(0.0, 1.0, allow_subnormal=False)


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
        out.append(SaliencyGrid(v / v.sum(), normalized=True) if normalized else SaliencyGrid(v))
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
