"""Reference sweep: the blend and the candidate-at-a-time scoring loop as they
were before the sweep scored all candidates of an image at once.

``psal_oracle`` is ``generate_psal`` built from whole-grid steps, one
``SaliencyGrid`` per step, and ``score_candidate_oracle`` scores one candidate
with it and ``metrics.cc`` / ``metrics.sim``. The tests hold the batched sweep
to these bit for bit.
"""

from __future__ import annotations

import warnings

import numpy as np

from persal.errors import ConstantGridWarning, ZeroVarianceError
from persal.grid import SaliencyGrid, resample
from persal.groundtruth import pmap
from persal.metrics import cc, sim
from persal.tuning import Candidate


def _minmax(g: SaliencyGrid) -> SaliencyGrid:
    v = g.values
    lo = float(v.min())
    hi = float(v.max())
    if hi == lo:
        warnings.warn("constant grid in min-max normalization, returning zeros", ConstantGridWarning)
        return SaliencyGrid(np.zeros_like(v))
    return SaliencyGrid((v - lo) / (hi - lo))


def _softmax(g: SaliencyGrid) -> SaliencyGrid:
    v = g.values
    e = np.exp(v - v.max())
    e /= e.sum()
    return SaliencyGrid(e)


def psal_oracle(img, pvec, w, grid_h, grid_w) -> SaliencyGrid:
    sal = _minmax(resample(img.sal, grid_h, grid_w)).values
    pm = pmap(img, pvec, grid_h, grid_w)
    blend = w.alpha * sal + w.beta * sal * pm + w.gamma * pm
    return _softmax(_minmax(SaliencyGrid(blend)))


def score_candidate_oracle(dataset, labels, pvec, weights) -> Candidate:
    try:
        cc_vals = []
        sim_vals = []
        for img, label in zip(dataset, labels):
            generated = psal_oracle(img, pvec, weights, label.height, label.width)
            try:
                c = cc(generated, label)
            except ZeroVarianceError:
                continue
            cc_vals.append(c)
            sim_vals.append(sim(generated, label))
        if not cc_vals:
            raise ZeroVarianceError("no image produced a defined CC score")
        mean_cc = float(np.mean(cc_vals))
        mean_sim = float(np.mean(sim_vals))
        return Candidate(weights, mean_cc, mean_sim, mean_cc + mean_sim)
    except Exception as exc:  # noqa: BLE001
        return Candidate(weights, float("nan"), float("nan"), float("-inf"),
                         failed=True, error=f"{type(exc).__name__}: {exc}")
