import numpy as np
import pytest

from persal import GtWeights, SaliencyGrid, final_weights, generate_psal, sweep_alpha, sweep_ratio
from persal.errors import OutOfRangeError
from persal.preference import PreferenceVector
from persal.tuning import SweepSpec, _score_candidates
from synth import random_annotated, two_cat_mapping

MAPPING = two_cat_mapping()
PVEC = PreferenceVector(MAPPING.super_names, np.array([1.0, 0.3]))
GEN_WEIGHTS = GtWeights(0.06, 0.752, 0.188)


def closed_loop_data(n, seed=0):
    rng = np.random.default_rng(seed)
    dataset = [random_annotated(rng, MAPPING, image_id=f"img{i:03d}") for i in range(n)]
    labels = [generate_psal(img, PVEC, GEN_WEIGHTS) for img in dataset]
    return dataset, labels


class TestFinalWeights:
    def test_default_blend_exact(self):
        w = final_weights(0.06, 0.8)
        assert w.alpha == 0.06
        assert w.beta == 0.752
        assert w.gamma == 0.188

    def test_boundaries(self):
        assert final_weights(1.0, 0.3).as_tuple() == (1.0, 0.0, 0.0)
        assert final_weights(0.0, 0.5).as_tuple() == (0.0, 0.5, 0.5)
        assert final_weights(0.06, 1.0).as_tuple() == (0.06, 0.94, 0.0)
        assert final_weights(0.06, 0.0).as_tuple() == (0.06, 0.0, 0.94)

    def test_sum_exactly_one(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            a = round(float(rng.uniform(0, 1)), 3)
            f = round(float(rng.uniform(0, 1)), 3)
            w = final_weights(a, f)
            assert abs(w.alpha + w.beta + w.gamma - 1.0) <= 1e-12

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            final_weights(1.5, 0.5)
        with pytest.raises(OutOfRangeError):
            final_weights(0.5, -0.1)


class TestSweepSpec:
    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(alpha_grid=())

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(alpha_grid=(-0.1, 0.5))


class TestClosedLoopRecovery:
    def test_alpha_sweep_recovers_generator(self):
        dataset, labels = closed_loop_data(12, seed=2)
        spec = SweepSpec(alpha_grid=(0.02, 0.06, 0.10), fixed_ratio=0.8)
        res = sweep_alpha(dataset, labels, PVEC, spec)
        assert res.best.alpha == 0.06
        objectives = {c.weights.alpha: c.objective for c in res.candidates}
        assert abs(objectives[0.06] - 2.0) <= 1e-9
        assert objectives[0.02] < objectives[0.06]
        assert objectives[0.10] < objectives[0.06]

    def test_ratio_sweep_recovers_generator(self):
        dataset, labels = closed_loop_data(12, seed=3)
        spec = SweepSpec(ratio_grid=(0.6, 0.8, 1.0), fixed_alpha=0.06)
        res = sweep_ratio(dataset, labels, PVEC, spec)
        assert res.best.beta == 0.752
        best = [c for c in res.candidates if c.weights.beta == 0.752][0]
        assert abs(best.objective - 2.0) <= 1e-9

    def test_single_candidate_wins(self):
        dataset, labels = closed_loop_data(3, seed=4)
        res = sweep_alpha(dataset, labels, PVEC, SweepSpec(alpha_grid=(0.3,)))
        assert res.best.alpha == 0.3

    def test_boundary_ratios_valid(self):
        dataset, labels = closed_loop_data(3, seed=5)
        res = sweep_ratio(dataset, labels, PVEC, SweepSpec(ratio_grid=(0.0, 1.0)))
        assert not any(c.failed for c in res.candidates)

    def test_candidate_order_does_not_change_result(self):
        dataset, labels = closed_loop_data(6, seed=6)
        a = sweep_alpha(dataset, labels, PVEC, SweepSpec(alpha_grid=(0.02, 0.06, 0.10)))
        b = sweep_alpha(dataset, labels, PVEC, SweepSpec(alpha_grid=(0.10, 0.06, 0.02)))
        assert a.best == b.best

    def test_label_resolution_drives_generation_resolution(self):
        dataset, _ = closed_loop_data(3, seed=7)
        labels16 = [generate_psal(img, PVEC, GEN_WEIGHTS, 16, 16) for img in dataset]
        res = sweep_alpha(dataset, labels16, PVEC, SweepSpec(alpha_grid=(0.06,)))
        assert abs(res.candidates[0].objective - 2.0) <= 1e-9

    def test_all_failed_sweep_raises(self):
        dataset, _ = closed_loop_data(2, seed=8)
        # unnormalized labels make every candidate's SIM computation fail
        rng = np.random.default_rng(8)
        bad = [SaliencyGrid(rng.random((38, 38))) for _ in dataset]
        with pytest.raises(RuntimeError):
            sweep_alpha(dataset, bad, PVEC, SweepSpec(alpha_grid=(0.06, 0.1)))

    def test_failed_candidates_carry_error_text(self):
        dataset, _ = closed_loop_data(2, seed=9)
        rng = np.random.default_rng(9)
        bad = [SaliencyGrid(rng.random((38, 38))) for _ in dataset]
        [c] = _score_candidates(dataset, bad, PVEC, [GEN_WEIGHTS])
        assert c.failed
        assert c.error and "NotNormalized" in c.error
        assert c.objective == float("-inf")
