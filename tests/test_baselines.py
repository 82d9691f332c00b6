import numpy as np
import pytest

from persal import (
    BaselineConfig,
    Detection,
    DetectionSet,
    SaliencyGrid,
    center_prior,
    center_prior_baseline,
    detection_baseline,
)
from persal.baselines import random_fallback_grid
from persal.errors import ZeroMassError
from persal.preference import PreferenceVector
from synth import two_cat_mapping

MAPPING = two_cat_mapping()


def pvec(a, b):
    return PreferenceVector(MAPPING.super_names, np.array([a, b], dtype=np.float64))


def det_cfg(seed=0, threshold=0.5):
    return BaselineConfig(kind="detection", seed=seed, confidence_threshold=threshold)


class TestBaselineConfig:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            BaselineConfig(kind="oracle")

    def test_threshold_range(self):
        with pytest.raises(ValueError):
            BaselineConfig(kind="detection", confidence_threshold=1.5)


class TestCenterPriorBaseline:
    def test_renormalizes_to_distribution(self):
        rng = np.random.default_rng(0)
        prior = center_prior([SaliencyGrid(rng.random((9, 9))) for _ in range(4)])
        out = center_prior_baseline(prior)
        assert abs(out.values.sum() - 1.0) <= 1e-9
        # plain division: proportions preserved
        np.testing.assert_allclose(out.values, prior.values / prior.values.sum(), atol=1e-15)

    def test_constant_positive_prior_uniform(self):
        out = center_prior_baseline(SaliencyGrid(np.full((4, 4), 0.5)))
        np.testing.assert_allclose(out.values, np.full((4, 4), 1 / 16), atol=1e-15)

    def test_zero_mass_rejected(self):
        with pytest.raises(ZeroMassError):
            center_prior_baseline(SaliencyGrid(np.zeros((3, 3))))


class TestDetectionBaseline:
    def test_hand_2x2_case(self):
        # conf 0.9, weight 0.5, box covering the left half of a 2x2 grid
        ds = DetectionSet(100, 100, (Detection(0, 0.9, (0, 0, 50, 100)),))
        out = detection_baseline(ds, MAPPING, pvec(0.5, 1.0), det_cfg(), 2, 2)
        # covered cells 0.45 pre-normalization -> each 0.45 / (0.45 * 2) = 0.5
        np.testing.assert_allclose(out.values, [[0.5, 0.0], [0.5, 0.0]], atol=1e-15)

    def test_max_over_covering_detections(self):
        ds = DetectionSet(100, 100, (
            Detection(0, 0.6, (0, 0, 100, 100)),
            Detection(0, 0.9, (0, 0, 50, 100)),
        ))
        out = detection_baseline(ds, MAPPING, pvec(1.0, 1.0), det_cfg(), 2, 2)
        v = out.values * (0.9 + 0.9 + 0.6 + 0.6)  # undo normalization
        np.testing.assert_allclose(v, [[0.9, 0.6], [0.9, 0.6]], atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            ds = DetectionSet(380, 380, (
                Detection(int(rng.integers(0, 2)), float(rng.uniform(0.5, 1.0)),
                          (float(rng.uniform(0, 300)), float(rng.uniform(0, 300)), 60.0, 60.0)),
            ))
            out = detection_baseline(ds, MAPPING, pvec(1.0, 0.3), det_cfg())
            assert abs(out.values.sum() - 1.0) <= 1e-9

    def test_below_threshold_falls_back_to_seeded_random(self):
        ds = DetectionSet(100, 100, (Detection(0, 0.4, (0, 0, 50, 50)),))
        out = detection_baseline(ds, MAPPING, pvec(1.0, 1.0), det_cfg(seed=7), 8, 8)
        again = detection_baseline(ds, MAPPING, pvec(1.0, 1.0), det_cfg(seed=7), 8, 8)
        assert np.array_equal(out.values, again.values)
        np.testing.assert_array_equal(out.values, random_fallback_grid(7, 8, 8).values)
        assert abs(out.values.sum() - 1.0) <= 1e-9

    def test_zero_weight_detections_also_fall_back(self):
        ds = DetectionSet(100, 100, (Detection(0, 0.9, (0, 0, 50, 50)),))
        out = detection_baseline(ds, MAPPING, pvec(0.0, 1.0), det_cfg(seed=3), 8, 8)
        np.testing.assert_array_equal(out.values, random_fallback_grid(3, 8, 8).values)

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            random_fallback_grid(0, 8, 8).values, random_fallback_grid(1, 8, 8).values
        )

    def test_all_ones_pvec_equals_normalized_coverage(self):
        ds = DetectionSet(100, 100, (
            Detection(0, 1.0, (0, 0, 50, 50)),
            Detection(1, 1.0, (50, 50, 50, 50)),
        ))
        out = detection_baseline(ds, MAPPING, pvec(1.0, 1.0), det_cfg(), 2, 2)
        coverage = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(out.values, coverage / coverage.sum(), atol=1e-15)

    def test_requires_detection_kind(self):
        ds = DetectionSet(100, 100, ())
        with pytest.raises(ValueError):
            detection_baseline(ds, MAPPING, pvec(1.0, 1.0),
                               BaselineConfig(kind="center_prior"), 2, 2)

    def test_deterministic_for_fixed_inputs(self):
        ds = DetectionSet(380, 380, (Detection(0, 0.8, (10, 10, 100, 100)),))
        a = detection_baseline(ds, MAPPING, pvec(0.9, 0.2), det_cfg())
        b = detection_baseline(ds, MAPPING, pvec(0.9, 0.2), det_cfg())
        assert np.array_equal(a.values, b.values)
