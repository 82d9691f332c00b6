import numpy as np
import pytest

from persal import (
    AnnotatedImage,
    CategoryMapping,
    Detection,
    DetectionSet,
    GtWeights,
    SaliencyGrid,
    center_prior,
    generate_psal,
    minmax_normalize,
    pmap,
    softmax_normalize,
)
from persal.errors import ConstantGridWarning, DimMismatchError, EmptyListError
from persal.preference import PreferenceVector
from synth import random_annotated, two_cat_mapping

MAPPING = two_cat_mapping()


def pvec(a, b):
    return PreferenceVector(MAPPING.super_names, np.array([a, b], dtype=np.float64))


def annotated(sal_values, dets, image_px=380):
    return AnnotatedImage(
        sal=SaliencyGrid(np.asarray(sal_values, dtype=np.float64)),
        boxes=DetectionSet(image_px, image_px, tuple(dets)),
        mapping=MAPPING,
    )


class TestGtWeights:
    def test_valid(self):
        assert GtWeights(0.06, 0.752, 0.188).as_tuple() == (0.06, 0.752, 0.188)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            GtWeights(-0.1, 0.6, 0.5)

    def test_sum_enforced(self):
        with pytest.raises(ValueError):
            GtWeights(0.5, 0.5, 0.5)

    @pytest.mark.parametrize("weights", [(float("nan"), 0.5, 0.5), (0.0, float("inf"), 0.0)])
    def test_non_finite_rejected(self, weights):
        with pytest.raises(ValueError, match="finite"):
            GtWeights(*weights)


class TestPmap:
    def test_no_boxes_zero_grid(self):
        img = annotated(np.ones((38, 38)), [])
        np.testing.assert_array_equal(pmap(img, pvec(1.0, 0.5)), np.zeros((38, 38)))

    def test_covered_cells_take_weight(self):
        img = annotated(np.ones((38, 38)), [Detection(0, 1.0, (0, 0, 190, 190))])
        out = pmap(img, pvec(0.8, 0.5))
        assert out[0, 0] == 0.8
        assert out[37, 37] == 0.0

    def test_overlap_takes_max_weight(self):
        img = annotated(np.ones((38, 38)), [
            Detection(1, 1.0, (0, 0, 190, 190)),   # weight 0.3
            Detection(0, 1.0, (0, 0, 95, 95)),     # weight 0.9 on the inner quarter
        ])
        out = pmap(img, pvec(0.9, 0.3))
        assert out[0, 0] == 0.9
        assert out[15, 15] == 0.3

    def test_value_set_subset_of_weights(self):
        rng = np.random.default_rng(0)
        weights = (0.7, 0.25)
        for _ in range(10):
            img = random_annotated(rng)
            out = pmap(img, pvec(*weights), 38, 38)
            assert set(np.unique(out)) <= {0.0, *weights}


class TestGeneratePsal:
    def test_hand_case_pre_normalization(self):
        # SAL=[1,0;0,0], pMap=[0,0;0,1], weights (0.06, 0.752, 0.188):
        # blend [0.06,0;0,0.188] -> minmax [0.06/0.188, 0, 0, 1]
        img = annotated([[1.0, 0.0], [0.0, 0.0]], [Detection(0, 1.0, (1, 1, 1, 1))], image_px=2)
        out = generate_psal(img, pvec(1.0, 0.0), GtWeights(0.06, 0.752, 0.188), 2, 2)
        expected_minmax = np.array([[0.06 / 0.188, 0.0], [0.0, 1.0]])
        assert abs(expected_minmax[0, 0] - 0.3191489361702128) < 1e-12
        expected = softmax_normalize(SaliencyGrid(expected_minmax)).values
        np.testing.assert_allclose(out.values, expected, atol=1e-12)

    def test_zero_pvec_reduces_to_plain_saliency(self):
        rng = np.random.default_rng(1)
        img = random_annotated(rng)
        for alpha in (0.06, 0.5, 1.0):
            w = GtWeights(alpha, 0.8 * (1 - alpha), 0.2 * (1 - alpha))
            out = generate_psal(img, pvec(0.0, 0.0), w)
            ref = softmax_normalize(minmax_normalize(img.sal))
            np.testing.assert_allclose(out.values, ref.values, atol=1e-9)

    def test_full_uniform_preference_reduces_to_plain_saliency(self):
        rng = np.random.default_rng(2)
        sal = rng.random((38, 38))
        img = annotated(sal, [Detection(0, 1.0, (0, 0, 380, 380))])
        out = generate_psal(img, pvec(1.0, 1.0), GtWeights(0.06, 0.752, 0.188))
        ref = softmax_normalize(minmax_normalize(SaliencyGrid(sal)))
        np.testing.assert_allclose(out.values, ref.values, atol=1e-9)

    def test_output_is_distribution(self):
        rng = np.random.default_rng(3)
        out = generate_psal(random_annotated(rng), pvec(1.0, 0.2), GtWeights(0.06, 0.752, 0.188))
        assert abs(out.values.sum() - 1.0) <= 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        img = random_annotated(rng)
        a = generate_psal(img, pvec(1.0, 0.2), GtWeights(0.06, 0.752, 0.188))
        b = generate_psal(img, pvec(1.0, 0.2), GtWeights(0.06, 0.752, 0.188))
        assert np.array_equal(a.values, b.values)

    def test_preference_monotonicity(self):
        # raising a super category's weight raises the pre-normalization mass
        # on cells covered only by that category; after normalization its share
        # of the distribution cannot drop
        img = annotated(np.zeros((38, 38)) + np.eye(38), [Detection(0, 1.0, (200, 200, 100, 100))])
        lo = generate_psal(img, pvec(0.3, 0.0), GtWeights(0.06, 0.752, 0.188))
        hi = generate_psal(img, pvec(0.9, 0.0), GtWeights(0.06, 0.752, 0.188))
        span = pmap(img, pvec(1.0, 0.0)) > 0
        assert hi.values[span].sum() > lo.values[span].sum()

    def test_custom_resolution(self):
        rng = np.random.default_rng(5)
        out = generate_psal(random_annotated(rng), pvec(1.0, 0.2), GtWeights(0.06, 0.752, 0.188), 16, 16)
        assert out.shape == (16, 16)


class TestCenterPrior:
    def test_single_map_is_its_minmax(self):
        rng = np.random.default_rng(6)
        g = SaliencyGrid(rng.random((5, 5)))
        np.testing.assert_array_equal(center_prior([g]).values, minmax_normalize(g).values)

    def test_duplicate_maps_absorbed(self):
        rng = np.random.default_rng(7)
        g = SaliencyGrid(rng.random((5, 5)))
        a = center_prior([g]).values
        b = center_prior([g, g]).values
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_complementary_maps_degenerate(self):
        a = SaliencyGrid(np.array([[1.0, 0.0]]))
        b = SaliencyGrid(np.array([[0.0, 1.0]]))
        with pytest.warns(ConstantGridWarning):
            out = center_prior([a, b])
        np.testing.assert_array_equal(out.values, np.zeros((1, 2)))

    def test_empty_list_rejected(self):
        with pytest.raises(EmptyListError):
            center_prior([])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DimMismatchError):
            center_prior([SaliencyGrid(np.ones((2, 2))), SaliencyGrid(np.ones((3, 3)))])

    def test_range_zero_one(self):
        rng = np.random.default_rng(8)
        out = center_prior([SaliencyGrid(rng.random((9, 9))) for _ in range(5)])
        assert out.values.min() == 0.0
        assert out.values.max() == 1.0
