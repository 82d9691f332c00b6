import json

import numpy as np
import pytest

from persal import CategoryMapping, Detection, DetectionSet, extract_preferences, from_ratings
from persal.errors import RatingOutOfRangeError, TooManySuperCategoriesError, UnmappedCategoryError
from persal.preference import (
    PreferenceVector,
    default_mapping,
    load_detection_manifest,
    load_mapping,
    load_pvec,
    pvec_to_dict,
)

DAY = 86400.0
NOW = 1_700_000_000.0

ANIMAL_VEHICLE = CategoryMapping(super_names=("animal", "vehicle"), entries={0: 0, 1: 1})


def det(cat, score):
    return Detection(cat, score, (0.0, 0.0, 10.0, 10.0))


def history_of(*detections, timestamp=None):
    return [DetectionSet(100, 100, tuple(detections), timestamp=timestamp)]


class TestExtractPreferences:
    def test_hand_example(self):
        # {cat:0.9, cat:0.6, car:0.8} -> raw [1.5, 0.8] -> [1.0, 0.8/1.5]
        pvec = extract_preferences(
            history_of(det(0, 0.9), det(0, 0.6), det(1, 0.8)), ANIMAL_VEHICLE, NOW
        )
        assert pvec.weights[0] == 1.0
        assert pvec.weights[1] == 0.8 / 1.5
        assert abs(pvec.weights[1] - 0.5333333333) < 1e-9

    def test_empty_history_all_zeros(self):
        pvec = extract_preferences([], ANIMAL_VEHICLE, NOW)
        np.testing.assert_array_equal(pvec.weights, [0.0, 0.0])

    def test_max_weight_is_exactly_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            dets = [det(int(rng.integers(0, 2)), float(rng.uniform(0.05, 1.0))) for _ in range(6)]
            pvec = extract_preferences(history_of(*dets), ANIMAL_VEHICLE, NOW)
            assert pvec.weights.max() == 1.0

    def test_scale_invariance_power_of_two_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            dets = [det(int(rng.integers(0, 2)), float(rng.uniform(0.01, 0.12))) for _ in range(8)]
            base = extract_preferences(history_of(*dets), ANIMAL_VEHICLE, NOW)
            c = 2.0 ** int(rng.integers(-3, 4))  # scores stay within [0, 1]
            scaled_dets = [det(d.category_id, d.score * c) for d in dets]
            scaled = extract_preferences(history_of(*scaled_dets), ANIMAL_VEHICLE, NOW)
            np.testing.assert_array_equal(scaled.weights, base.weights)

    def test_window_excludes_old_sets_exactly(self):
        recent = DetectionSet(100, 100, (det(0, 0.5),), timestamp=NOW - 10 * DAY)
        stale = DetectionSet(100, 100, (det(1, 0.9),), timestamp=NOW - 91 * DAY)
        with_stale = extract_preferences([recent, stale], ANIMAL_VEHICLE, NOW, window_days=90)
        without = extract_preferences([recent], ANIMAL_VEHICLE, NOW, window_days=90)
        np.testing.assert_array_equal(with_stale.weights, without.weights)

    def test_boundary_timestamp_included(self):
        edge = DetectionSet(100, 100, (det(0, 0.5),), timestamp=NOW - 90 * DAY)
        pvec = extract_preferences([edge], ANIMAL_VEHICLE, NOW, window_days=90)
        assert pvec.weights[0] == 1.0

    def test_future_timestamp_excluded(self):
        future = DetectionSet(100, 100, (det(0, 0.5),), timestamp=NOW + DAY)
        pvec = extract_preferences([future], ANIMAL_VEHICLE, NOW)
        np.testing.assert_array_equal(pvec.weights, [0.0, 0.0])

    def test_timestampless_sets_always_contribute(self):
        pvec = extract_preferences(history_of(det(0, 0.7)), ANIMAL_VEHICLE, NOW)
        assert pvec.weights[0] == 1.0

    def test_unmapped_category_raises(self):
        with pytest.raises(UnmappedCategoryError):
            extract_preferences(history_of(det(5, 0.5)), ANIMAL_VEHICLE, NOW)

    def test_catch_all_absorbs_unmapped(self):
        mapping = CategoryMapping(super_names=("animal", "misc"), entries={0: 0}, catch_all=1)
        pvec = extract_preferences(history_of(det(5, 0.5)), mapping, NOW)
        assert pvec.weights[1] == 1.0

    def test_monotonicity_of_argmax(self):
        base = history_of(det(0, 0.6), det(1, 0.5))
        more = history_of(det(0, 0.6), det(1, 0.5), det(1, 0.4))
        a = extract_preferences(base, ANIMAL_VEHICLE, NOW)
        b = extract_preferences(more, ANIMAL_VEHICLE, NOW)
        assert a.weights[0] == 1.0  # animal leads
        assert b.weights[1] == 1.0  # extra vehicle detections flip the argmax

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            extract_preferences([], ANIMAL_VEHICLE, NOW, window_days=0)


class TestFromRatings:
    def test_table_vectors(self):
        a = from_ratings(["cat", "car", "others"], [10, 8, 2])
        np.testing.assert_array_equal(a.weights, [1.0, 0.8, 0.2])
        b = from_ratings(["a", "b", "c", "d"], [10, 8, 5, 3])
        np.testing.assert_array_equal(b.weights, [1.0, 0.8, 0.5, 0.3])

    def test_all_zero(self):
        np.testing.assert_array_equal(from_ratings(["x", "y"], [0, 0]).weights, [0.0, 0.0])

    def test_out_of_range(self):
        with pytest.raises(RatingOutOfRangeError):
            from_ratings(["x"], [11])
        with pytest.raises(RatingOutOfRangeError):
            from_ratings(["x"], [-1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            from_ratings(["x", "y"], [5])


class TestVectorValidation:
    def test_over_cap_rejected(self):
        with pytest.raises(TooManySuperCategoriesError):
            PreferenceVector(tuple(f"c{i}" for i in range(21)), np.zeros(21))

    def test_weights_outside_unit_interval(self):
        with pytest.raises(ValueError):
            PreferenceVector(("a",), np.array([1.5]))

    def test_non_finite_weights_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            PreferenceVector(("a", "b"), np.array([0.5, np.nan]))

    def test_clamps_boxes_to_image(self):
        ds = DetectionSet(100, 100, (Detection(0, 0.5, (-10.0, 90.0, 30.0, 30.0)),))
        x, y, w, h = ds.detections[0].box
        assert (x, y) == (0.0, 90.0)
        assert (w, h) == (20.0, 10.0)


class TestJsonPlumbing:
    def test_default_mapping_is_the_twelve_way_split(self):
        m = default_mapping()
        assert m.super_names == (
            "outdoor", "food", "indoor", "appliance", "sports", "person",
            "animal", "vehicle", "furniture", "accessory", "electronic", "kitchen",
        )
        assert m.n_super == 12
        assert len(m.entries) == 80
        assert all(0 <= s < 12 for s in m.entries.values())

    def test_mapping_roundtrip(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"super_categories": ["a", "b"], "map": {"0": 0, "7": 1}}))
        m = load_mapping(path)
        assert m.super_index(7) == 1
        with pytest.raises(UnmappedCategoryError):
            m.super_index(3)

    def test_pvec_roundtrip(self, tmp_path):
        pvec = PreferenceVector(("x", "y"), np.array([0.25, 1.0]))
        path = tmp_path / "p.json"
        path.write_text(json.dumps(pvec_to_dict(pvec)))
        back = load_pvec(path)
        assert back.names == pvec.names
        np.testing.assert_array_equal(back.weights, pvec.weights)

    def test_detection_manifest(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps([
            {"image_id": "img1", "width": 640, "height": 480, "timestamp": 123.0,
             "detections": [{"category_id": 3, "score": 0.8, "bbox": [1, 2, 30, 40]}]},
            {"image_id": "img2", "width": 640, "height": 480, "detections": []},
        ]))
        sets = load_detection_manifest(path)
        assert len(sets) == 2
        assert sets[0].detections[0].category_id == 3
        assert sets[0].timestamp == 123.0
        assert sets[1].timestamp is None
