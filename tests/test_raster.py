import numpy as np

from persal import BaselineConfig, CategoryMapping, Detection, DetectionSet, detection_baseline
from persal.preference import PreferenceVector
from persal.raster import box_to_cells, paint_max


class TestBoxToCells:
    def test_half_open_quadrant(self):
        # 150/300 of a 38-wide grid covers exactly cells 0..18 (19 cells)
        span = box_to_cells((0, 0, 150, 150), 300, 300, 38, 38)
        assert span == (0, 19, 0, 19)

    def test_degenerate_box(self):
        assert box_to_cells((10, 10, 0, 5), 300, 300, 38, 38) is None

    def test_full_cover(self):
        assert box_to_cells((0, 0, 300, 300), 300, 300, 38, 38) == (0, 38, 0, 38)

    def test_positive_area_intersection_rule(self):
        # box ending exactly on a cell boundary does not touch the next cell
        span = box_to_cells((0, 0, 100, 100), 300, 300, 3, 3)
        assert span == (0, 1, 0, 1)


class TestRasterize:
    def test_full_cover_uniform(self):
        out = paint_max([(0, 0, 300, 300)], [0.9], 300, 300, 38, 38)
        np.testing.assert_array_equal(out, np.full((38, 38), 0.9))

    def test_quadrant_footprint(self):
        out = paint_max([(0, 0, 150, 150)], [0.5], 300, 300, 38, 38)
        nz = np.nonzero(out)
        assert nz[0].max() == 18 and nz[1].max() == 18
        assert len(nz[0]) == 19 * 19

    def test_overlap_takes_max(self):
        out = paint_max([(0, 0, 300, 300), (0, 0, 150, 150)], [0.6, 0.8], 300, 300, 38, 38)
        assert out[0, 0] == 0.8
        assert out[30, 30] == 0.6

    def test_confidence_scaling_is_exact(self):
        rng = np.random.default_rng(1)
        boxes = [(float(rng.uniform(0, 200)), float(rng.uniform(0, 200)), 60.0, 60.0) for _ in range(6)]
        scores = [float(rng.uniform(0.1, 0.5)) for _ in boxes]
        base = paint_max(boxes, scores, 300, 300, 38, 38)
        c = 0.5
        scaled = paint_max(boxes, [s * c for s in scores], 300, 300, 38, 38)
        np.testing.assert_array_equal(scaled, base * c)

    def test_empty_and_degenerate_boxes_paint_nothing(self):
        np.testing.assert_array_equal(paint_max([], [], 300, 300, 4, 5), np.zeros((4, 5)))
        out = paint_max([(10, 10, 0, 5), (10, 10, 5, 0)], [1.0, 1.0], 300, 300, 4, 5)
        np.testing.assert_array_equal(out, np.zeros((4, 5)))


class TestMapToSuper:
    """Super-category weighting as the detection baseline applies it: each
    detection paints confidence x its super category's weight, per-cell max."""

    MAPPING = CategoryMapping(super_names=("animal", "vehicle"), entries={0: 0, 1: 0, 2: 1})
    LEFT = (0.0, 0.0, 1.0, 1.0)  # left cell of a 1x2 grid over a 2x1-pixel image
    RIGHT = (1.0, 0.0, 1.0, 1.0)

    def baseline(self, dets, weights, mapping=MAPPING, w=2, h=1, grid_h=1, grid_w=2):
        pvec = PreferenceVector(mapping.super_names, np.array(weights, dtype=np.float64))
        cfg = BaselineConfig(kind="detection", confidence_threshold=0.0)
        return detection_baseline(DetectionSet(w, h, tuple(dets)), mapping, pvec, cfg, grid_h, grid_w).values

    def test_merge_and_weight(self):
        # cat 0.9 and dog 0.6 both -> animal with weight 0.5 => 0.45 on the left;
        # car 0.9 -> vehicle with weight 1.0 => 0.9 on the right
        out = self.baseline(
            [Detection(0, 0.9, self.LEFT), Detection(1, 0.6, self.LEFT), Detection(2, 0.9, self.RIGHT)],
            [0.5, 1.0],
        )
        assert out[0, 1] == 2 * out[0, 0]

    def test_zero_weight_blanks_channel(self):
        out = self.baseline([Detection(0, 0.7, self.LEFT), Detection(2, 0.7, self.RIGHT)], [0.0, 1.0])
        np.testing.assert_array_equal(out, [[0.0, 1.0]])

    def test_identity_single_member(self):
        rng = np.random.default_rng(0)
        boxes = [(float(rng.uniform(0, 250)), float(rng.uniform(0, 250)), 50.0, 50.0) for _ in range(5)]
        scores = [float(rng.uniform(0.1, 1.0)) for _ in boxes]
        dets = [Detection(2, s, b) for s, b in zip(scores, boxes)]
        out = self.baseline(dets, [0.3, 1.0], w=300, h=300, grid_h=38, grid_w=38)
        raw = paint_max(boxes, scores, 300, 300, 38, 38)
        np.testing.assert_array_equal(out, raw / raw.sum())

    def test_catch_all_collects_unmapped_channels(self):
        mapping = CategoryMapping(super_names=("a", "rest"), entries={0: 0}, catch_all=1)
        out = self.baseline([Detection(0, 0.8, self.LEFT), Detection(7, 0.8, self.RIGHT)], [0.5, 1.0], mapping)
        assert out[0, 1] == 2 * out[0, 0]

    def test_member_permutation_invariant(self):
        rng = np.random.default_rng(2)
        dets = [
            Detection(int(rng.integers(0, 2)), float(rng.uniform(0.1, 1.0)),
                      (float(rng.uniform(0, 250)), float(rng.uniform(0, 250)), 40.0, 40.0))
            for _ in range(12)
        ]
        swapped = [Detection(1 - d.category_id, d.score, d.box) for d in dets]  # both map to animal
        a = self.baseline(dets, [0.7, 0.3], w=300, h=300, grid_h=38, grid_w=38)
        b = self.baseline(swapped, [0.7, 0.3], w=300, h=300, grid_h=38, grid_w=38)
        np.testing.assert_array_equal(a, b)
