import numpy as np
import pytest

from persal import SaliencyGrid, minmax_normalize, resample, softmax_normalize
from persal.errors import ConstantGridWarning, ZeroDimError

E = np.e


def grid(rows):
    return SaliencyGrid(np.asarray(rows, dtype=np.float64))


class TestSaliencyGrid:
    def test_rejects_non_2d(self):
        with pytest.raises(ZeroDimError):
            SaliencyGrid(np.zeros(3))

    def test_rejects_empty_dims(self):
        with pytest.raises(ZeroDimError):
            SaliencyGrid(np.zeros((0, 3)))

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            grid([[-1.0, 0.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            grid([[np.inf, 0.0]])

    def test_normalized_flag_checks_sum(self):
        with pytest.raises(ValueError):
            SaliencyGrid(np.full((2, 2), 0.3), normalized=True)
        SaliencyGrid(np.full((2, 2), 0.25), normalized=True)

    def test_values_are_read_only(self):
        g = grid([[1.0, 2.0]])
        with pytest.raises(ValueError):
            g.values[0, 0] = 5.0


class TestMinmaxNormalize:
    def test_affine_rescale(self):
        out = minmax_normalize(grid([[2.0, 4.0, 6.0]]))
        np.testing.assert_array_equal(out.values, [[0.0, 0.5, 1.0]])

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(0)
        v = rng.random((7, 5))
        a = minmax_normalize(SaliencyGrid(v)).values
        b = minmax_normalize(SaliencyGrid(0.06 * v)).values
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_constant_grid_warns_and_zeroes(self):
        with pytest.warns(ConstantGridWarning):
            out = minmax_normalize(grid([[5.0, 5.0, 5.0]]))
        np.testing.assert_array_equal(out.values, np.zeros((1, 3)))


class TestSoftmaxNormalize:
    def test_symmetry(self):
        out = softmax_normalize(grid([[0.0, 0.0]]))
        np.testing.assert_allclose(out.values, [[0.5, 0.5]], atol=1e-15)

    def test_two_cell_values(self):
        # [1, 0] -> [e/(e+1), 1/(e+1)]
        out = softmax_normalize(grid([[1.0, 0.0]]))
        np.testing.assert_allclose(out.values, [[E / (E + 1), 1 / (E + 1)]], atol=1e-15)

    def test_sums_to_one_and_flagged(self):
        rng = np.random.default_rng(1)
        out = softmax_normalize(SaliencyGrid(rng.random((38, 38))))
        assert out.normalized
        assert abs(out.values.sum() - 1.0) <= 1e-9

    def test_strictly_positive_and_monotone(self):
        g = grid([[0.1, 0.9, 0.4]])
        out = softmax_normalize(g).values
        assert np.all(out > 0)
        assert np.all(np.argsort(out.ravel()) == np.argsort(g.values.ravel()))


class TestResample:
    def test_identity_dims_bitwise(self):
        rng = np.random.default_rng(2)
        g = SaliencyGrid(rng.random((5, 7)))
        out = resample(g, 5, 7)
        assert np.array_equal(out.values, g.values)

    def test_zero_dim_rejected(self):
        with pytest.raises(ZeroDimError):
            resample(grid([[1.0]]), 0, 3)

    def test_constant_extension_of_1x1(self):
        out = resample(SaliencyGrid(np.array([[1.0]]), normalized=True), 4, 6)
        np.testing.assert_allclose(out.values, np.full((4, 6), 1 / 24), atol=1e-12)

    def test_checkerboard_corners_keep_source_values(self):
        src = grid([[1.0, 0.0], [0.0, 1.0]])
        out = resample(src, 4, 4).values
        # with half-pixel-center alignment, corner samples clamp onto the
        # source corner centers and reproduce them exactly
        assert out[0, 0] == 1.0
        assert out[0, 3] == 0.0
        assert out[3, 0] == 0.0
        assert out[3, 3] == 1.0

    def test_mass_preserved_for_normalized_inputs(self):
        rng = np.random.default_rng(3)
        v = rng.random((38, 38))
        g = SaliencyGrid(v / v.sum(), normalized=True)
        out = resample(g, 17, 23)
        assert out.normalized
        assert abs(out.values.sum() - 1.0) <= 1e-9

    def test_nonnegativity_preserved(self):
        rng = np.random.default_rng(4)
        out = resample(SaliencyGrid(rng.random((9, 9))), 25, 13)
        assert np.all(out.values >= 0)


class TestPipelineInvariance:
    def test_softmax_minmax_affine_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = rng.random((10, 12))
            a = float(rng.uniform(0.1, 50.0))
            b = float(rng.uniform(0.0, 10.0))
            ref = softmax_normalize(minmax_normalize(SaliencyGrid(v))).values
            out = softmax_normalize(minmax_normalize(SaliencyGrid(a * v + b))).values
            np.testing.assert_allclose(out, ref, atol=1e-9)

    def test_minmax_then_softmax_in_open_unit_interval(self):
        rng = np.random.default_rng(6)
        out = softmax_normalize(minmax_normalize(SaliencyGrid(rng.random((6, 6))))).values
        assert np.all(out > 0)
        assert np.all(out <= 1)
