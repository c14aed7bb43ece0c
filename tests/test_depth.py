import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pseudo3d.depth import (
    DepthKind,
    DepthMap,
    disparity_from_metric,
    invert,
    normalize,
    pipeline_relative_to_dr,
    reciprocal_depth,
)
from pseudo3d.errors import (
    DegenerateDepthError,
    InvalidDepthError,
    NonFiniteInputError,
    WrongKindError,
    ZeroScaleError,
)


def relative(values) -> DepthMap:
    return DepthMap(np.asarray(values, dtype=np.float64), DepthKind.PREDICTED_RELATIVE)


class TestDepthMap:
    def test_values_are_float64_and_read_only(self):
        dm = relative([[1, 2], [3, 4]])
        assert dm.values.dtype == np.float64
        with pytest.raises(ValueError):
            dm.values[0, 0] = 9.0

    def test_construction_copies_input(self):
        src = np.array([[1.0, 2.0]])
        dm = relative(src)
        src[0, 0] = 99.0
        assert dm.values[0, 0] == 1.0

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            relative(np.zeros(4))
        with pytest.raises(ValueError):
            relative(np.zeros((2, 2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            relative(np.zeros((0, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteInputError):
            relative([[1.0, np.nan]])
        with pytest.raises(NonFiniteInputError):
            relative([[1.0, np.inf]])

    def test_kind_must_be_enum(self):
        with pytest.raises(TypeError):
            DepthMap(np.ones((2, 2)), "metric")


class TestNormalize:
    def test_maps_extremes_to_zero_and_one(self):
        out = normalize(relative([[2.0, 4.0], [6.0, 10.0]]))
        assert out.kind is DepthKind.NORMALIZED
        assert out.values.min() == 0.0
        assert out.values.max() == 1.0

    def test_known_values(self):
        out = normalize(relative([[0.0, 5.0, 10.0]]))
        assert_array_equal(out.values, [[0.0, 0.5, 1.0]])

    def test_affine_invariance_sweep(self):
        """Positive scale and arbitrary shift never move the normalized map."""
        rng = np.random.default_rng(42)
        for _ in range(25):
            d = rng.uniform(-3.0, 7.0, size=(5, 6))
            d[0, 0] = -3.5  # guarantee spread
            base = normalize(relative(d)).values
            s = float(rng.uniform(0.05, 20.0))
            t = float(rng.uniform(-30.0, 30.0))
            shifted = normalize(relative(s * d + t)).values
            assert_allclose(shifted, base, atol=1e-12)

    def test_constant_map_is_degenerate(self):
        with pytest.raises(DegenerateDepthError, match="degenerate depth"):
            normalize(relative(np.full((3, 3), 2.5)))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_range_is_degenerate(self):
        with pytest.raises(DegenerateDepthError, match="overflows float64"):
            normalize(relative([[-1e308, 1e308]]))

    @pytest.mark.filterwarnings("error")
    def test_widest_finite_range_keeps_arithmetic(self):
        d = np.array([[-8e307, 0.0, 8e307]])
        out = normalize(relative(d))
        assert_array_equal(out.values, (d - d.min()) / (d.max() - d.min()))

    def test_rejects_wrong_kind(self):
        metric = DepthMap(np.ones((2, 2)) * 3, DepthKind.METRIC)
        with pytest.raises(WrongKindError):
            normalize(metric)


class TestInvert:
    def test_one_minus(self):
        n = normalize(relative([[0.0, 1.0, 3.0]]))
        out = invert(n)
        assert out.kind is DepthKind.INVERTED
        assert_array_equal(out.values, 1.0 - n.values)

    def test_requires_normalized(self):
        with pytest.raises(WrongKindError):
            invert(relative([[0.0, 1.0]]))

    def test_nearest_pixel_goes_to_zero(self):
        # the largest prediction (nearest in relative-depth convention,
        # after inversion the farthest) pins the dynamic range
        out = pipeline_relative_to_dr(relative([[1.0, 2.0], [3.0, 4.0]]))
        assert out.values.min() == 0.0
        assert out.values.max() == 1.0


class TestPipeline:
    def test_is_literally_invert_of_normalize(self):
        d = relative(np.random.default_rng(0).uniform(0, 9, (7, 4)))
        via_pipeline = pipeline_relative_to_dr(d)
        via_steps = invert(normalize(d))
        assert_array_equal(via_pipeline.values, via_steps.values)
        assert via_pipeline.kind is DepthKind.INVERTED

    def test_shift_invariance_of_full_pipeline(self):
        rng = np.random.default_rng(7)
        z = rng.uniform(1.0, 8.0, size=(6, 6))
        metric = DepthMap(z, DepthKind.METRIC)
        ref = pipeline_relative_to_dr(disparity_from_metric(metric, 1.0, 0.0)).values
        for t in (-5.0, -0.3, 0.7, 5.0):
            moved = pipeline_relative_to_dr(disparity_from_metric(metric, 1.0, t)).values
            assert_allclose(moved, ref, atol=1e-12)


class TestDisparityFromMetric:
    def test_formula(self):
        z = np.array([[1.0, 2.0], [4.0, 5.0]])
        metric = DepthMap(z, DepthKind.METRIC)
        out = disparity_from_metric(metric, 3.0, -0.25)
        assert_array_equal(out.values, 3.0 * (1.0 / z) - 0.25)
        assert out.kind is DepthKind.PREDICTED_RELATIVE

    def test_zero_scale_rejected(self):
        metric = DepthMap([[1.0, 2.0]], DepthKind.METRIC)
        with pytest.raises(ZeroScaleError):
            disparity_from_metric(metric, 0.0, 1.0)

    def test_nonpositive_metric_rejected(self):
        metric = DepthMap([[0.0, 2.0]], DepthKind.METRIC)
        with pytest.raises(InvalidDepthError):
            disparity_from_metric(metric, 1.0, 0.0)

    def test_wrong_kind(self):
        with pytest.raises(WrongKindError):
            disparity_from_metric(relative([[1.0, 2.0]]), 1.0, 0.0)


class TestReciprocal:
    def test_inverse_values(self):
        out = reciprocal_depth(relative([[0.5, 2.0], [4.0, 0.25]]))
        assert_array_equal(out.values, [[2.0, 0.5], [0.25, 4.0]])
        assert out.kind is DepthKind.INVERTED

    def test_round_trips_unshifted_disparity(self):
        # with s=1, t=0 the naive reciprocal recovers metric depth exactly
        z = np.array([[2.0, 4.0, 8.0]])
        metric = DepthMap(z, DepthKind.METRIC)
        pred = disparity_from_metric(metric, 1.0, 0.0)
        assert_allclose(reciprocal_depth(pred).values, z, rtol=1e-15)

    def test_requires_positive_values(self):
        with pytest.raises(InvalidDepthError):
            reciprocal_depth(relative([[1.0, 0.0]]))
        with pytest.raises(InvalidDepthError):
            reciprocal_depth(relative([[1.0, -2.0]]))

    def test_requires_relative_kind(self):
        n = normalize(relative([[1.0, 2.0]]))
        with pytest.raises(WrongKindError):
            reciprocal_depth(n)
