import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pseudo3d.depth import (
    DepthKind,
    disparity_from_metric,
    invert,
    normalize,
    pipeline_relative_to_dr,
    reciprocal_depth,
)
from pseudo3d.depth_io import load_depth_map, write_csv
from pseudo3d.errors import InvalidInputError, NonFiniteInputError


def relative(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


# each function that takes a depth grid, called on ``d``
_TAKES_DEPTH = [normalize, invert, pipeline_relative_to_dr,
                lambda d: disparity_from_metric(d, 1.0, 0.0), reciprocal_depth]


class TestDepthMap:
    """A depth map is a plain (H, W) float64 array; every depth function checks it."""

    def test_rejects_wrong_rank(self):
        for call in _TAKES_DEPTH:
            for shape in [(4,), (2, 2, 2)]:
                with pytest.raises(InvalidInputError, match=re.escape(
                        f"depth grid must have shape (*, *), got {shape}")):
                    call(np.ones(shape))

    def test_rejects_empty(self):
        for call in _TAKES_DEPTH:
            with pytest.raises(InvalidInputError, match="depth grid must have shape"):
                call(np.zeros((0, 3)))

    # without the check, a NaN grid would fail normalize's range check as "overflows float64"
    def test_rejects_non_finite(self):
        for call in _TAKES_DEPTH:
            for value in (np.nan, np.inf, -np.inf):
                with pytest.raises(NonFiniteInputError,
                                   match="^depth grid contains NaN or infinite values$"):
                    call([[1.0, value]])

    def test_values_are_float64_and_read_only(self):
        """Each function returns float64 and only reads its grid: a read-only one goes through."""
        d = np.array([[1, 2], [4, 8]])
        for call in _TAKES_DEPTH:
            grid = d.astype(np.float64)
            grid.setflags(write=False)
            out = call(grid)
            assert out.dtype == np.float64 and out.shape == d.shape
            assert_array_equal(call(d), out)  # integers are read as float64

    def test_construction_copies_input(self):
        """Each result is built in new memory: writing the input afterwards leaves it."""
        for call in _TAKES_DEPTH:
            src = np.array([[1.0, 2.0], [4.0, 8.0]])
            out = call(src)
            kept = out.copy()
            src[...] = 99.0
            assert_array_equal(out, kept)

    def test_kind_must_be_enum(self, tmp_path):
        path = str(tmp_path / "d.csv")
        write_csv(path, np.ones((2, 2)))
        with pytest.raises(InvalidInputError, match="^kind must be a DepthKind, got 'metric'$"):
            load_depth_map(path, "csv", "metric")
        assert list(DepthKind) == [DepthKind.PREDICTED_RELATIVE]


class TestNormalize:
    def test_maps_extremes_to_zero_and_one(self):
        out = normalize(relative([[2.0, 4.0], [6.0, 10.0]]))
        assert out.min() == 0.0
        assert out.max() == 1.0

    def test_known_values(self):
        out = normalize(relative([[0.0, 5.0, 10.0]]))
        assert_array_equal(out, [[0.0, 0.5, 1.0]])

    def test_affine_invariance_sweep(self):
        """Positive scale and arbitrary shift never move the normalized map."""
        rng = np.random.default_rng(42)
        for _ in range(25):
            d = rng.uniform(-3.0, 7.0, size=(5, 6))
            d[0, 0] = -3.5  # guarantee spread
            base = normalize(relative(d))
            s = float(rng.uniform(0.05, 20.0))
            t = float(rng.uniform(-30.0, 30.0))
            shifted = normalize(relative(s * d + t))
            assert_allclose(shifted, base, atol=1e-12)

    def test_constant_map_is_degenerate(self):
        with pytest.raises(InvalidInputError, match="degenerate depth"):
            normalize(relative(np.full((3, 3), 2.5)))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_range_is_degenerate(self):
        with pytest.raises(InvalidInputError, match="overflows float64"):
            normalize(relative([[-1e308, 1e308]]))

    @pytest.mark.filterwarnings("error")
    def test_widest_finite_range_keeps_arithmetic(self):
        d = np.array([[-8e307, 0.0, 8e307]])
        out = normalize(relative(d))
        assert_array_equal(out, (d - d.min()) / (d.max() - d.min()))


class TestInvert:
    def test_one_minus(self):
        n = normalize(relative([[0.0, 1.0, 3.0]]))
        out = invert(n)
        assert_array_equal(out, 1.0 - n)

    def test_nearest_pixel_goes_to_zero(self):
        # the largest prediction (nearest in relative-depth convention,
        # after inversion the farthest) pins the dynamic range
        out = pipeline_relative_to_dr(relative([[1.0, 2.0], [3.0, 4.0]]))
        assert out.min() == 0.0
        assert out.max() == 1.0


class TestPipeline:
    def test_is_literally_invert_of_normalize(self):
        d = relative(np.random.default_rng(0).uniform(0, 9, (7, 4)))
        via_pipeline = pipeline_relative_to_dr(d)
        via_steps = invert(normalize(d))
        assert_array_equal(via_pipeline, via_steps)

    def test_shift_invariance_of_full_pipeline(self):
        rng = np.random.default_rng(7)
        z = rng.uniform(1.0, 8.0, size=(6, 6))
        metric = relative(z)
        ref = pipeline_relative_to_dr(disparity_from_metric(metric, 1.0, 0.0))
        for t in (-5.0, -0.3, 0.7, 5.0):
            moved = pipeline_relative_to_dr(disparity_from_metric(metric, 1.0, t))
            assert_allclose(moved, ref, atol=1e-12)


class TestDisparityFromMetric:
    def test_formula(self):
        z = np.array([[1.0, 2.0], [4.0, 5.0]])
        metric = relative(z)
        out = disparity_from_metric(metric, 3.0, -0.25)
        assert_array_equal(out, 3.0 * (1.0 / z) - 0.25)

    def test_zero_scale_rejected(self):
        metric = relative([[1.0, 2.0]])
        with pytest.raises(InvalidInputError):
            disparity_from_metric(metric, 0.0, 1.0)

    def test_nonpositive_metric_rejected(self):
        metric = relative([[0.0, 2.0]])
        with pytest.raises(InvalidInputError):
            disparity_from_metric(metric, 1.0, 0.0)

    def test_result_beyond_float64_rejected(self):
        with pytest.raises(NonFiniteInputError, match="^depth grid contains NaN or infinite values$"):
            disparity_from_metric(relative([[1e-300, 2.0]]), 1e10, 0.0)


class TestReciprocal:
    def test_inverse_values(self):
        out = reciprocal_depth(relative([[0.5, 2.0], [4.0, 0.25]]))
        assert_array_equal(out, [[2.0, 0.5], [0.25, 4.0]])

    def test_round_trips_unshifted_disparity(self):
        # with s=1, t=0 the naive reciprocal recovers metric depth exactly
        z = np.array([[2.0, 4.0, 8.0]])
        metric = relative(z)
        pred = disparity_from_metric(metric, 1.0, 0.0)
        assert_allclose(reciprocal_depth(pred), z, rtol=1e-15)

    def test_requires_positive_values(self):
        with pytest.raises(InvalidInputError):
            reciprocal_depth(relative([[1.0, 0.0]]))
        with pytest.raises(InvalidInputError):
            reciprocal_depth(relative([[1.0, -2.0]]))

    @pytest.mark.filterwarnings("error")
    def test_reciprocal_beyond_float64_rejected_without_a_warning(self):
        # gen-cloud --naive-reciprocal printed numpy's overflow warning ahead of its error line
        with pytest.raises(NonFiniteInputError, match="^depth grid contains NaN or infinite values$"):
            reciprocal_depth(relative([[1e-310, 2.0]]))
