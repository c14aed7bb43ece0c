"""The relative-to-inverted-depth pipeline on (H, W) float64 depth grids.

A monocular depth estimator emits *relative* depth: values whose affine
relationship to true inverse depth (scale and shift) is unknown.  Before
back-projecting into a point cloud those values are normalized to [0, 1]
and flipped so that larger numbers mean farther away:

    normalized = (d - min(d)) / (max(d) - min(d))
    inverted   = 1 - normalized

Both steps are affine-invariant in the scale (for scale > 0) and exactly
shift-invariant, which is what makes the downstream geometry stable when
the estimator's unknown shift changes between frames.

Each function reads its grid through :func:`~pseudo3d.errors.float_array`, with
no copy of a float64 grid, and rejects a NaN or infinity.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import InvalidInputError, check_finite, float_array


class DepthKind(enum.Enum):
    """What :func:`~pseudo3d.depth_io.load_depth_map` reads; it changes no result."""

    PREDICTED_RELATIVE = "predicted_relative"


def _grid(depth) -> np.ndarray:
    d = float_array("depth grid", depth, (None, None))
    check_finite("depth grid", d)
    return d


def normalize(depth: np.ndarray) -> np.ndarray:
    """Min-max rescale a predicted relative depth grid to [0, 1].

    Raises :class:`InvalidInputError` when the grid is constant, since
    (d - min) / (max - min) is then 0/0, and when max - min overflows float64.
    """
    d = _grid(depth)
    d_min, d_max = float(d.min()), float(d.max())
    if d_max == d_min:
        raise InvalidInputError(f"degenerate depth map: constant value {d_min!r}, cannot normalize")
    span = d_max - d_min  # Python floats overflow to inf silently
    if not np.isfinite(span):
        raise InvalidInputError(
            f"depth range [{d_min!r}, {d_max!r}] overflows float64, cannot normalize")
    out = d - d_min
    out /= span
    return out


def invert(depth: np.ndarray) -> np.ndarray:
    """Flip a normalized grid so greater values mean farther: 1 - d."""
    return 1.0 - _grid(depth)


def pipeline_relative_to_dr(depth: np.ndarray) -> np.ndarray:
    """Full relative-depth conditioning: normalize then invert."""
    return invert(normalize(depth))


def disparity_from_metric(metric: np.ndarray, scale: float, shift: float) -> np.ndarray:
    """Simulate a relative-depth prediction from ground-truth metric depth.

    Models the estimator output as ``scale * (1 / z) + shift`` where ``z``
    is true metric depth.  Metric depth must be strictly positive; scale
    must be nonzero (a zero scale would produce a constant, useless map).
    A prediction beyond float64 raises :class:`NonFiniteInputError`.
    """
    z = _grid(metric)
    if scale == 0.0:
        raise InvalidInputError("disparity scale must be nonzero")
    if np.any(z <= 0.0):
        raise InvalidInputError("metric depth must be strictly positive")
    with np.errstate(over="ignore"):  # an overflow is inf, which the check below rejects
        pred = scale * (1.0 / z) + shift
    check_finite("depth grid", pred)
    return pred


def reciprocal_depth(depth: np.ndarray) -> np.ndarray:
    """Naive baseline: treat predicted values as disparity and return 1/d.

    Only valid when every prediction is strictly positive; a shifted
    prediction crossing zero has no meaningful reciprocal.  A reciprocal
    beyond float64 raises :class:`NonFiniteInputError`.
    """
    d = _grid(depth)
    if np.any(d <= 0.0):
        raise InvalidInputError("naive reciprocal requires strictly positive predictions")
    with np.errstate(over="ignore"):  # an overflow is inf, which the check below rejects
        out = 1.0 / d
    check_finite("depth grid", out)
    return out
