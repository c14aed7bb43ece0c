"""Depth-map representations and the relative-to-inverted-depth pipeline.

A monocular depth estimator emits *relative* depth: values whose affine
relationship to true inverse depth (scale and shift) is unknown.  Before
back-projecting into a point cloud those values are normalized to [0, 1]
and flipped so that larger numbers mean farther away:

    normalized = (d - min(d)) / (max(d) - min(d))
    inverted   = 1 - normalized

Both steps are affine-invariant in the scale (for scale > 0) and exactly
shift-invariant, which is what makes the downstream geometry stable when
the estimator's unknown shift changes between frames.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDepthError,
    InvalidDepthError,
    WrongKindError,
    ZeroScaleError,
    frozen_array,
)


class DepthKind(enum.Enum):
    """Semantic stage of a depth grid as it moves through the pipeline."""

    PREDICTED_RELATIVE = "predicted_relative"
    NORMALIZED = "normalized"
    INVERTED = "inverted"
    METRIC = "metric"


@dataclass(frozen=True)
class DepthMap:
    """An (H, W) float64 grid of depth-like values plus its semantic kind."""

    values: np.ndarray
    kind: DepthKind

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", frozen_array("depth grid", self.values, (None, None)))
        if not isinstance(self.kind, DepthKind):
            raise TypeError(f"kind must be a DepthKind, got {self.kind!r}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape  # type: ignore[return-value]


def normalize(depth: DepthMap) -> DepthMap:
    """Min-max rescale a predicted relative depth map to [0, 1].

    Raises :class:`DegenerateDepthError` when the grid is constant, since
    (d - min) / (max - min) is then 0/0, and when max - min overflows float64.
    """
    if depth.kind is not DepthKind.PREDICTED_RELATIVE:
        raise WrongKindError(
            f"normalize expects PREDICTED_RELATIVE input, got {depth.kind.name}"
        )
    d = depth.values
    d_min = d.min()
    d_max = d.max()
    if d_max == d_min:
        raise DegenerateDepthError(
            f"degenerate depth map: constant value {float(d_min)!r}, cannot normalize"
        )
    span = float(d_max) - float(d_min)  # Python floats overflow to inf silently
    if not np.isfinite(span):
        raise DegenerateDepthError(
            f"depth range [{float(d_min)!r}, {float(d_max)!r}] overflows float64, "
            "cannot normalize"
        )
    out = (d - d_min) / span
    return DepthMap(out, DepthKind.NORMALIZED)


def invert(depth: DepthMap) -> DepthMap:
    """Flip a normalized map so greater values mean farther: 1 - d."""
    if depth.kind is not DepthKind.NORMALIZED:
        raise WrongKindError(
            f"invert expects NORMALIZED input, got {depth.kind.name}"
        )
    return DepthMap(1.0 - depth.values, DepthKind.INVERTED)


def pipeline_relative_to_dr(depth: DepthMap) -> DepthMap:
    """Full relative-depth conditioning: normalize then invert."""
    return invert(normalize(depth))


def disparity_from_metric(metric: DepthMap, scale: float, shift: float) -> DepthMap:
    """Simulate a relative-depth prediction from ground-truth metric depth.

    Models the estimator output as ``scale * (1 / z) + shift`` where ``z``
    is true metric depth.  Metric depth must be strictly positive; scale
    must be nonzero (a zero scale would produce a constant, useless map).
    """
    if metric.kind is not DepthKind.METRIC:
        raise WrongKindError(
            f"disparity_from_metric expects METRIC input, got {metric.kind.name}"
        )
    if scale == 0.0:
        raise ZeroScaleError("disparity scale must be nonzero")
    z = metric.values
    if np.any(z <= 0.0):
        raise InvalidDepthError("metric depth must be strictly positive")
    pred = scale * (1.0 / z) + shift
    return DepthMap(pred, DepthKind.PREDICTED_RELATIVE)


def reciprocal_depth(depth: DepthMap) -> DepthMap:
    """Naive baseline: treat predicted values as disparity and return 1/d.

    Only valid when every prediction is strictly positive; a shifted
    prediction crossing zero has no meaningful reciprocal.
    """
    if depth.kind is not DepthKind.PREDICTED_RELATIVE:
        raise WrongKindError(
            f"reciprocal_depth expects PREDICTED_RELATIVE input, got {depth.kind.name}"
        )
    d = depth.values
    if np.any(d <= 0.0):
        raise InvalidDepthError(
            "naive reciprocal requires strictly positive predictions"
        )
    return DepthMap(1.0 / d, DepthKind.INVERTED)
