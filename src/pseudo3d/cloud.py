"""Pseudo point clouds that keep the image's pixel grid, plus synthetic scenes.

A pseudo point cloud is the back-projection of a full depth grid: one 3-D
point per pixel, stored as an (H, W, 3) array so that grid neighbors stay
array neighbors.  :func:`to_coordinate_map` lays the same data out
planar-first, (3, H, W), the layout the convolutional encoder consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import CameraIntrinsics, backproject
from .depth import DepthKind, DepthMap
from .errors import (InvalidDepthError, InvalidRangeError, ShapeMismatchError, TooSmallError,
                     frozen_array)


@dataclass(frozen=True)
class PseudoPointCloud:
    """(H, W, 3) float64 grid of finite camera-frame points, optional uint8 colors."""

    points: np.ndarray
    colors: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", frozen_array("point grid", self.points, (None, None, 3)))
        if self.colors is not None:
            cols = np.array(self.colors)  # a copy
            if cols.dtype != np.uint8:
                raise ValueError(f"colors must be uint8, got {cols.dtype}")
            if cols.shape != self.points.shape:
                raise ShapeMismatchError(
                    f"colors shape {cols.shape} does not match points {self.points.shape}"
                )
            cols.setflags(write=False)
            object.__setattr__(self, "colors", cols)

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.points.shape[:2]  # type: ignore[return-value]


def cloud_from_depth(depth: DepthMap, intrinsics: CameraIntrinsics) -> PseudoPointCloud:
    """Back-project a depth grid into a grid-preserving point cloud."""
    return PseudoPointCloud(backproject(depth.values, intrinsics))


def to_coordinate_map(cloud: PseudoPointCloud) -> np.ndarray:
    """Repack (H, W, 3) points as a (3, H, W) array of planes.  Pure layout change."""
    return np.ascontiguousarray(cloud.points.transpose(2, 0, 1))


@dataclass(frozen=True)
class ContinuityStats:
    """Euclidean step lengths between 4-adjacent grid points."""

    mean_step: float
    max_step: float
    n_pairs: int


def local_continuity(cloud: PseudoPointCloud) -> ContinuityStats:
    """Measure how smoothly the cloud varies across the pixel grid.

    Considers every horizontally and vertically adjacent pair of grid
    points and reports the mean and maximum Euclidean distance.  A cloud
    from a smooth depth map yields small steps; shift-distorted naive
    reciprocals blow the ratio between near and far steps apart.
    """
    h, w = cloud.grid_shape
    if h * w < 2:
        raise TooSmallError("continuity needs at least two grid points")
    pts = cloud.points
    diffs = []
    if w >= 2:
        diffs.append(pts[:, 1:, :] - pts[:, :-1, :])
    if h >= 2:
        diffs.append(pts[1:, :, :] - pts[:-1, :, :])
    steps = np.concatenate([np.linalg.norm(d, axis=2).ravel() for d in diffs])
    return ContinuityStats(
        mean_step=float(steps.mean()),
        max_step=float(steps.max()),
        n_pairs=int(steps.size),
    )


def synth_wedge(height: int, width: int, z_near: float, z_far: float) -> DepthMap:
    """Depth ramp: columns run linearly from z_near (left) to z_far (right).

    A wedge has unequal near and far depth steps, which is exactly the
    structure that exposes shift distortion in the naive reciprocal.
    """
    if height < 1 or width < 2:
        raise TooSmallError(f"wedge needs width >= 2, got {height}x{width}")
    if not z_near > 0.0:
        raise InvalidDepthError(f"z_near must be positive, got {z_near}")
    if not z_near < z_far:
        raise InvalidRangeError(f"need z_near < z_far, got {z_near} >= {z_far}")
    row = np.linspace(z_near, z_far, width, dtype=np.float64)
    return DepthMap(np.broadcast_to(row, (height, width)).copy(), DepthKind.METRIC)


def synth_random(height: int, width: int, rng: np.random.Generator) -> DepthMap:
    """Random strictly positive, non-constant metric scene for sweeps."""
    if height * width < 2:
        raise TooSmallError("random scene needs at least two pixels")
    while True:
        z = rng.uniform(0.5, 10.0, size=(height, width))
        if z.max() > z.min():
            return DepthMap(z, DepthKind.METRIC)
