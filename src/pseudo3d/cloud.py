"""Pseudo point clouds that keep the image's pixel grid, plus synthetic scenes.

A pseudo point cloud is the back-projection of a full depth grid: one 3-D
point per pixel and nothing else, stored as an (H, W, 3) float64 array so
that grid neighbors stay array neighbors.  :func:`to_coordinate_map` shows
the same data planar-first, (3, H, W), the layout the convolutional encoder
consumes, as a read-only view that copies nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .camera import CameraIntrinsics, backproject
from .errors import InvalidInputError, check_count, check_finite, float_array


def cloud_from_depth(depth: np.ndarray, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Back-project a depth grid into a grid-preserving (H, W, 3) point cloud.

    A point beyond float64's range raises :class:`NonFiniteInputError`.
    """
    points = backproject(depth, intrinsics)
    check_finite("point grid", points)
    return points


def to_coordinate_map(points: np.ndarray) -> np.ndarray:
    """View (H, W, 3) points as a (3, H, W) array of planes.  Pure layout change.

    The map is a read-only view of a float64 ``points``: writes to the cloud
    show through it.  Only the shape is checked: the encoder checks the values.
    """
    cmap = float_array("point grid", points, (None, None, 3)).transpose(2, 0, 1)
    cmap.flags.writeable = False
    return cmap


# bytes of one band's (rows, W, 3) diff in local_continuity: the steps buffer
# is the only whole-frame array it adds to the cloud
_BAND_BYTES = 1 << 20


@dataclass(frozen=True)
class ContinuityStats:
    """Euclidean step lengths between 4-adjacent grid points."""

    mean_step: float
    max_step: float
    n_pairs: int


def local_continuity(points: np.ndarray) -> ContinuityStats:
    """Measure how smoothly the cloud varies across the pixel grid.

    Considers every horizontally and vertically adjacent pair of grid
    points and reports the mean and maximum Euclidean distance.  A cloud
    from a smooth depth map yields small steps; shift-distorted naive
    reciprocals blow the ratio between near and far steps apart.

    Memory: one float64 step buffer, horizontal steps then vertical ones,
    filled in bands of grid rows with one ``_BAND_BYTES`` diff at a time;
    6.1 MB at 480x640.
    """
    pts = float_array("point grid", points, (None, None, 3))
    check_finite("point grid", pts)
    h, w, _ = pts.shape
    if h * w < 2:
        raise InvalidInputError("continuity needs at least two grid points")
    n_horizontal = h * (w - 1)
    steps = np.empty(n_horizontal + (h - 1) * w)
    horizontal = steps[:n_horizontal].reshape(h, w - 1)
    vertical = steps[n_horizontal:].reshape(h - 1, w)
    rows = max(1, _BAND_BYTES // (w * 3 * 8))
    # a step beyond float64 becomes inf without a warning; export_ply rejects
    # such a cloud anyway, since its points are beyond float32
    with np.errstate(over="ignore"):
        for r in range(0, h, rows):
            # the band's vertical steps read one row past it
            band, below = pts[r:r + rows], pts[r + 1:r + rows + 1]
            for a, b, squared in [(band[:, 1:], band[:, :-1], horizontal[r:r + rows]),
                                  (below, band[:len(below)], vertical[r:r + rows])]:
                d = a - b
                d *= d
                # (x² + y²) + z², the order of np.linalg.norm's sum; einsum adds
                # x² + z² first and so moves some steps by an ulp
                np.add(d[..., 0], d[..., 1], out=squared)
                squared += d[..., 2]
                del d  # freed before the next diff is built
    np.sqrt(steps, out=steps)
    return ContinuityStats(
        mean_step=float(steps.mean()),
        max_step=float(steps.max()),
        n_pairs=int(steps.size),
    )


def synth_wedge(height: int, width: int, z_near: float, z_far: float) -> np.ndarray:
    """Depth ramp: columns run linearly from z_near (left) to z_far (right).

    A wedge has unequal near and far depth steps, which is exactly the
    structure that exposes shift distortion in the naive reciprocal.
    """
    check_count("height", height)
    check_count("width", width)
    if width < 2:
        raise InvalidInputError(f"wedge needs width >= 2, got {height}x{width}")
    if not z_near > 0.0:
        raise InvalidInputError(f"z_near must be positive, got {z_near}")
    if not z_near < z_far:
        raise InvalidInputError(f"need z_near < z_far, got {z_near} >= {z_far}")
    if math.isinf(z_far):
        raise InvalidInputError(f"z_far must be finite, got {z_far}")
    row = np.linspace(z_near, z_far, width, dtype=np.float64)
    return np.broadcast_to(row, (height, width)).copy()


def synth_random(height: int, width: int, rng: np.random.Generator) -> np.ndarray:
    """Random strictly positive, non-constant metric scene for sweeps."""
    check_count("height", height)
    check_count("width", width)
    if height * width < 2:
        raise InvalidInputError("random scene needs at least two pixels")
    if not isinstance(rng, np.random.Generator):
        raise InvalidInputError(f"rng must be a numpy Generator, got {rng!r}")
    while True:
        z = rng.uniform(0.5, 10.0, size=(height, width))
        if z.max() > z.min():
            return z
