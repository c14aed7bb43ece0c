"""Pinhole camera model: back-projection, projection, and intrinsics I/O.

Pixel coordinates are zero-based with the origin at the center of the
top-left pixel, so a W-pixel row spans u = 0 .. W-1 and the optical
center of a centered camera sits at (W - 1) / 2.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (FileError, InvalidInputError, check_integer, check_real, data_line,
                     float_array, reading)


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self) -> None:
        for name in ("fx", "fy", "cx", "cy"):
            check_real(name, getattr(self, name))
        vals = (self.fx, self.fy, self.cx, self.cy)
        if not all(math.isfinite(v) for v in vals):
            raise InvalidInputError(f"intrinsics must be finite, got {vals}")
        if self.fx <= 0.0 or self.fy <= 0.0:
            raise InvalidInputError(
                f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}"
            )


def backproject(depth_values: np.ndarray, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Lift an (H, W) depth grid to an (H, W, 3) grid of camera-frame points.

    Each pixel (u, v) with depth d maps to

        X = d * (u - cx) / fx
        Y = d * (v - cy) / fy
        Z = d

    The output grid preserves pixel adjacency: points[v, u] is the 3-D
    point for pixel column u, row v.
    """
    d = float_array("depth grid", depth_values, (None, None))
    h, w = d.shape
    uu = np.arange(w, dtype=np.float64)[np.newaxis, :]
    vv = np.arange(h, dtype=np.float64)[:, np.newaxis]
    points = np.empty((h, w, 3), dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflow is inf, which cloud_from_depth rejects
        points[:, :, 0] = d * (uu - intrinsics.cx) / intrinsics.fx
        points[:, :, 1] = d * (vv - intrinsics.cy) / intrinsics.fy
    points[:, :, 2] = d
    return points


def project(points: np.ndarray, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Map (..., 3) camera-frame points back to (..., 2) pixel coordinates.

    u = fx * X / Z + cx, v = fy * Y / Z + cy.  Every Z must be strictly
    positive.
    """
    pts = float_array("points", points, None)  # any rank, checked below
    if pts.ndim < 1 or pts.shape[-1] != 3:
        raise InvalidInputError(f"points must have a trailing axis of 3, got {pts.shape}")
    z = pts[..., 2]
    n_bad = np.count_nonzero(~(z > 0.0))  # NaN fails z > 0 too
    if n_bad:
        raise InvalidInputError(f"projection requires Z > 0; {n_bad} point(s) violate this")
    uv = np.empty(pts.shape[:-1] + (2,), dtype=np.float64)
    uv[..., 0] = intrinsics.fx * pts[..., 0] / z + intrinsics.cx
    uv[..., 1] = intrinsics.fy * pts[..., 1] / z + intrinsics.cy
    return uv


def estimate_intrinsics_from_fov(
    width: int,
    height: int,
    fov_x_deg: float,
    fov_y_deg: float | None = None,
) -> CameraIntrinsics:
    """Build intrinsics from image size and field of view, assuming an
    undistorted centered pinhole camera.

    f = (extent / 2) / tan(fov / 2).  When the vertical field of view is
    not given it is derived from the horizontal one under square pixels,
    which makes fy == fx exactly.
    """
    check_integer("width", width)
    check_integer("height", height)
    if width < 1 or height < 1:
        raise InvalidInputError(f"image size must be at least 1x1, got {width}x{height}")
    for name, fov in (("fov_x_deg", fov_x_deg), ("fov_y_deg", fov_y_deg)):
        if fov is None and name == "fov_y_deg":  # only the vertical field of view is optional
            continue
        check_real(name, fov)
        if not math.isfinite(fov) or not 0.0 < fov < 180.0:
            raise InvalidInputError(
                f"{name} must lie strictly between 0 and 180 degrees, got {fov}"
            )
    fx = (width / 2.0) / math.tan(math.radians(fov_x_deg) / 2.0)
    if fov_y_deg is None:
        fy = fx
    else:
        fy = (height / 2.0) / math.tan(math.radians(fov_y_deg) / 2.0)
    cx = (width - 1) / 2.0
    cy = (height - 1) / 2.0
    return CameraIntrinsics(fx=fx, fy=fy, cx=cx, cy=cy)


_EXPLICIT_KEYS = {"fx", "fy", "cx", "cy"}
_FOV_KEYS = {"fov_x_deg", "fov_y_deg", "width", "height"}


def parse_intrinsics_config(
    text: str, grid_shape: tuple[int, int] | None = None
) -> CameraIntrinsics:
    """Parse a flat key=value intrinsics file.

    Two mutually exclusive modes:

    * explicit:   fx, fy, cx, cy
    * estimation: fov_x_deg [, fov_y_deg], width, height

    When ``grid_shape`` (H, W) of the depth grid the camera will be
    applied to is given, an estimation-mode width/height that differs from
    it raises :class:`FileError`.

    A line ends at ``\\n``, ``\\r\\n`` or ``\\r``, nowhere else.  A line splits
    at its first ``=``, else at its first ``:``; blank lines and lines starting
    with ``#`` are ignored.  Mixing modes, unknown or duplicate keys, or
    non-numeric values (the first in file order) raise :class:`FileError`.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(re.split(r"\r\n?|\n", text), start=1):
        if not data_line(raw):
            continue
        line = raw.strip()
        key, sep, value = line.partition("=" if "=" in line else ":")
        key, value = key.strip(), value.strip()
        if not (key and sep and value):
            raise FileError(f"line {lineno}: expected 'key = value', got {line!r}")
        if key in entries:
            raise FileError(f"line {lineno}: duplicate key {key!r}")
        if key not in _EXPLICIT_KEYS | _FOV_KEYS:
            raise FileError(f"line {lineno}: unknown key {key!r}")
        entries[key] = value

    explicit = not _EXPLICIT_KEYS.isdisjoint(entries)
    if explicit and not _FOV_KEYS.isdisjoint(entries):
        raise FileError("config mixes explicit intrinsics with field-of-view estimation keys")
    if not entries:
        raise FileError("config contains no intrinsics keys")
    missing = (_EXPLICIT_KEYS if explicit else _FOV_KEYS - {"fov_y_deg"}) - entries.keys()
    if missing:
        raise FileError(f"{'explicit' if explicit else 'estimation'} mode "
                        f"missing keys: {', '.join(sorted(missing))}")
    number: dict[str, float] = {}
    for key, value in entries.items():
        try:  # ASCII with no "_", as the CSV readers have it; float() takes both
            number[key] = float(value if value.isascii() and "_" not in value else "")
        except ValueError:
            raise FileError(f"value for {key!r} is not a number: {value!r}") from None
    try:
        if explicit:
            return CameraIntrinsics(number["fx"], number["fy"], number["cx"], number["cy"])
        if not all(math.isfinite(v) and v == int(v) for v in (number["width"], number["height"])):
            raise FileError("width and height must be integers")
        width, height = int(number["width"]), int(number["height"])
        if grid_shape is not None and grid_shape != (height, width):
            grid_h, grid_w = grid_shape
            raise FileError(f"camera size {width}x{height} does not match the "
                            f"{grid_w}x{grid_h} depth grid (width x height)")
        return estimate_intrinsics_from_fov(width, height, number["fov_x_deg"],
                                            number.get("fov_y_deg"))
    except InvalidInputError as exc:
        raise FileError(str(exc)) from exc


def load_intrinsics(path: str, grid_shape: tuple[int, int] | None = None) -> CameraIntrinsics:
    """Read and parse an intrinsics config file from disk; see :func:`parse_intrinsics_config`."""
    with reading(path, text=True) as text:
        return parse_intrinsics_config(text, grid_shape)
