"""Pinhole camera model: back-projection, projection, and intrinsics I/O.

Pixel coordinates are zero-based with the origin at the center of the
top-left pixel, so a W-pixel row spans u = 0 .. W-1 and the optical
center of a centered camera sits at (W - 1) / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    IntrinsicsConfigError,
    InvalidFovError,
    InvalidIntrinsicsError,
    NonPositiveDepthError,
    reading,
)


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self) -> None:
        vals = (self.fx, self.fy, self.cx, self.cy)
        if not all(math.isfinite(v) for v in vals):
            raise InvalidIntrinsicsError(f"intrinsics must be finite, got {vals}")
        if self.fx <= 0.0 or self.fy <= 0.0:
            raise InvalidIntrinsicsError(
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
    d = np.asarray(depth_values, dtype=np.float64)
    if d.ndim != 2:
        raise ValueError(f"depth grid must be 2-D, got shape {d.shape}")
    h, w = d.shape
    uu = np.arange(w, dtype=np.float64)[np.newaxis, :]
    vv = np.arange(h, dtype=np.float64)[:, np.newaxis]
    points = np.empty((h, w, 3), dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflow is inf, which PseudoPointCloud rejects
        points[:, :, 0] = d * (uu - intrinsics.cx) / intrinsics.fx
        points[:, :, 1] = d * (vv - intrinsics.cy) / intrinsics.fy
    points[:, :, 2] = d
    return points


def project(points: np.ndarray, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Map (..., 3) camera-frame points back to (..., 2) pixel coordinates.

    u = fx * X / Z + cx, v = fy * Y / Z + cy.  Every Z must be strictly
    positive; offending flat indices are attached to the raised error.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim < 1 or pts.shape[-1] != 3:
        raise ValueError(f"points must have a trailing axis of 3, got {pts.shape}")
    z = pts[..., 2]
    bad = np.flatnonzero(~(z > 0.0))  # NaN fails z > 0 too
    if bad.size:
        raise NonPositiveDepthError(
            f"projection requires Z > 0; {bad.size} point(s) violate this",
            indices=bad[:16].tolist(),
        )
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
    if width < 1 or height < 1:
        raise InvalidIntrinsicsError(
            f"image size must be at least 1x1, got {width}x{height}"
        )
    for name, fov in (("fov_x_deg", fov_x_deg), ("fov_y_deg", fov_y_deg)):
        if fov is None:
            continue
        if not math.isfinite(fov) or not 0.0 < fov < 180.0:
            raise InvalidFovError(
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
    it raises :class:`IntrinsicsConfigError`.

    Lines may use ``=`` or ``:`` as the separator; blank lines and lines
    starting with ``#`` are ignored.  Mixing modes, unknown keys,
    duplicate keys, or non-numeric values raise
    :class:`IntrinsicsConfigError`.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" in line:
            key, _, value = line.partition("=")
        elif ":" in line:
            key, _, value = line.partition(":")
        else:
            raise IntrinsicsConfigError(
                f"line {lineno}: expected 'key = value', got {line!r}"
            )
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise IntrinsicsConfigError(
                f"line {lineno}: expected 'key = value', got {line!r}"
            )
        if key in entries:
            raise IntrinsicsConfigError(f"line {lineno}: duplicate key {key!r}")
        if key not in _EXPLICIT_KEYS | _FOV_KEYS:
            raise IntrinsicsConfigError(f"line {lineno}: unknown key {key!r}")
        entries[key] = value

    present_explicit = _EXPLICIT_KEYS & entries.keys()
    present_fov = _FOV_KEYS & entries.keys()
    if present_explicit and present_fov:
        raise IntrinsicsConfigError(
            "config mixes explicit intrinsics with field-of-view estimation keys"
        )
    if not entries:
        raise IntrinsicsConfigError("config contains no intrinsics keys")

    def _number(key: str) -> float:
        try:
            return float(entries[key])
        except ValueError:
            raise IntrinsicsConfigError(
                f"value for {key!r} is not a number: {entries[key]!r}"
            ) from None

    if present_explicit:
        missing = _EXPLICIT_KEYS - entries.keys()
        if missing:
            raise IntrinsicsConfigError(
                f"explicit mode missing keys: {', '.join(sorted(missing))}"
            )
        try:
            return CameraIntrinsics(
                fx=_number("fx"), fy=_number("fy"),
                cx=_number("cx"), cy=_number("cy"),
            )
        except InvalidIntrinsicsError as exc:
            raise IntrinsicsConfigError(str(exc)) from exc

    required = {"fov_x_deg", "width", "height"}
    missing = required - entries.keys()
    if missing:
        raise IntrinsicsConfigError(
            f"estimation mode missing keys: {', '.join(sorted(missing))}"
        )
    width_f = _number("width")
    height_f = _number("height")
    if not all(math.isfinite(v) and v == int(v) for v in (width_f, height_f)):
        raise IntrinsicsConfigError("width and height must be integers")
    width, height = int(width_f), int(height_f)
    if grid_shape is not None and grid_shape != (height, width):
        grid_h, grid_w = grid_shape
        raise IntrinsicsConfigError(
            f"camera size {width}x{height} does not match the {grid_w}x{grid_h} "
            "depth grid (width x height)"
        )
    fov_y = _number("fov_y_deg") if "fov_y_deg" in entries else None
    try:
        return estimate_intrinsics_from_fov(width, height, _number("fov_x_deg"), fov_y)
    except (InvalidFovError, InvalidIntrinsicsError) as exc:
        raise IntrinsicsConfigError(str(exc)) from exc


def load_intrinsics(path: str, grid_shape: tuple[int, int] | None = None) -> CameraIntrinsics:
    """Read and parse an intrinsics config file from disk; see :func:`parse_intrinsics_config`."""
    with reading(path, IntrinsicsConfigError, text=True) as text:
        return parse_intrinsics_config(text, grid_shape)
