"""Binary little-endian PLY export for pseudo point clouds.

Vertices are written row-major (row 0 first), x/y/z as float32, with an
optional uchar red/green/blue triple when the cloud carries colors.  The
writer records the source grid shape in a header comment so a re-imported
file can be checked against its (H, W, 3) origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PseudoPointCloud
from .errors import CloudIoError, reading, to_float32, write_output

_XYZ_FIELDS = [("x", "<f4"), ("y", "<f4"), ("z", "<f4")]
_RGB_FIELDS = [("red", "u1"), ("green", "u1"), ("blue", "u1")]
# (type, name) pairs as they appear on "property" header lines
_XYZ_PROPS = [("float", "x"), ("float", "y"), ("float", "z")]
_RGB_PROPS = [("uchar", "red"), ("uchar", "green"), ("uchar", "blue")]


def export_ply(path: str, cloud: PseudoPointCloud) -> None:
    """Write a cloud as binary little-endian PLY 1.0.

    A point beyond float32's range raises :class:`CloudIoError` and nothing is written.
    """
    h, w = cloud.grid_shape
    n = h * w
    has_colors = cloud.colors is not None
    header = [
        "ply",
        "format binary_little_endian 1.0",
        f"comment grid {h} {w}",
        f"element vertex {n}",
        "property float x",
        "property float y",
        "property float z",
    ]
    if has_colors:
        header += ["property uchar red", "property uchar green", "property uchar blue"]
    header.append("end_header")

    # x, y, z little-endian float32 records are the bytes of a C-contiguous (n, 3) <f4 array
    body = to_float32(path, CloudIoError, cloud.points).astype("<f4", order="C", copy=False)
    body = body.reshape(n, 3)
    if has_colors:
        record = np.empty(n, dtype=np.dtype(_XYZ_FIELDS + _RGB_FIELDS))
        record["x"] = body[:, 0]
        record["y"] = body[:, 1]
        record["z"] = body[:, 2]
        flat_cols = cloud.colors.reshape(n, 3)
        record["red"] = flat_cols[:, 0]
        record["green"] = flat_cols[:, 1]
        record["blue"] = flat_cols[:, 2]
        body = record

    write_output(path, CloudIoError, ("\n".join(header) + "\n").encode("ascii"), body)


@dataclass(frozen=True)
class PlyContents:
    """Vertices read back from a PLY file written by :func:`export_ply`."""

    points: np.ndarray                     # (N, 3) float32
    colors: np.ndarray | None              # (N, 3) uint8 or None
    grid_shape: tuple[int, int] | None     # from the grid comment, if present


def read_ply(path: str) -> PlyContents:
    """Parse a binary little-endian PLY with the layouts this module writes."""
    with reading(path, CloudIoError) as data:
        end_marker = b"end_header\n"
        end = data.find(end_marker)
        if not data.startswith(b"ply\n") or end < 0:
            raise CloudIoError("not a PLY file")
        header_lines = data[:end].decode("ascii", errors="replace").splitlines()[1:]
        body = data[end + len(end_marker):]

        n_vertices: int | None = None
        properties: list[tuple[str, str]] = []
        grid_shape: tuple[int, int] | None = None
        fmt_seen = False
        for line in header_lines:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "format":
                if parts[1:] != ["binary_little_endian", "1.0"]:
                    raise CloudIoError(f"unsupported PLY format {line!r}")
                fmt_seen = True
            elif parts[0] == "comment":
                if len(parts) == 4 and parts[1] == "grid":
                    try:
                        grid_shape = (int(parts[2]), int(parts[3]))
                    except ValueError:
                        pass  # unrelated comment that merely starts with "grid"
            elif parts[0] == "element":
                if parts[1:2] != ["vertex"] or n_vertices is not None:
                    raise CloudIoError("only a single vertex element is supported")
                # 10**18 vertices (19 digits) fit no file; int() refuses 4,301 digits
                if len(parts) != 3 or not parts[2].isdigit() or len(parts[2]) > 18:
                    raise CloudIoError(f"bad vertex count in {line!r}")
                n_vertices = int(parts[2])
            elif parts[0] == "property":
                if n_vertices is None:
                    raise CloudIoError("property before element")
                if len(parts) != 3:
                    raise CloudIoError(f"unsupported property {line!r}")
                properties.append((parts[1], parts[2]))
            else:
                raise CloudIoError(f"unsupported PLY header line {line!r}")

        if not fmt_seen or n_vertices is None:
            raise CloudIoError("incomplete PLY header")
        if grid_shape is not None and (min(grid_shape) < 1
                                       or grid_shape[0] * grid_shape[1] != n_vertices):
            raise CloudIoError(f"grid {grid_shape} does not match {n_vertices} vertices")
        if properties == _XYZ_PROPS:
            fields = _XYZ_FIELDS
            has_colors = False
        elif properties == _XYZ_PROPS + _RGB_PROPS:
            fields = _XYZ_FIELDS + _RGB_FIELDS
            has_colors = True
        else:
            raise CloudIoError(f"unsupported vertex layout {properties}")

        dtype = np.dtype(fields)
        expected_bytes = n_vertices * dtype.itemsize
        if len(body) < expected_bytes:
            raise CloudIoError(
                f"vertex data truncated ({len(body)} bytes, need {expected_bytes})"
            )
        record = np.frombuffer(body[:expected_bytes], dtype=dtype)
        points = np.stack([record["x"], record["y"], record["z"]], axis=1)
        colors = None
        if has_colors:
            colors = np.stack([record["red"], record["green"], record["blue"]], axis=1)
        return PlyContents(points=points, colors=colors, grid_shape=grid_shape)
