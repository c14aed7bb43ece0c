"""Binary little-endian PLY export and import for pseudo point clouds.

A file has one layout: the ``_HEADER`` template, with the source grid shape
in its comment line, then the grid's points row-major (row 0 first) as x/y/z
float32 records.  :func:`read_ply` accepts exactly that layout and returns
the (H, W, 3) grid.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import FileError, check_finite, float_array, reading, to_float32, write_output

_HEADER = ("ply\nformat binary_little_endian 1.0\ncomment grid {h} {w}\nelement vertex {n}\n"
           "property float x\nproperty float y\nproperty float z\nend_header\n")
# each number as export_ply writes it, with no leading zero, so an accepted
# header is written back byte for byte; at most 18 digits, since 10**18
# vertices fit no file and int() refuses more than 4,300 digits
_HEADER_PATTERN = re.compile(re.escape(_HEADER).replace(r"\{", "(?P<").replace(
    r"\}", ">[1-9][0-9]{0,17})").encode("ascii"))


def export_ply(path: str, points: np.ndarray) -> None:
    """Write a finite (H, W, 3) point grid as binary little-endian PLY 1.0.

    A point beyond float32's range raises :class:`FileError` and nothing is written.
    """
    points = float_array("point grid", points, (None, None, 3))
    check_finite("point grid", points)
    h, w, _ = points.shape
    # x, y, z little-endian float32 records are the bytes of a C-contiguous (n, 3) <f4 array
    body = to_float32(path, points).astype("<f4", order="C", copy=False)
    write_output(path, _HEADER.format(h=h, w=w, n=h * w).encode("ascii"), body)


def read_ply(path: str) -> np.ndarray:
    """Read a file written by :func:`export_ply` as a read-only (H, W, 3) float32 grid.

    Anything else raises :class:`FileError` naming the path, including a
    body that is not exactly the grid's records and a NaN or infinite vertex.
    """
    with reading(path) as data:
        match = _HEADER_PATTERN.match(data)
        if match is None:
            raise FileError("not a PLY header as export_ply writes it: binary little-endian "
                            "1.0, 'comment grid H W', vertices of float x, y, z")
        h, w, n = (int(match[name]) for name in "hwn")
        if h * w != n:
            raise FileError(f"grid {h}x{w} does not match {n} vertices")
        available = len(data) - match.end()
        if available != 12 * n:
            raise FileError(f"vertex data {'truncated' if available < 12 * n else 'too long'} "
                            f"({available} bytes, need {12 * n})")
        grid = np.frombuffer(data, "<f4", 3 * n, match.end()).reshape(h, w, 3)
        if not np.isfinite(grid).all():
            raise FileError("vertex data contains NaN or infinite values")
        return grid
