"""Readers and writers for single-channel depth files: PFM, 8- or 16-bit PGM, CSV.

All readers return an (H, W) float64 array in the conventional image
orientation (row 0 at the top).  Writers exist mainly to build fixtures
and to let the readers be exercised against independently constructed
bytes; they mirror the readers' conventions exactly.
"""

from __future__ import annotations

import io
import re
import warnings

import numpy as np

from .depth import DepthKind
from .errors import (FileError, InvalidInputError, NonFiniteInputError, bad_row, check_finite,
                     data_line, float_array, reading, to_float32, write_output)

# magic, width, height, scale, then exactly one whitespace byte before raster
_PFM_HEADER = re.compile(rb"^(P[fF])\s+(\d+)\s+(\d+)\s+([-+]?[0-9.eE+-]+)\s")
# magic, width, height, maxval of 1 to 9 digits each, then exactly one whitespace
# byte before raster; "#" comment lines may come before and between them.  A
# comment ends at a newline: one that may end anywhere backtracks exponentially.
_SKIP = rb"(?:\s|#[^\n]*(?:\n|$))*"
_PGM_HEADER = re.compile(_SKIP + rb"P5" + (rb"\s" + _SKIP + rb"(\d{1,9})") * 3 + rb"\s")


def read_pfm(path: str) -> np.ndarray:
    """Read a grayscale PFM file.

    The scale line's sign selects endianness (negative = little-endian);
    its magnitude is ignored.  Rows are stored bottom-to-top and are
    flipped to top-to-bottom on read.  Samples are float32 widened to
    float64.  The raster must be exactly width * height samples.
    """
    with reading(path) as data:
        m = _PFM_HEADER.match(data[:128])
        if m is None:
            raise FileError("not a valid PFM header")
        magic = m.group(1)
        if magic != b"Pf":
            raise FileError(f"only grayscale 'Pf' is supported, got {magic.decode()!r}")
        width = int(m.group(2))
        height = int(m.group(3))
        try:
            scale = float(m.group(4))
        except ValueError:
            raise FileError(f"malformed PFM scale {m.group(4)!r}") from None
        if scale == 0.0 or width < 1 or height < 1:
            raise FileError("malformed PFM header")
        raster = data[m.end():]
        expected = width * height * 4
        if len(raster) != expected:
            state = "truncated" if len(raster) < expected else "too long"
            raise FileError(f"PFM raster {state} ({len(raster)} bytes, need {expected})")
        dtype = "<f4" if scale < 0.0 else ">f4"
        grid = np.frombuffer(raster, dtype=dtype).reshape(height, width)
        return np.flipud(grid).astype(np.float64)


def write_pfm(path: str, values: np.ndarray) -> None:
    """Write an (H, W) array as little-endian grayscale PFM (scale -1.0).

    A finite value beyond float32's range raises :class:`FileError`
    and nothing is written; NaN and infinities are written as they are.
    """
    arr = to_float32(path, float_array("depth grid", values, (None, None)))
    h, w = arr.shape
    write_output(path, b"Pf\n%d %d\n-1.0\n" % (w, h), np.flipud(arr).astype("<f4").tobytes())


def read_pgm(path: str) -> np.ndarray:
    """Read a binary (P5) PGM file and map samples to [0, 1] as v / maxval.

    Samples are one byte when maxval < 256, otherwise two bytes big-endian,
    per the format.  Header fields are 1 to 9 digits; ``#`` comment lines are
    skipped.  Bytes after the raster are ignored: Netpbm allows a sequence of
    images in one file, and this reads the first.
    """
    with reading(path) as data:
        m = _PGM_HEADER.match(data)
        if m is None:
            raise FileError("malformed PGM header: expected 'P5' and three 1-9 digit fields")
        width, height, maxval = map(int, m.groups())
        if width < 1 or height < 1 or not 0 < maxval < 65536:
            raise FileError("malformed PGM header")
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        expected = width * height * dtype.itemsize
        raster = data[m.end():m.end() + expected]
        if len(raster) < expected:
            raise FileError(f"PGM raster truncated ({len(raster)} bytes, need {expected})")
        samples = np.frombuffer(raster, dtype=dtype).reshape(height, width)
        if samples.max(initial=0) > maxval:
            raise FileError(f"PGM sample exceeds maxval {maxval}")
        return samples.astype(np.float64) / float(maxval)


def write_pgm(path: str, samples: np.ndarray, maxval: int) -> None:
    """Write raw integer samples as binary PGM with the given maxval."""
    arr = float_array("PGM samples", samples, (None, None))
    if isinstance(maxval, (bool, np.bool_)):  # True would pass as maxval 1
        raise InvalidInputError(f"maxval must be an integer, got {maxval!r}")
    if not (0 < maxval < 65536 and maxval == int(maxval)):  # the header writes an integer
        raise InvalidInputError(f"maxval must be an integer in [1, 65535], got {maxval}")
    if not (arr.min() >= 0 and arr.max() <= maxval):  # NaN fails too
        raise InvalidInputError("PGM samples must lie in [0, maxval]")
    if not np.array_equal(arr, np.floor(arr)):  # astype would truncate them
        raise InvalidInputError("PGM samples must be integers")
    h, w = arr.shape
    dtype = ">u2" if maxval > 255 else "u1"
    write_output(path, b"P5\n%d %d\n%d\n" % (w, h, maxval), arr.astype(dtype).tobytes())


def read_csv(path: str) -> np.ndarray:
    """Read a headerless comma-separated grid of numbers, streamed from the file.

    A malformed file is read again to name its first bad row, as
    :func:`~pseudo3d.policy_loss.read_actions_csv` does, with the first row's width.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no data: the error below says so
            grid = np.loadtxt((line for line in fh if data_line(line)), delimiter=",",
                              comments=None, ndmin=2)
    except (OSError, UnicodeDecodeError) as exc:
        raise FileError(f"{path}: cannot read: {exc}") from exc
    except ValueError as exc:
        with reading(path, text=True) as text:
            lines = [line for line in text.split("\n") if data_line(line)]
            raise FileError(f"malformed CSV: {bad_row(lines, len(lines[0].split(',')))}") from exc
    if grid.size == 0:
        raise FileError(f"{path}: empty CSV grid")
    return grid


def write_csv(path: str, values: np.ndarray) -> None:
    """Write an (H, W) array as CSV with round-trip-exact formatting."""
    buf = io.BytesIO()
    np.savetxt(buf, float_array("depth grid", values, (None, None)), delimiter=",", fmt="%.17g")
    write_output(path, buf.getvalue())


READERS = {"pfm": read_pfm, "pgm": read_pgm, "csv": read_csv}


def load_depth_map(path: str, fmt: str, kind: DepthKind) -> np.ndarray:
    """Read a depth file in the named format as an (H, W) float64 grid.

    ``kind`` must be a :class:`~pseudo3d.depth.DepthKind` and changes no
    result.  A NaN or infinite sample raises :class:`FileError` naming the path.
    """
    if fmt not in READERS:
        raise InvalidInputError(f"unknown depth format {fmt!r}; expected one of {sorted(READERS)}")
    if not isinstance(kind, DepthKind):
        raise InvalidInputError(f"kind must be a DepthKind, got {kind!r}")
    values = READERS[fmt](path)
    try:
        check_finite("depth grid", values)
    except NonFiniteInputError as exc:
        raise FileError(f"{path}: {exc}") from exc
    return values
