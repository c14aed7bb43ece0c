"""Readers and writers for single-channel depth files: PFM, 16-bit PGM, CSV.

All readers return an (H, W) float64 array in the conventional image
orientation (row 0 at the top).  Writers exist mainly to build fixtures
and to let the readers be exercised against independently constructed
bytes; they mirror the readers' conventions exactly.
"""

from __future__ import annotations

import io
import re

import numpy as np

from .depth import DepthKind, DepthMap
from .errors import DepthFileError, reading, to_float32, write_output

# magic, width, height, scale, then exactly one whitespace byte before raster
_PFM_HEADER = re.compile(rb"^(P[fF])\s+(\d+)\s+(\d+)\s+([-+]?[0-9.eE+-]+)\s")


def read_pfm(path: str) -> np.ndarray:
    """Read a grayscale PFM file.

    The scale line's sign selects endianness (negative = little-endian);
    its magnitude is ignored.  Rows are stored bottom-to-top and are
    flipped to top-to-bottom on read.  Samples are float32 widened to
    float64.
    """
    with reading(path, DepthFileError) as data:
        m = _PFM_HEADER.match(data[:128])
        if m is None:
            raise DepthFileError("not a valid PFM header")
        magic = m.group(1)
        if magic != b"Pf":
            raise DepthFileError(f"only grayscale 'Pf' is supported, got {magic.decode()!r}")
        width = int(m.group(2))
        height = int(m.group(3))
        try:
            scale = float(m.group(4))
        except ValueError:
            raise DepthFileError(f"malformed PFM scale {m.group(4)!r}") from None
        if scale == 0.0 or width < 1 or height < 1:
            raise DepthFileError("malformed PFM header")
        raster = data[m.end():]
        expected = width * height * 4
        if len(raster) < expected:
            raise DepthFileError(
                f"PFM raster truncated ({len(raster)} bytes, need {expected})"
            )
        dtype = "<f4" if scale < 0.0 else ">f4"
        grid = np.frombuffer(raster[:expected], dtype=dtype).reshape(height, width)
        return np.flipud(grid).astype(np.float64)


def write_pfm(path: str, values: np.ndarray) -> None:
    """Write an (H, W) array as little-endian grayscale PFM (scale -1.0).

    A finite value beyond float32's range raises :class:`DepthFileError`
    and nothing is written; NaN and infinities are written as they are.
    """
    wide = np.asarray(values, dtype=np.float64)
    if wide.ndim != 2:
        raise ValueError(f"PFM writer needs a 2-D array, got {wide.shape}")
    arr = to_float32(path, DepthFileError, wide)
    h, w = arr.shape
    write_output(path, DepthFileError, b"Pf\n%d %d\n-1.0\n" % (w, h),
                 np.flipud(arr).astype("<f4").tobytes())


def read_pgm(path: str) -> np.ndarray:
    """Read a binary (P5) PGM file and map samples to [0, 1] as v / maxval.

    Samples are one byte when maxval < 256, otherwise two bytes stored
    big-endian, per the format.  Header ``#`` comments are skipped.
    """
    with reading(path, DepthFileError) as data:
        pos = 0

        def _token() -> bytes:
            nonlocal pos
            while pos < len(data):
                if data[pos:pos + 1].isspace():
                    pos += 1
                elif data[pos:pos + 1] == b"#":
                    nl = data.find(b"\n", pos)
                    pos = len(data) if nl < 0 else nl + 1
                else:
                    break
            start = pos
            while pos < len(data) and not data[pos:pos + 1].isspace():
                pos += 1
            if start == pos:
                raise DepthFileError("truncated PGM header")
            return data[start:pos]

        magic = _token()
        if magic != b"P5":
            raise DepthFileError(f"expected binary PGM magic 'P5', got {magic!r}")
        try:
            width = int(_token())
            height = int(_token())
            maxval = int(_token())
        except ValueError:
            raise DepthFileError("non-numeric PGM header field") from None
        if width < 1 or height < 1 or not 0 < maxval < 65536:
            raise DepthFileError("malformed PGM header")
        pos += 1  # single whitespace byte between header and raster
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        expected = width * height * dtype.itemsize
        raster = data[pos:pos + expected]
        if len(raster) < expected:
            raise DepthFileError(
                f"PGM raster truncated ({len(raster)} bytes, need {expected})"
            )
        samples = np.frombuffer(raster, dtype=dtype).reshape(height, width)
        if samples.max(initial=0) > maxval:
            raise DepthFileError(f"PGM sample exceeds maxval {maxval}")
        return samples.astype(np.float64) / float(maxval)


def write_pgm(path: str, samples: np.ndarray, maxval: int) -> None:
    """Write raw integer samples as binary PGM with the given maxval."""
    arr = np.asarray(samples)
    if arr.ndim != 2:
        raise ValueError(f"PGM writer needs a 2-D array, got {arr.shape}")
    if not 0 < maxval < 65536:
        raise ValueError(f"maxval must be in [1, 65535], got {maxval}")
    if arr.min(initial=0) < 0 or arr.max(initial=0) > maxval:
        raise ValueError("PGM samples must lie in [0, maxval]")
    h, w = arr.shape
    dtype = ">u2" if maxval > 255 else "u1"
    write_output(path, DepthFileError, b"P5\n%d %d\n%d\n" % (w, h, maxval),
                 arr.astype(dtype).tobytes())


def read_csv(path: str) -> np.ndarray:
    """Read a headerless comma-separated grid of numbers."""
    with reading(path, DepthFileError, text=True) as text:
        if not text.strip():
            raise DepthFileError("empty CSV grid")
        try:
            grid = np.loadtxt(io.StringIO(text), delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise DepthFileError(f"malformed CSV: {exc}") from exc
        if grid.size == 0:
            raise DepthFileError("empty CSV grid")
        return grid


def write_csv(path: str, values: np.ndarray) -> None:
    """Write an (H, W) array as CSV with round-trip-exact formatting."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"CSV writer needs a 2-D array, got {arr.shape}")
    buf = io.BytesIO()
    np.savetxt(buf, arr, delimiter=",", fmt="%.17g")
    write_output(path, DepthFileError, buf.getvalue())


_READERS = {"pfm": read_pfm, "pgm": read_pgm, "csv": read_csv}


def load_depth_map(path: str, fmt: str, kind: DepthKind) -> DepthMap:
    """Read a depth file in the named format and tag it with a kind."""
    try:
        reader = _READERS[fmt]
    except KeyError:
        raise ValueError(f"unknown depth format {fmt!r}; expected one of {sorted(_READERS)}") from None
    return DepthMap(reader(path), kind)
