"""Exception hierarchy shared by all pseudo3d modules, the one file boundary,
and the one array contract: every array a value type stores is a float64,
finite, read-only copy of the required shape made by :func:`frozen_array`.
"""

from contextlib import contextmanager

import numpy as np


class Pseudo3dError(Exception):
    """Base class for every error raised by this package."""


# --- depth processing ---

class NonFiniteInputError(Pseudo3dError, ValueError):
    """An input array contains NaN or infinity."""


class DegenerateDepthError(Pseudo3dError):
    """A depth range is zero, or a depth or coordinate range overflows float64:
    normalization is undefined."""


class WrongKindError(Pseudo3dError):
    """Operation applied to a depth map of the wrong semantic kind."""


class ZeroScaleError(Pseudo3dError):
    """Disparity simulation called with scale == 0."""


class InvalidDepthError(Pseudo3dError):
    """A depth value violates the positivity required by its use."""


# --- camera ---

class InvalidIntrinsicsError(Pseudo3dError):
    """Focal lengths must be positive and all intrinsics finite."""


class NonPositiveDepthError(Pseudo3dError):
    """Projection requires Z > 0; carries the offending grid indices."""

    def __init__(self, message: str, indices=()):
        super().__init__(message)
        self.indices = tuple(indices)


class InvalidFovError(Pseudo3dError):
    """Field of view outside the open interval (0, 180) degrees."""


class IntrinsicsConfigError(Pseudo3dError):
    """Malformed or ambiguous intrinsics configuration file."""


# --- point clouds ---

class TooSmallError(Pseudo3dError):
    """Grid too small for the requested statistic or encoding."""


class InvalidRangeError(Pseudo3dError):
    """Degenerate synthetic scene range (z_near must be < z_far)."""


class CloudIoError(Pseudo3dError):
    """Point cloud file could not be written or parsed; carries the path."""


# --- encoder / fusion ---

class BadChannelsError(Pseudo3dError):
    """Encoder input must have exactly 3 channels."""


class ShapeMismatchError(Pseudo3dError, ValueError):
    """Tensor shapes incompatible with the requested operation."""


class BadHeadCountError(Pseudo3dError):
    """Channel count not divisible by the attention head count."""


class ParamsIoError(Pseudo3dError):
    """Encoder parameter blob is malformed or truncated."""


# --- policy loss ---

class EmptyDatasetError(Pseudo3dError):
    """Dataset loss requires at least one trajectory."""


# --- the file boundary ---

class DepthFileError(Pseudo3dError):
    """Depth map file could not be parsed; carries the path."""


class ActionsFileError(Pseudo3dError):
    """Actions CSV could not be read or parsed; carries the path."""


@contextmanager
def reading(path: str, error: type[Pseudo3dError], text: bool = False):
    """Yield the bytes of ``path``, or with ``text`` its UTF-8 text with universal newlines.

    A failed read, and any ``error`` raised in the block, becomes an ``error``
    whose message starts with the path.  Other exceptions pass through.
    """
    try:
        with open(path, "r" if text else "rb", encoding="utf-8" if text else None) as fh:
            data = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"{path}: cannot read: {exc}") from exc
    try:
        yield data
    except error as exc:
        raise error(f"{path}: {exc}") from exc


def write_output(path: str, error: type[Pseudo3dError], *chunks) -> None:
    """Write ``chunks`` to ``path`` in order; a failure becomes an ``error`` naming the path."""
    try:
        with open(path, "wb") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise error(f"{path}: cannot write: {exc}") from exc


def to_float32(path: str, error: type[Pseudo3dError], values: np.ndarray) -> np.ndarray:
    """``values`` as float32; a finite value beyond its range raises ``error`` naming ``path``."""
    with np.errstate(over="ignore"):
        narrow = values.astype(np.float32)
    overflow = np.isinf(narrow)
    if overflow.any():  # rare: the float64 pass and np.argwhere's scan cost ms per frame
        overflow &= np.isfinite(values)
        if overflow.any():
            first = tuple(np.argwhere(overflow)[0])
            raise error(f"{path}: {np.count_nonzero(overflow)} value(s) beyond float32's range, "
                        f"first {float(values[first])!r} at row {first[0]}, column {first[1]}")
    return narrow


# --- the array contract ---

def check_finite(name: str, values: np.ndarray) -> None:
    """Raise :class:`NonFiniteInputError` naming ``name`` if any value is NaN or infinite."""
    if not np.isfinite(values).all():
        raise NonFiniteInputError(f"{name} contains NaN or infinite values")


def frozen_array(name: str, values, shape: tuple[int | None, ...]) -> np.ndarray:
    """A float64, finite, read-only copy of ``values``, which must have ``shape``.

    A ``None`` side of ``shape`` matches any length >= 1.  Raises
    :class:`ShapeMismatchError` for a wrong shape and
    :class:`NonFiniteInputError` for a NaN or infinite value.
    """
    if values is None:
        raise ValueError(f"{name} is required")
    arr = np.array(values, dtype=np.float64)  # a copy
    if arr.ndim != len(shape) or not all(
            n >= 1 if want is None else n == want for n, want in zip(arr.shape, shape)):
        raise ShapeMismatchError(
            f"{name} must have shape {str(shape).replace('None', '*')}, got {arr.shape}")
    check_finite(name, arr)
    arr.setflags(write=False)
    return arr
