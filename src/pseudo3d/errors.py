"""Every error the package raises, the file boundary, and the one array contract.

There are nine exception classes, all under :class:`Pseudo3dError`:

* :class:`InvalidInputError` (a value outside its domain),
  :class:`ShapeMismatchError` and :class:`NonFiniteInputError` are also
  ``ValueError`` subclasses;
* :class:`DepthFileError`, :class:`CloudIoError`, :class:`ParamsIoError`,
  :class:`ActionsFileError` and :class:`IntrinsicsConfigError`, one per file
  kind, are not; read through :func:`reading`, their messages start with the path.

Every array a value type stores is a float64, finite, read-only copy of the
required shape made by :func:`frozen_array`.
"""

from contextlib import contextmanager

import numpy as np


class Pseudo3dError(Exception):
    """Base class for every error raised by this package."""


# --- values: all three are ValueErrors ---

class InvalidInputError(Pseudo3dError, ValueError):
    """An argument violates its domain: a degenerate range, a non-positive depth,
    a grid too small, a bad count or size, an unknown name."""


class ShapeMismatchError(Pseudo3dError, ValueError):
    """Array shapes, or a channel count, incompatible with the requested operation."""


class NonFiniteInputError(Pseudo3dError, ValueError):
    """An input array contains NaN or infinity."""


# --- the file boundary: one class per file kind ---

class DepthFileError(Pseudo3dError):
    """Depth map file could not be read, parsed or written."""


class CloudIoError(Pseudo3dError):
    """Point cloud file could not be read, parsed or written."""


class ParamsIoError(Pseudo3dError):
    """Encoder parameter file is malformed or truncated, or could not be written."""


class ActionsFileError(Pseudo3dError):
    """Actions CSV could not be read or parsed."""


class IntrinsicsConfigError(Pseudo3dError):
    """Malformed or ambiguous intrinsics configuration file."""


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


def check_no_overflow(name: str, *outputs: np.ndarray) -> None:
    """Raise :class:`InvalidInputError` if an output that ``name`` computed from
    finite inputs is NaN or infinite.

    ``name`` runs its arithmetic under ``np.errstate(over="ignore",
    invalid="ignore")`` and checks each returned array once; the
    floating-point flags a BLAS call leaves behind are no signal.
    """
    if not all(np.isfinite(out).all() for out in outputs):
        raise InvalidInputError(f"{name}: finite inputs overflow float64")


def frozen_array(name: str, values, shape: tuple[int | None, ...]) -> np.ndarray:
    """A float64, finite, read-only copy of ``values``, which must have ``shape``.

    A ``None`` side of ``shape`` matches any length >= 1.  Raises
    :class:`ShapeMismatchError` for a wrong shape and
    :class:`NonFiniteInputError` for a NaN or infinite value.
    """
    if values is None:
        raise InvalidInputError(f"{name} is required")
    arr = np.array(values, dtype=np.float64)  # a copy
    if arr.ndim != len(shape) or not all(
            n >= 1 if want is None else n == want for n, want in zip(arr.shape, shape)):
        raise ShapeMismatchError(
            f"{name} must have shape {str(shape).replace('None', '*')}, got {arr.shape}")
    check_finite(name, arr)
    arr.setflags(write=False)
    return arr
