"""Every error the package raises, the file boundary, and the one array contract.

There are four exception classes, all under :class:`Pseudo3dError`:

* :class:`InvalidInputError` (a value outside its domain, or an array of the
  wrong shape) and :class:`NonFiniteInputError` are also ``ValueError`` subclasses;
* :class:`FileError`, for every file the package reads or writes, is not;
  read through :func:`reading`, its message starts with the path.

Every array argument goes through :func:`float_array`, which checks its shape
and copies nothing that is already float64; a caller that needs finite values
calls :func:`check_finite` on the result.  Every array a value type stores is a
float64, finite, read-only copy of the required shape made by :func:`frozen_array`.
"""

import warnings
from contextlib import contextmanager

import numpy as np


class Pseudo3dError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(Pseudo3dError, ValueError):
    """An argument violates its domain: a degenerate range, a non-positive depth,
    a grid too small, a bad count or size, an unknown name, a wrong shape."""


class NonFiniteInputError(Pseudo3dError, ValueError):
    """An input array contains NaN or infinity."""


class FileError(Pseudo3dError):
    """A depth map, intrinsics, encoder parameter, actions or point cloud file
    could not be read, parsed or written."""


@contextmanager
def reading(path: str, text: bool = False):
    """Yield the bytes of ``path``, or with ``text`` its UTF-8 text, less a BOM, newlines universal.

    A failed read, and any :class:`FileError` raised in the block, becomes a
    :class:`FileError` whose message starts with the path.  Other exceptions pass through.
    """
    try:
        with open(path, "r" if text else "rb", encoding="utf-8-sig" if text else None) as fh:
            data = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FileError(f"{path}: cannot read: {exc}") from exc
    try:
        yield data
    except FileError as exc:
        raise FileError(f"{path}: {exc}") from exc


def data_line(line: str) -> bool:
    """False for a blank line of a text file, or one whose first non-blank character is ``#``."""
    return line.lstrip()[:1] not in ("", "#")


def number_rows(lines) -> np.ndarray | None:
    """``lines`` of comma-separated numbers as a 2-D float64 array, or None."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # no data: an empty cell
            return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except (ValueError, UserWarning):
        return None


def bad_row(lines: list[str], width: int, start: int = 1, finite: bool = False) -> str | None:
    """Name the first of ``lines``, counted from ``start``, that has other than
    ``width`` cells, or a cell that is not a number (with ``finite``, a finite one)."""
    for i, line in enumerate(lines, start=start):
        row, values = line.split(","), number_rows([line])
        if len(row) != width:
            return f"row {i} has {len(row)} columns, expected {width}"
        if values is None:
            return f"row {i} is not numeric: {row}"
        if finite and not np.isfinite(values).all():
            return f"row {i} is not finite: {row}"
    return None


def write_output(path: str, *chunks) -> None:
    """Write ``chunks`` to ``path`` in order; a failure raises :class:`FileError` naming it."""
    try:
        with open(path, "wb") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise FileError(f"{path}: cannot write: {exc}") from exc


def to_float32(path: str, values: np.ndarray) -> np.ndarray:
    """``values`` as float32; a finite value beyond its range raises :class:`FileError`."""
    with np.errstate(over="ignore"):
        narrow = values.astype(np.float32)
    overflow = np.isinf(narrow)
    if overflow.any():  # rare: the float64 pass and np.argwhere's scan cost ms per frame
        overflow &= np.isfinite(values)
        if overflow.any():
            first = tuple(np.argwhere(overflow)[0])
            raise FileError(f"{path}: {np.count_nonzero(overflow)} value(s) beyond float32's "
                            f"range, first {float(values[first])!r} at row {first[0]}, "
                            f"column {first[1]}")
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


def check_integer(name: str, value) -> None:
    """Raise :class:`InvalidInputError` unless ``value`` is an integer (numpy's too), not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")


def check_count(name: str, value) -> None:
    """Raise :class:`InvalidInputError` unless ``value`` passes :func:`check_integer` and is >= 1."""
    check_integer(name, value)
    if value < 1:
        raise InvalidInputError(f"{name} must be >= 1, got {value}")


def float_array(name: str, values, shape: tuple[int | None, ...] | None) -> np.ndarray:
    """``values`` as a float64 array of ``shape``, not copied if it already is one.

    A ``None`` side of ``shape`` matches any length >= 1, and ``shape=None``
    any shape.  Values that are not numbers, or a ragged list, raise
    :class:`InvalidInputError`, and so does a wrong shape.
    """
    if values is None:
        raise InvalidInputError(f"{name} is required")
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{name} is not an array of numbers: {exc}") from None
    if shape is not None and (arr.ndim != len(shape) or not all(
            n >= 1 if want is None else n == want for n, want in zip(arr.shape, shape))):
        raise InvalidInputError(
            f"{name} must have shape {str(shape).replace('None', '*')}, got {arr.shape}")
    return arr


def frozen_array(name: str, values, shape: tuple[int | None, ...]) -> np.ndarray:
    """A finite, read-only copy of :func:`float_array`'s result, for a value type to store."""
    arr = np.array(float_array(name, values, shape))  # a copy, in the input's memory order
    check_finite(name, arr)
    arr.setflags(write=False)
    return arr
