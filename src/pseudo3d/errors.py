"""Exception hierarchy shared by all pseudo3d modules, and the one file boundary."""

from contextlib import contextmanager


class Pseudo3dError(Exception):
    """Base class for every error raised by this package."""


# --- depth processing ---

class NonFiniteInputError(Pseudo3dError):
    """A depth grid contains NaN or infinity."""


class DegenerateDepthError(Pseudo3dError):
    """Depth range is zero or overflows float64: normalization is undefined."""


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


class ShapeMismatchError(Pseudo3dError):
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
