"""A small trainable convolutional encoder for 3-channel coordinate maps.

Architecture: Conv(3 -> 16, 3x3, stride 2, pad 1) -> ReLU ->
Conv(16 -> C, 3x3, stride 2, pad 1), so an (3, H, W) coordinate map
becomes a (ceil(H/4), ceil(W/4), C) channels-last feature map.

Each convolution is one matmul in GEMM form (Chellapilla, Puri & Simard
2006): :func:`_columns` copies each of the nine taps straight from the
input into a (Ci*9, Ho*Wo) patch matrix and zeroes only where a tap falls
on the padding.  The analytic backward pass (:func:`encode_backward`) takes
the weight gradient from those columns and frees them, takes every tap's
input gradient in one more matmul, and :func:`_col2im` sums the taps back
by input parity (Dumoulin & Visin 2016, sec. 4): an even row or column
meets one tap and an odd one two, so each parity block of the input
gradient is written once.  Everything is plain numpy, validated against a
loop adjoint and central finite differences in the test suite.

Finite inputs whose result overflows float64 raise :class:`InvalidInputError`.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidInputError, NonFiniteInputError, ParamsIoError, ShapeMismatchError,
                     check_finite, check_no_overflow, frozen_array, reading, write_output)
from .fusion import _init_weights

HIDDEN_CHANNELS = 16
KERNEL = 3
STRIDE = 2
MIN_SIDE = 4

_MAGIC = b"PENC"
_VERSION = 1


def _param_shapes(c: int) -> dict[str, tuple[int, ...]]:
    """The parameter arrays at C output channels, in file and initialization order."""
    return {
        "w1": (HIDDEN_CHANNELS, 3, KERNEL, KERNEL),
        "b1": (HIDDEN_CHANNELS,),
        "w2": (c, HIDDEN_CHANNELS, KERNEL, KERNEL),
        "b2": (c,),
    }


@dataclass(frozen=True)
class EncoderParams:
    """Weights and biases of the two conv layers, all float64."""

    w1: np.ndarray  # (16, 3, 3, 3)
    b1: np.ndarray  # (16,)
    w2: np.ndarray  # (C, 16, 3, 3)
    b2: np.ndarray  # (C,)

    def __post_init__(self) -> None:
        c = max(np.shape(self.w2)[0], 1) if np.ndim(self.w2) == 4 else 1
        for name, shape in _param_shapes(c).items():
            object.__setattr__(self, name, frozen_array(name, getattr(self, name), shape))

    @property
    def out_channels(self) -> int:
        return self.w2.shape[0]


def init_params(out_channels: int, seed: int) -> EncoderParams:
    """Seeded initialization: uniform +-1/sqrt(fan_in) weights, zero biases."""
    if out_channels < 1:
        raise InvalidInputError(f"out_channels must be >= 1, got {out_channels}")
    return EncoderParams(**_init_weights(_param_shapes(out_channels), seed))


def _as_planar(grid: np.ndarray) -> np.ndarray:
    """``grid`` as a float64 (3, H, W) array, checked finite but not copied."""
    arr = np.asarray(grid, dtype=np.float64)
    if arr.ndim != 3:
        raise ShapeMismatchError(f"encoder input must be (3, H, W), got {arr.shape}")
    if arr.shape[0] != 3:
        raise ShapeMismatchError(f"encoder input must have exactly 3 channels, got {arr.shape[0]}")
    check_finite("coordinate map", arr)
    return arr


def _encoder_input(grid: np.ndarray) -> np.ndarray:
    arr = _as_planar(grid)
    _, h, w = arr.shape
    if h < MIN_SIDE or w < MIN_SIDE:
        raise InvalidInputError(f"encoder needs at least {MIN_SIDE}x{MIN_SIDE}, got {h}x{w}")
    return arr


def _segments(n: int) -> list[tuple[slice, list[tuple[int, slice]]]]:
    """Input positions along an axis of length n, grouped by the kernel taps that read them.

    At stride 2 and pad 1, output i's tap k reads input 2i + k - 1.  Even inputs are read by tap 1
    only; odd inputs by tap 0 of output i + 1 and then tap 2 of output i,
    except that on an even side the last input has no output i + 1.  Each
    group is (input positions, [(k, output positions), ...]) in tap order.
    """
    last = (n - 1) // STRIDE  # the last output; odd inputs 1 .. 2*last - 1 meet two taps
    groups = [(slice(0, n, STRIDE), [(1, slice(0, last + 1))]),
              (slice(1, 2 * last, STRIDE), [(0, slice(1, last + 1)), (2, slice(0, last))])]
    if n % 2 == 0:
        groups.append((slice(n - 1, n), [(2, slice(last, last + 1))]))
    return groups


def _columns(x: np.ndarray) -> np.ndarray:
    """im2col: (Ci, H, W) -> (Ci*9, Ho*Wo), rows ordered like ``w.reshape(Co, -1)``.

    Each block of ``x`` is copied straight into every tap that reads it; only
    the border rows and columns where a tap falls on the padding are zeroed.
    """
    ci, h, wd = x.shape
    out = np.empty((ci, KERNEL, KERNEL, (h - 1) // STRIDE + 1, (wd - 1) // STRIDE + 1))
    out[:, 0, :, 0] = 0.0  # tap 0 of the first output row or column is padding
    out[:, :, 0, :, 0] = 0.0
    if h % 2:  # so is tap 2 of the last one on an odd side
        out[:, 2, :, -1] = 0.0
    if wd % 2:
        out[:, :, 2, :, -1] = 0.0
    for rows, row_taps in _segments(h):
        for columns, col_taps in _segments(wd):
            block = x[:, rows, columns]
            for k, i in row_taps:
                for l, j in col_taps:
                    out[:, k, l, i, j] = block
    return out.reshape(ci * KERNEL * KERNEL, -1)


def _col2im(taps: np.ndarray, ci: int, h: int, wd: int) -> np.ndarray:
    """Adjoint of :func:`_columns`: (Ci*9, Ho*Wo) tap gradients -> (Ci, H, W).

    Each block of a fresh ``dx`` is written once from the tap planes that
    read it, the first assigned and the rest added in (k, l) order, so every
    sum is the one nine strided adds into a zeroed buffer would give (but
    for the sign of a zero).
    """
    t = taps.reshape(ci, KERNEL, KERNEL, (h - 1) // STRIDE + 1, (wd - 1) // STRIDE + 1)
    dx = np.empty((ci, h, wd))
    for rows, row_taps in _segments(h):
        for columns, col_taps in _segments(wd):
            planes = [t[:, k, l, i, j] for k, i in row_taps for l, j in col_taps]
            block = dx[:, rows, columns]
            if len(planes) == 1:
                block[...] = planes[0]
            else:
                np.add(planes[0], planes[1], out=block)
                for plane in planes[2:]:
                    block += plane
    return dx


def _conv_s2p1(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """3x3 stride-2 pad-1 convolution; x (Ci, H, W) -> (Co, ceil(H/2), ceil(W/2))."""
    _, h, wd = x.shape
    out = w.reshape(w.shape[0], -1) @ _columns(x)
    out += b[:, np.newaxis]
    return out.reshape(w.shape[0], (h - 1) // STRIDE + 1, (wd - 1) // STRIDE + 1)


def _conv_s2p1_backward(
    x: np.ndarray, w: np.ndarray, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the stride-2 conv: returns (dx, dw, db) for upstream g."""
    ci, h, wd = x.shape
    co, ho, wo = g.shape
    g = g.reshape(co, ho * wo)
    dw = (_columns(x) @ g.T).T.reshape(w.shape)  # the columns are freed here
    taps = w.reshape(co, -1).T @ g  # every tap's input gradient, (Ci*9, Ho*Wo)
    return _col2im(taps, ci, h, wd), dw, g.sum(axis=1)


def encode(grid: np.ndarray, params: EncoderParams) -> np.ndarray:
    """Run the encoder on a (3, H, W) coordinate map; returns (H', W', C) features.

    A finite map whose features overflow float64 raises :class:`InvalidInputError`.
    """
    x = _encoder_input(grid)
    with np.errstate(over="ignore", invalid="ignore"):
        a1 = _conv_s2p1(x, params.w1, params.b1)
        np.maximum(a1, 0.0, out=a1)
        z2 = _conv_s2p1(a1, params.w2, params.b2)
    check_no_overflow("encode", z2)
    return np.ascontiguousarray(z2.transpose(1, 2, 0))


def output_shape(height: int, width: int, out_channels: int) -> tuple[int, int, int]:
    """Feature-map shape for an (3, height, width) input."""
    h1 = (height - 1) // STRIDE + 1
    w1 = (width - 1) // STRIDE + 1
    return ((h1 - 1) // STRIDE + 1, (w1 - 1) // STRIDE + 1, out_channels)


@dataclass(frozen=True)
class EncoderGradients:
    """Analytic gradients of a scalar loss with respect to every input."""

    dx: np.ndarray   # (3, H, W) gradient w.r.t. the coordinate map
    dw1: np.ndarray
    db1: np.ndarray
    dw2: np.ndarray
    db2: np.ndarray


def encode_backward(
    grid: np.ndarray,
    params: EncoderParams,
    grad_out: np.ndarray,
) -> EncoderGradients:
    """Backpropagate ``grad_out`` (channels-last, matching :func:`encode`).

    Recomputes the hidden layer from ``grid``, so callers never manage
    intermediate activations.  Finite inputs whose gradients overflow
    float64 raise :class:`InvalidInputError`.
    """
    x = _encoder_input(grid)
    g = np.asarray(grad_out, dtype=np.float64)
    expected = output_shape(x.shape[1], x.shape[2], params.out_channels)
    if g.shape != expected:
        raise ShapeMismatchError(
            f"grad_out shape {g.shape} does not match encoder output {expected}"
        )
    check_finite("grad_out", g)
    with np.errstate(over="ignore", invalid="ignore"):
        a1 = _conv_s2p1(x, params.w1, params.b1)
        np.maximum(a1, 0.0, out=a1)
        g2 = np.ascontiguousarray(g.transpose(2, 0, 1))
        da1, dw2, db2 = _conv_s2p1_backward(a1, params.w2, g2)
        da1 *= a1 > 0.0  # a1 > 0 exactly where z1 > 0
        del a1, g2  # not alive beside the first layer's columns
        dx, dw1, db1 = _conv_s2p1_backward(x, params.w1, da1)
    check_no_overflow("encode_backward", dx, dw1, db1, dw2, db2)
    return EncoderGradients(dx=dx, dw1=dw1, db1=db1, dw2=dw2, db2=db2)


def normalize_coordinate_map(
    cmap: np.ndarray,
) -> tuple[np.ndarray, tuple[bool, bool, bool]]:
    """Standardize each channel of a (3, H, W) coordinate map to zero mean, unit spread.

    Uses the population standard deviation.  A channel with zero spread
    (for example Z on a constant-depth wall) is passed through untouched;
    the returned flags mark which channels were constant so callers can
    see the skip rather than silently dividing by zero.  A channel whose
    mean or spread overflows float64 raises :class:`InvalidInputError`.
    """
    data = _as_planar(cmap)
    out = np.empty_like(data)
    flags = []
    for c in range(3):
        channel = data[c]
        with np.errstate(over="ignore", invalid="ignore"):
            mean = channel.mean()
            std = channel.std()
        if not np.isfinite(std):
            raise InvalidInputError(f"coordinate map channel {'XYZ'[c]}: spread "
                                    "overflows float64, cannot normalize")
        if std == 0.0:
            out[c] = channel
            flags.append(True)
        else:
            np.subtract(channel, mean, out=out[c])
            out[c] /= std
            flags.append(False)
    return out, (flags[0], flags[1], flags[2])


def save_params(path: str, params: EncoderParams) -> None:
    """Serialize parameters as a little-endian binary blob."""
    c = params.out_channels
    arrays = (np.ascontiguousarray(getattr(params, name), dtype="<f8") for name in _param_shapes(c))
    write_output(path, ParamsIoError, _MAGIC, struct.pack("<II", _VERSION, c), *arrays)


def load_params(path: str) -> EncoderParams:
    """Inverse of :func:`save_params`; validates magic, version, and size."""
    with reading(path, ParamsIoError) as data:
        head = len(_MAGIC) + 8
        if len(data) < head or data[:4] != _MAGIC:
            raise ParamsIoError("not an encoder parameter file")
        version, c = struct.unpack("<II", data[4:head])
        if version != _VERSION:
            raise ParamsIoError(f"unsupported version {version}")
        if c < 1:
            raise ParamsIoError(f"invalid channel count {c}")
        shapes = _param_shapes(c)
        expected = head + 8 * sum(math.prod(shape) for shape in shapes.values())
        if len(data) != expected:
            raise ParamsIoError(
                f"blob is {len(data)} bytes, expected {expected} for C={c}"
            )
        offset = head
        arrays = {}
        for name, shape in shapes.items():
            count = math.prod(shape)
            arrays[name] = np.frombuffer(data, "<f8", count, offset).reshape(shape)
            offset += 8 * count
        try:
            return EncoderParams(**arrays)
        except NonFiniteInputError as exc:
            raise ParamsIoError(str(exc)) from exc
