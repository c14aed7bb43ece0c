"""A small trainable convolutional encoder for 3-channel coordinate maps.

Architecture: Conv(3 -> 16, 3x3, stride 2, pad 1) -> ReLU ->
Conv(16 -> C, 3x3, stride 2, pad 1), so an (3, H, W) coordinate map
becomes a (ceil(H/4), ceil(W/4), C) channels-last feature map.

Each convolution runs in GEMM form (Chellapilla, Puri & Simard 2006), one
band of output rows at a time (Anderson et al. 2017; Cho & Brand 2017):
:func:`_columns` copies each of the nine taps straight from the input into
the band's (Ci*9, rows*Wo) patch matrix and zeroes only where a tap falls on
the padding, and one matmul fills the band of the output.  A band's columns
take about ``_BAND_BYTES`` (1 MiB), so they stay in cache and a pass holds
its activations and a few bands, never a whole-frame patch matrix.  The
analytic backward pass (:func:`encode_backward`) takes each band's share of
the weight gradient from its columns and sums the shares band by band; one
more matmul gives the tap gradients of the band's rows and of the next
band's first, and :func:`_col2im` sums them back by input parity (Dumoulin
& Visin 2016, sec. 4): an even row or column meets one tap and an odd one
two, so each parity block of the band's input-gradient rows is written
once.  The weight gradients move with the band height by summation order.
The outputs and input gradient are the bytes of one whole-frame product
where BLAS splits the band products the same way, as it does for every
frame of one band and for the tested frames whose widths are multiples of
8; elsewhere their last bits can move.  Everything is plain numpy, validated against a loop adjoint and
central finite differences in the test suite.

Finite inputs whose result overflows float64 raise :class:`InvalidInputError`.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidInputError, NonFiniteInputError, ParamsIoError, check_finite,
                     check_no_overflow, float_array, frozen_array, reading, write_output)
from .fusion import _init_weights

HIDDEN_CHANNELS = 16
KERNEL = 3
STRIDE = 2
MIN_SIDE = 4

_MAGIC = b"PENC"
_VERSION = 1

# bytes of one band's (Ci*9, rows*Wo) columns: small enough to stay in cache
# while a band is copied, multiplied and (backward) scattered back
_BAND_BYTES = 1 << 20


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


def _encoder_input(grid: np.ndarray) -> np.ndarray:
    arr = float_array("coordinate map", grid, (3, None, None))
    check_finite("coordinate map", arr)
    _, h, w = arr.shape
    if h < MIN_SIDE or w < MIN_SIDE:
        raise InvalidInputError(f"encoder needs at least {MIN_SIDE}x{MIN_SIDE}, got {h}x{w}")
    return arr


def _band_rows(ci: int, wo: int) -> int:
    """Output rows per band: as many as fit one band's columns in ``_BAND_BYTES``.

    A band spans a multiple of 8 output positions: OpenBLAS sums the last
    1-4 columns of a product in another order, so an unaligned band would
    move the last bits of outputs that a whole-frame product sums in full
    tiles.
    """
    unit = 8 // math.gcd(wo, 8)
    return max(unit, _BAND_BYTES // (ci * KERNEL * KERNEL * wo * 8) // unit * unit)


def _tap(k: int, n: int, i0: int, i1: int) -> tuple[int, int, slice]:
    """Outputs of [i0, i1) whose tap k reads inside an axis of n inputs.

    At stride 2 and pad 1, output i's tap k reads input 2i + k - 1.  Returns
    the band-local range [a, b) of outputs that read a real input, and the
    inputs they read; the outputs outside it read the padding.
    """
    a = max(i0, 1 if k == 0 else 0)
    b = min(i1, (n - k) // STRIDE + 1)
    return a - i0, b - i0, slice(STRIDE * a + k - 1, STRIDE * (b - 1) + k, STRIDE)


def _segments(n: int, last: int) -> list[tuple[slice, list[tuple[int, slice]]]]:
    """Input positions along an axis of length n, grouped by the kernel taps that read them.

    Outputs 0 .. ``last`` are present.  Even inputs are read by tap 1 only;
    odd inputs by tap 0 of output i + 1 and then tap 2 of output i, except
    that an odd last input beyond output ``last`` meets tap 2 alone.  Each
    group is (input positions, [(k, output positions), ...]) in tap order.
    """
    groups = [(slice(0, n, STRIDE), [(1, slice(0, (n + 1) // STRIDE))]),
              (slice(1, 2 * last, STRIDE), [(0, slice(1, last + 1)), (2, slice(0, last))])]
    if n == 2 * last + 2:
        groups.append((slice(n - 1, n), [(2, slice(last, last + 1))]))
    return groups


def _columns(x: np.ndarray, r0: int, r1: int) -> np.ndarray:
    """im2col of output rows [r0, r1): (Ci, H, W) -> (Ci*9, rows*Wo), rows
    ordered like ``w.reshape(Co, -1)``.

    Each tap is one strided copy from ``x``; only the border rows and columns
    where a tap falls on the padding are zeroed.
    """
    ci, h, wd = x.shape
    ho, wo = (h - 1) // STRIDE + 1, (wd - 1) // STRIDE + 1
    out = np.empty((ci, KERNEL, KERNEL, r1 - r0, wo))
    if r0 == 0:  # tap 0 of the first output row or column is padding
        out[:, 0, :, 0] = 0.0
    out[:, :, 0, :, 0] = 0.0
    if h % 2 and r1 == ho:  # so is tap 2 of the last one on an odd side
        out[:, 2, :, -1] = 0.0
    if wd % 2:
        out[:, :, 2, :, -1] = 0.0
    col_taps = [_tap(l, wd, 0, wo) for l in range(KERNEL)]
    for k in range(KERNEL):
        a, b, rows = _tap(k, h, r0, r1)
        for l, (c, d, columns) in enumerate(col_taps):
            out[:, k, l, a:b, c:d] = x[:, rows, columns]
    return out.reshape(ci * KERNEL * KERNEL, -1)


def _col2im(taps: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`_columns`: (Ci*9, rows*Wo) tap gradients -> ``dx`` (Ci, h, W).

    ``taps`` holds output rows 0 .. rows - 1 of a band and ``dx`` the h
    input rows they complete: 2 * (rows - 1) when the last row is the next
    band's first, else every input row they reach.  Each block of ``dx`` is
    written once from the tap planes that read it, the first assigned and
    the rest added in (k, l) order, so every sum is the one nine strided
    adds into a zeroed buffer would give (but for the sign of a zero).
    """
    ci, h, wd = dx.shape
    wo = (wd - 1) // STRIDE + 1
    t = taps.reshape(ci, KERNEL, KERNEL, -1, wo)
    for rows, row_taps in _segments(h, t.shape[3] - 1):
        for columns, col_taps in _segments(wd, wo - 1):
            planes = [t[:, k, l, i, j] for k, i in row_taps for l, j in col_taps]
            block = dx[:, rows, columns]
            if len(planes) == 1:
                block[...] = planes[0]
            else:
                np.add(planes[0], planes[1], out=block)
                for plane in planes[2:]:
                    block += plane
    return dx


def _conv_s2p1(x: np.ndarray, w: np.ndarray, b: np.ndarray, relu: bool = False) -> np.ndarray:
    """3x3 stride-2 pad-1 convolution; x (Ci, H, W) -> (Co, ceil(H/2), ceil(W/2)).

    One band of output rows at a time: its columns, one matmul into the
    output, the bias and, with ``relu``, the ReLU.
    """
    ci, h, wd = x.shape
    co = w.shape[0]
    ho, wo = (h - 1) // STRIDE + 1, (wd - 1) // STRIDE + 1
    w = w.reshape(co, -1)
    out = np.empty((co, ho * wo))
    step = _band_rows(ci, wo)
    for r0 in range(0, ho, step):
        r1 = min(r0 + step, ho)
        band = out[:, r0 * wo:r1 * wo]
        np.matmul(w, _columns(x, r0, r1), out=band)
        band += b[:, np.newaxis]
        if relu:
            np.maximum(band, 0.0, out=band)
    return out.reshape(co, ho, wo)


def _conv_s2p1_backward(
    x: np.ndarray, w: np.ndarray, g: np.ndarray, relu_input: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the stride-2 conv: returns (dx, dw, db) for upstream g (Co, Ho, Wo).

    One band of output rows [r0, r1) at a time: its columns give its share
    of dw, and the tap gradients of rows r0 .. r1 (one row into the next
    band) complete input rows [2 r0, 2 r1) of dx.  With ``relu_input``, x
    came out of a ReLU and dx is masked to the gradient of its input.
    """
    ci, h, wd = x.shape
    co, ho, wo = g.shape
    wt = w.reshape(co, -1).T
    dx = np.empty((ci, h, wd))
    step = _band_rows(ci, wo)
    for r0 in range(0, ho, step):
        r1 = min(r0 + step, ho)
        gb = np.ascontiguousarray(g[:, r0:min(r1 + 1, ho)]).reshape(co, -1)
        part = _columns(x, r0, r1) @ gb[:, :(r1 - r0) * wo].T  # the columns are freed here
        if r0 == 0:
            dw = part
        else:
            dw += part
        rows = slice(STRIDE * r0, min(STRIDE * r1, h))
        band = _col2im(wt @ gb, dx[:, rows])
        if relu_input:
            band *= x[:, rows] > 0.0  # relu(z) > 0 exactly where z > 0
    # each plane in one pairwise sum, as a contiguous (Co, Ho*Wo) copy of g would give
    db = np.array([plane.reshape(-1).sum() for plane in g])
    return dx, dw.T.reshape(w.shape), db


def encode(grid: np.ndarray, params: EncoderParams) -> np.ndarray:
    """Run the encoder on a (3, H, W) coordinate map; returns (H', W', C) features.

    A finite map whose features overflow float64 raises :class:`InvalidInputError`.
    """
    x = _encoder_input(grid)
    with np.errstate(over="ignore", invalid="ignore"):
        a1 = _conv_s2p1(x, params.w1, params.b1, relu=True)
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
    intermediate activations.  Both layers run in bands of output rows, and
    each weight gradient is summed band by band.  Finite inputs whose
    gradients overflow float64 raise :class:`InvalidInputError`.
    """
    x = _encoder_input(grid)
    g = float_array("grad_out", grad_out, output_shape(*x.shape[1:], params.out_channels))
    check_finite("grad_out", g)
    with np.errstate(over="ignore", invalid="ignore"):
        a1 = _conv_s2p1(x, params.w1, params.b1, relu=True)
        da1, dw2, db2 = _conv_s2p1_backward(a1, params.w2, g.transpose(2, 0, 1), relu_input=True)
        del a1  # not alive beside the first layer's bands
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
    data = float_array("coordinate map", cmap, (3, None, None))
    check_finite("coordinate map", data)
    out = np.empty_like(data)
    n = data[0].size
    flags = []
    for c in range(3):
        channel = data[c]
        # the mean is subtracted once; the arithmetic is ndarray.mean's and ndarray.std's
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(channel, channel.sum() / n, out=out[c])
            std = np.sqrt((out[c] * out[c]).sum() / n)
        if not np.isfinite(std):
            raise InvalidInputError(f"coordinate map channel {'XYZ'[c]}: spread "
                                    "overflows float64, cannot normalize")
        if std == 0.0:
            out[c] = channel
            flags.append(True)
        else:
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
