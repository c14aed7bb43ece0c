"""A small trainable convolutional encoder for 3-channel coordinate maps.

Architecture: Conv(3 -> 16, 3x3, stride 2, pad 1) -> ReLU ->
Conv(16 -> C, 3x3, stride 2, pad 1), so an (3, H, W) coordinate map
becomes a (ceil(H/4), ceil(W/4), C) channels-last feature map.

Each convolution runs in GEMM form (Chellapilla, Puri & Simard 2006), and
both run together, one band of layer-2 output rows at a time (the fused
layers of Alwani et al. 2016): a band computes only the hidden rows it
reads, so the hidden layer is never whole.  :func:`_columns` copies each of
the nine taps straight from the input, or from a slab of it, into the band's
(Ci*9, rows*Wo) patch matrix and zeroes only where a tap falls on the
padding, and one matmul fills the band of the layer's output.  A band's
columns take about ``_BAND_BYTES`` (1 MiB), so a pass holds its inputs and
outputs and a few bands.  The analytic backward pass
(:func:`encode_backward`) walks the same bands.  Each band's layer-1 columns
give both its hidden rows and its share of the layer-1 weight gradient;
the weight gradients are summed band by band.  One more matmul per layer
gives tap gradients, and :func:`_col2im` sums them back by input parity
(Dumoulin & Visin 2016, sec. 4): an even row or column meets one tap and an
odd one two, so each parity block of the input-gradient rows is written
once.  The weight gradients move with the band height by summation order.
The features and the input gradient are the bytes of one whole-frame
product where BLAS splits the band products the same way, as it does for
every frame of one band and for the tested frames whose widths are
multiples of 8; elsewhere their last bits can move.  Everything is plain
numpy, validated against a loop adjoint and central finite differences in
the test suite.

Finite inputs whose result overflows float64 raise :class:`InvalidInputError`.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (FileError, InvalidInputError, NonFiniteInputError, check_count,
                     check_finite, check_no_overflow, float_array, frozen_array, reading,
                     write_output)
from .fusion import _init_weights

HIDDEN_CHANNELS = 16
KERNEL = 3
STRIDE = 2
MIN_SIDE = 4

_MAGIC = b"PENC"
_VERSION = 1

# bytes of one band's layer-2 (16*9, rows*W2) columns, the larger of its two:
# small enough to stay in cache while a band is copied, multiplied and
# (backward) scattered back
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
    check_count("out_channels", out_channels)
    return EncoderParams(**_init_weights(_param_shapes(out_channels), seed))


def _encoder_input(grid: np.ndarray) -> np.ndarray:
    arr = float_array("coordinate map", grid, (3, None, None))
    check_finite("coordinate map", arr)
    _, h, w = arr.shape
    if h < MIN_SIDE or w < MIN_SIDE:
        raise InvalidInputError(f"encoder needs at least {MIN_SIDE}x{MIN_SIDE}, got {h}x{w}")
    return arr


def _band_rows(w1: int, h2: int, w2: int) -> int:
    """Layer-2 output rows per band: as many as fit their columns in
    ``_BAND_BYTES``, and at most all h2.

    The layer-2 columns are the larger of a band's two.  A band's rows of w2
    outputs, and the twice as many hidden rows of w1 that layer 1 computes
    for it, each span a multiple of 8 positions: OpenBLAS sums the last 1-4
    columns of a product in another order, so an unaligned band would move
    the last bits of outputs that a whole-frame product sums in full tiles.
    """
    unit = 8 // math.gcd(w2, 2 * w1, 8)
    fit = _BAND_BYTES // (HIDDEN_CHANNELS * KERNEL * KERNEL * w2 * 8) // unit * unit
    return min(h2, max(unit, fit))


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


def _columns(x: np.ndarray, r0: int, r1: int, top: int = 0) -> np.ndarray:
    """im2col of output rows [r0, r1): (Ci, rows, W) -> (Ci*9, rows*Wo), rows
    ordered like ``w.reshape(Co, -1)``.

    ``x`` holds input rows ``top`` onward, down to the input's last row or
    past the last row the band reads.  Each tap is one strided copy from
    ``x``; only the border rows and columns where a tap falls on the padding
    are zeroed.
    """
    ci, h, wd = x.shape
    h += top  # the input rows x reaches
    wo = (wd - 1) // STRIDE + 1
    out = np.empty((ci, KERNEL, KERNEL, r1 - r0, wo))
    if r0 == 0:  # tap 0 of the first output row or column is padding
        out[:, 0, :, 0] = 0.0
    out[:, :, 0, :, 0] = 0.0
    if STRIDE * r1 > h:  # so is tap 2 of the last one on an odd side
        out[:, 2, :, -1] = 0.0
    if wd % 2:
        out[:, :, 2, :, -1] = 0.0
    col_taps = [_tap(l, wd, 0, wo) for l in range(KERNEL)]
    for k in range(KERNEL):
        a, b, rows = _tap(k, h, r0, r1)
        rows = slice(rows.start - top, rows.stop - top, STRIDE)
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


def _hidden_bands(x: np.ndarray, params: EncoderParams):
    """Walk layer 2's output rows in bands, running layer 1 for each band.

    Yields ``(r0, r1, columns, hidden, top)`` for each band [r0, r1):
    ``hidden`` is a (16, rows, W1) slab of the hidden rows from ``top`` on
    that the band reads, and ``columns`` the layer-1 columns that one matmul
    turned into its new rows, from 2 r0 on.  The row above them was the last
    band's last, so it is carried, not recomputed: each product spans the
    same aligned positions in every band.
    """
    _, h, wd = x.shape
    h1, w1 = (h - 1) // STRIDE + 1, (wd - 1) // STRIDE + 1
    h2, w2 = (h1 - 1) // STRIDE + 1, (w1 - 1) // STRIDE + 1
    step = _band_rows(w1, h2, w2)
    w = params.w1.reshape(HIDDEN_CHANNELS, -1)
    slab = np.empty((HIDDEN_CHANNELS, (STRIDE * step + 1) * w1))
    for r0 in range(0, h2, step):
        r1 = min(r0 + step, h2)
        s0, s1 = STRIDE * r0, min(STRIDE * r1, h1)
        top = max(s0 - 1, 0)
        columns = _columns(x, s0, s1)
        new = slab[:, (s0 - top) * w1:(s1 - top) * w1]
        np.matmul(w, columns, out=new)
        new += params.b1[:, np.newaxis]
        np.maximum(new, 0.0, out=new)
        yield r0, r1, columns, slab[:, :(s1 - top) * w1].reshape(HIDDEN_CHANNELS, -1, w1), top
        slab[:, :w1] = new[:, -w1:]


def encode(grid: np.ndarray, params: EncoderParams) -> np.ndarray:
    """Run the encoder on a (3, H, W) coordinate map; returns (H', W', C) features.

    Each band's product goes through one reused (C, rows*W') buffer into its
    rows of the output.  A strided map, such as the view from
    :func:`~pseudo3d.cloud.to_coordinate_map`, is read in place.

    A finite map whose features overflow float64 raises :class:`InvalidInputError`.
    """
    x = _encoder_input(grid)
    h2, w2, co = output_shape(*x.shape[1:], params.out_channels)
    w = params.w2.reshape(co, -1)
    out = np.empty((h2, w2, co))
    buf = np.empty((co, _band_rows((x.shape[2] - 1) // STRIDE + 1, h2, w2) * w2))
    with np.errstate(over="ignore", invalid="ignore"):
        for r0, r1, _, hidden, top in _hidden_bands(x, params):
            band = buf[:, :(r1 - r0) * w2]
            np.matmul(w, _columns(hidden, r0, r1, top), out=band)
            band += params.b2[:, np.newaxis]
            out[r0:r1] = band.reshape(co, r1 - r0, w2).transpose(1, 2, 0)
    check_no_overflow("encode", out)
    return out


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

    Callers never manage intermediate activations: each band of layer-2
    output rows recomputes the hidden rows it reads from ``grid``, as
    :func:`encode` computes them.  The band then adds its share of ``dw2``,
    writes the ReLU-masked hidden gradient of its own hidden rows, adds
    their share of ``dw1`` from the same layer-1 columns, and completes its
    rows of ``dx``.  Layer 2's tap gradients of the next band's first row
    are recomputed there; layer 1's of the band's last hidden row are
    carried into the next band, which knows the hidden gradient below it.
    Finite inputs whose gradients overflow float64 raise
    :class:`InvalidInputError`.
    """
    x = _encoder_input(grid)
    g = float_array("grad_out", grad_out, output_shape(*x.shape[1:], params.out_channels))
    check_finite("grad_out", g)
    g = g.transpose(2, 0, 1)
    co, h2, w2 = g.shape
    _, h, wd = x.shape
    h1, w1 = (h - 1) // STRIDE + 1, (wd - 1) // STRIDE + 1
    rows = STRIDE * _band_rows(w1, h2, w2)  # hidden rows per band
    wt1, wt2 = params.w1.reshape(HIDDEN_CHANNELS, -1).T, params.w2.reshape(co, -1).T
    dx = np.empty(x.shape)
    dw1, dw2 = np.zeros(wt1.shape), np.zeros(wt2.shape)
    da1 = np.empty((HIDDEN_CHANNELS, rows * w1))
    taps = np.empty((wt1.shape[0], (rows + 1) * w1))  # row 0 carries the last band's last
    row_sums = np.empty((HIDDEN_CHANNELS, h1))  # db1 by hidden row: no band height moves it
    with np.errstate(over="ignore", invalid="ignore"):
        for r0, r1, columns, hidden, top in _hidden_bands(x, params):
            s0 = STRIDE * r0
            at = s0 - top  # the rows carried into hidden and taps
            n = hidden.shape[1] - at  # the band's new hidden rows, from s0
            gb = np.ascontiguousarray(g[:, r0:min(r1 + 1, h2)]).reshape(co, -1)
            dw2 += _columns(hidden, r0, r1, top) @ gb[:, :(r1 - r0) * w2].T
            d = da1[:, :n * w1]
            band = _col2im(wt2 @ gb, d.reshape(HIDDEN_CHANNELS, n, w1))
            band *= hidden[:, at:] > 0.0  # relu(z) > 0 exactly where z > 0
            np.sum(band, axis=2, out=row_sums[:, s0:s0 + n])
            dw1 += columns @ d.T
            np.matmul(wt1, d, out=taps[:, at * w1:(at + n) * w1])
            end = h if r1 == h2 else STRIDE * (s0 + n - 1)
            _col2im(taps[:, :(at + n) * w1], dx[:, STRIDE * top:end])
            taps[:, :w1] = taps[:, (at + n - 1) * w1:(at + n) * w1]
    # each plane in one pairwise sum, as a contiguous (Co, H'*W') copy of g would give
    db2 = np.array([plane.reshape(-1).sum() for plane in g])
    db1 = row_sums.sum(axis=1)
    dw1, dw2 = dw1.T.reshape(params.w1.shape), dw2.T.reshape(params.w2.shape)
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
    out = np.empty(data.shape)
    squares = np.empty(data.shape[1:])
    n = squares.size
    flags = []
    for c in range(3):
        # ndarray.mean's and .std's arithmetic, summed over the plane's contiguous copy
        plane = out[c]
        plane[...] = data[c]
        with np.errstate(over="ignore", invalid="ignore"):
            plane -= plane.sum() / n
            np.multiply(plane, plane, out=squares)
            std = np.sqrt(squares.sum() / n)
        if not np.isfinite(std):
            raise InvalidInputError(f"coordinate map channel {'XYZ'[c]}: spread "
                                    "overflows float64, cannot normalize")
        if std == 0.0:
            plane[...] = data[c]
            flags.append(True)
        else:
            plane /= std
            flags.append(False)
    return out, (flags[0], flags[1], flags[2])


def save_params(path: str, params: EncoderParams) -> None:
    """Serialize parameters as a little-endian binary blob."""
    c = params.out_channels
    arrays = (np.ascontiguousarray(getattr(params, name), dtype="<f8") for name in _param_shapes(c))
    write_output(path, _MAGIC, struct.pack("<II", _VERSION, c), *arrays)


def load_params(path: str) -> EncoderParams:
    """Inverse of :func:`save_params`; validates magic, version, and size."""
    with reading(path) as data:
        head = len(_MAGIC) + 8
        if len(data) < head or data[:4] != _MAGIC:
            raise FileError("not an encoder parameter file")
        version, c = struct.unpack("<II", data[4:head])
        if version != _VERSION:
            raise FileError(f"unsupported version {version}")
        if c < 1:
            raise FileError(f"invalid channel count {c}")
        shapes = _param_shapes(c)
        expected = head + 8 * sum(math.prod(shape) for shape in shapes.values())
        if len(data) != expected:
            raise FileError(f"blob is {len(data)} bytes, expected {expected} for C={c}")
        offset = head
        arrays = {}
        for name, shape in shapes.items():
            count = math.prod(shape)
            arrays[name] = np.frombuffer(data, "<f8", count, offset).reshape(shape)
            offset += 8 * count
        try:
            return EncoderParams(**arrays)
        except NonFiniteInputError as exc:
            raise FileError(str(exc)) from exc
