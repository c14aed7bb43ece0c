"""Fusing a 2-D image feature map with a 3-D coordinate feature map.

:func:`fuse` takes two (H, W, C) channels-last feature maps and returns
one of the same shape, by the strategy its parameters were built for:

* ``add``    -- elementwise sum; strictly per-position.
* ``concat`` -- channel concatenation followed by a learned 1x1
  projection back to C channels; also per-position, so it runs in bands
  of positions through one reused (rows, 2C) buffer of ``_BAND_BYTES``.
* ``xattn``  -- the 2-D map queries the 3-D map with multi-head
  cross-attention; output is a residual on the 2-D map.
* ``sattn``  -- both maps are flattened, concatenated along the sequence
  axis, and run through one pre-norm self-attention block (attention +
  feed-forward, both residual); the positions belonging to the 2-D map
  are returned.  Attention and the feed-forward block act row by row on
  their queries, so only the N 2-D positions are queries; keys and values
  are all 2N positions.

Attention is scaled dot-product, implemented directly in numpy.  A head is
a column slice of the (N, C) q, k and v projections, written into its slice
of one (N, C) output.  Attention is key-blocked with an online softmax: one
head at a time, queries go in blocks of ``_BLOCK_Q`` rows, each meets the
keys ``_BLOCK_K`` at a time, and a running row max and row sum rescale what
has been accumulated so far.  The largest temporary is one head's
``(_BLOCK_Q, _BLOCK_K)`` score block, allocated once per call and reused for
every block, so memory does not grow with N^2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (InvalidInputError, check_count, check_finite, check_no_overflow,
                     float_array, frozen_array)

LN_EPS = 1e-5
FFN_EXPANSION = 4

# query rows and keys per score block of _attention
_BLOCK_Q = 128
_BLOCK_K = 2048

# bytes of concat's reused (rows, 2C) buffer: 2048 rows at C = 32
_BAND_BYTES = 1 << 20


class Strategy(enum.Enum):
    ADD = "add"
    CONCAT = "concat"
    CROSS_ATTENTION = "xattn"
    SELF_ATTENTION = "sattn"


_ATTENTION = (Strategy.CROSS_ATTENTION, Strategy.SELF_ATTENTION)


def _weight_shapes(strategy: Strategy, c: int) -> dict[str, tuple[int, ...]]:
    """The arrays ``strategy`` needs at C channels, in initialization order."""
    shapes: dict[str, tuple[int, ...]] = {}
    if strategy is Strategy.CONCAT:
        shapes.update(proj_weight=(c, 2 * c), proj_bias=(c,))
    if strategy in _ATTENTION:
        shapes.update(wq=(c, c), wk=(c, c), wv=(c, c), wo=(c, c))
    if strategy is Strategy.SELF_ATTENTION:
        hidden = FFN_EXPANSION * c
        shapes.update(w_ff1=(hidden, c), b_ff1=(hidden,), w_ff2=(c, hidden), b_ff2=(c,))
    return shapes


def _init_weights(shapes: dict[str, tuple[int, ...]], seed: int) -> dict[str, np.ndarray]:
    """Uniform +-1/sqrt(fan_in) weights and zero (1-D) biases, drawn in table order.

    Fan-in is the product of all but the first axis; ``default_rng(seed)``
    gives the same arrays on every platform.  ``seed`` must be an integer >= 0.
    """
    check_count("seed", seed, minimum=0)
    rng = np.random.default_rng(seed)
    weights: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        if len(shape) == 1:
            weights[name] = np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(math.prod(shape[1:]))
            weights[name] = rng.uniform(-bound, bound, size=shape)
    return weights


@dataclass(frozen=True)
class FusionParams:
    """Learned parameters for one fusion strategy.

    ``add`` needs none of the arrays; ``concat`` uses ``proj_weight`` /
    ``proj_bias``; the attention strategies use the four projection
    matrices, and self-attention additionally the feed-forward weights.
    """

    strategy: Strategy
    channels: int
    heads: int = 1
    proj_weight: np.ndarray | None = None   # (C, 2C)
    proj_bias: np.ndarray | None = None     # (C,)
    wq: np.ndarray | None = None            # (C, C)
    wk: np.ndarray | None = None
    wv: np.ndarray | None = None
    wo: np.ndarray | None = None
    w_ff1: np.ndarray | None = None         # (4C, C)
    b_ff1: np.ndarray | None = None         # (4C,)
    w_ff2: np.ndarray | None = None         # (C, 4C)
    b_ff2: np.ndarray | None = None         # (C,)

    def __post_init__(self) -> None:
        if not isinstance(self.strategy, Strategy):
            raise InvalidInputError(f"strategy must be a Strategy, got {self.strategy!r}")
        c = self.channels
        check_count("channels", c)
        check_count("heads", self.heads)
        if self.strategy in _ATTENTION and c % self.heads != 0:
            raise InvalidInputError(f"channels {c} not divisible by heads {self.heads}")
        shapes = _weight_shapes(self.strategy, c)
        for f in fields(self)[3:]:  # the arrays, after strategy, channels, heads
            if f.name not in shapes and getattr(self, f.name) is not None:
                raise InvalidInputError(f"{f.name} is not used by strategy {self.strategy.value!r}")
        for name, shape in shapes.items():
            object.__setattr__(self, name, frozen_array(name, getattr(self, name), shape))


def init_fusion_params(
    strategy: Strategy, channels: int, seed: int, heads: int = 1
) -> FusionParams:
    """Seeded uniform +-1/sqrt(fan_in) weights, zero biases."""
    check_count("channels", channels)  # before the draw, which takes it as a size
    weights = _init_weights(_weight_shapes(strategy, channels), seed)
    return FusionParams(strategy=strategy, channels=channels, heads=heads, **weights)


def _layer_norm(x: np.ndarray) -> np.ndarray:
    """Parameter-free layer normalization over the channel (last) axis."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + LN_EPS)


def _attention(queries: np.ndarray, keys_values: np.ndarray, params: FusionParams) -> np.ndarray:
    """Scaled dot-product attention of (N, C) ``queries`` over (M, C) ``keys_values``.

    Only :func:`fuse` calls it, with checked inputs and M = N or 2N.  Head
    j is the column slice [j*dk, (j+1)*dk) of the q, k and v projections,
    written into its slice of one (N, C) output; scores are scaled by
    1/sqrt(dk).  Heads run outermost, then query blocks, then key blocks;
    every block's scores are written into one ``(_BLOCK_Q, _BLOCK_K)``
    buffer (a corner of it for a ragged block) and softmaxed there in place
    (Rabe & Staats 2021; Dao et al. 2022).
    The softmax over keys is computed online (Milakov & Gimelshein 2018):
    for each block of keys the running max ``m`` rises to ``m_new``, the
    running sum ``l`` and the accumulated output ``acc`` are rescaled by
    exp(m - m_new), and the block's exp(s - m_new) is added to both.
    """
    nq, c = queries.shape
    nk, dk = keys_values.shape[0], c // params.heads
    q = (queries @ params.wq.T) * (1.0 / np.sqrt(dk))
    kt = (keys_values @ params.wk.T).T
    v = keys_values @ params.wv.T
    out = np.empty((nq, c))
    scores = np.empty((min(nq, _BLOCK_Q), min(nk, _BLOCK_K)))
    for h in range(0, c, dk):  # head h // dk: columns [h, h + dk)
        for i in range(0, nq, _BLOCK_Q):
            qb = q[i:i + _BLOCK_Q, h:h + dk]
            m = np.full((qb.shape[0], 1), -np.inf)
            l = np.zeros_like(m)
            acc = np.zeros(qb.shape)
            for j in range(0, nk, _BLOCK_K):
                ktb = kt[h:h + dk, j:j + _BLOCK_K]
                s = np.matmul(qb, ktb, out=scores[:qb.shape[0], :ktb.shape[1]])
                m_new = np.maximum(m, s.max(axis=-1, keepdims=True))
                rescale = np.exp(m - m_new)
                l *= rescale
                acc *= rescale
                s -= m_new
                np.exp(s, out=s)
                l += s.sum(axis=-1, keepdims=True)
                acc += s @ v[j:j + _BLOCK_K, h:h + dk]
                m = m_new
            np.divide(acc, l, out=out[i:i + _BLOCK_Q, h:h + dk])
    return out @ params.wo.T


def fuse(f2d: np.ndarray, f3d: np.ndarray, params: FusionParams) -> np.ndarray:
    """Fuse two (H, W, C) feature maps by the strategy recorded in ``params``.

    A NaN or infinity in either map raises :class:`NonFiniteInputError`, and
    finite maps whose result overflows float64 raise :class:`InvalidInputError`.

    sattn: x = x + MHSA(LN(x)); x = x + FFN(LN(x)) over the 2-D positions
    followed by the 3-D ones; the 2-D positions are returned.  Only those N
    rows are computed: they are MHSA's queries, with all 2N rows of LN(x)
    as keys and values, and the only rows the FFN sees.
    """
    a = float_array("f2d", f2d, (None, None, params.channels))
    b = float_array("f3d", f3d, a.shape)
    h, w, c = a.shape
    check_finite("f2d", a)
    check_finite("f3d", b)
    n = h * w
    a, b = a.reshape(n, c), b.reshape(n, c)
    with np.errstate(over="ignore", invalid="ignore"):
        if params.strategy is Strategy.ADD:
            out = a + b
        elif params.strategy is Strategy.CONCAT:
            rows = max(1, _BAND_BYTES // (16 * c))
            out, cat = np.empty((n, c)), np.empty((min(n, rows), 2 * c))
            for i in range(0, n, rows):
                band = cat[:min(rows, n - i)]
                np.concatenate([a[i:i + rows], b[i:i + rows]], axis=1, out=band)
                np.matmul(band, params.proj_weight.T, out=out[i:i + rows])
            out += params.proj_bias
        elif params.strategy is Strategy.CROSS_ATTENTION:
            out = a + _attention(a, b, params)
        else:
            normed = _layer_norm(np.concatenate([a, b], axis=0))
            x = a + _attention(normed[:n], normed, params)
            hidden = np.maximum(_layer_norm(x) @ params.w_ff1.T + params.b_ff1, 0.0)
            out = x + (hidden @ params.w_ff2.T + params.b_ff2)
    check_no_overflow("fuse", out)
    return out.reshape(h, w, c)
