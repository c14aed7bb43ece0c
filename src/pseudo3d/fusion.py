"""Fusing a 2-D image feature map with a 3-D coordinate feature map.

:func:`fuse` takes two (H, W, C) channels-last feature maps and returns
one of the same shape, by the strategy its parameters were built for:

* ``add``    -- elementwise sum; strictly per-position.
* ``concat`` -- channel concatenation followed by a learned 1x1
  projection back to C channels; also per-position.
* ``xattn``  -- the 2-D map queries the 3-D map with multi-head
  cross-attention; output is a residual on the 2-D map.
* ``sattn``  -- both maps are flattened, concatenated along the sequence
  axis, and run through one pre-norm self-attention block (attention +
  feed-forward, both residual); the positions belonging to the 2-D map
  are returned.  Attention and the feed-forward block act row by row on
  their queries, so only the N 2-D positions are queries; keys and values
  are all 2N positions.

Attention is scaled dot-product, implemented directly in numpy.  It is
key-blocked with an online softmax: queries go in blocks of ``_BLOCK_Q``
rows, each meets the keys ``_BLOCK_K`` at a time, and a running row max
and row sum rescale what has been accumulated so far.  The largest
temporary is one ``(heads, _BLOCK_Q, _BLOCK_K)`` score block, so memory
does not grow with N^2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (InvalidInputError, ShapeMismatchError, check_finite, check_no_overflow,
                     frozen_array)

LN_EPS = 1e-5
FFN_EXPANSION = 4

# query rows and keys per score block of multi_head_attention
_BLOCK_Q = 128
_BLOCK_K = 2048


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
    gives the same arrays on every platform.
    """
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
        c = self.channels
        if c < 1:
            raise InvalidInputError(f"channels must be >= 1, got {c}")
        if self.heads < 1:
            raise InvalidInputError(f"heads must be >= 1, got {self.heads}")
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
    weights = _init_weights(_weight_shapes(strategy, channels), seed)
    return FusionParams(strategy=strategy, channels=channels, heads=heads, **weights)


def layer_norm(x: np.ndarray) -> np.ndarray:
    """Parameter-free layer normalization over the channel (last) axis."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + LN_EPS)


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    n, c = x.shape
    dk = c // heads
    return x.reshape(n, heads, dk).transpose(1, 0, 2)  # (heads, N, dk)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    heads, n, dk = x.shape
    return x.transpose(1, 0, 2).reshape(n, heads * dk)


def multi_head_attention(
    queries: np.ndarray,
    keys_values: np.ndarray,
    params: FusionParams,
) -> np.ndarray:
    """Scaled dot-product attention over flat (N, C) sequences.

    Head j works on channel slice [j*dk, (j+1)*dk) of the projected
    tensors; scores are scaled by 1/sqrt(dk).  The softmax over keys is
    computed online (Milakov & Gimelshein 2018): for each block of keys
    the running max ``m`` rises to ``m_new``, the running sum ``l`` and the
    accumulated output ``acc`` are rescaled by exp(m - m_new), and the
    block's exp(s - m_new) is added to both.
    """
    q = _split_heads(queries @ params.wq.T, params.heads)
    k = _split_heads(keys_values @ params.wk.T, params.heads)
    v = _split_heads(keys_values @ params.wv.T, params.heads)
    heads, nq, dk = q.shape
    nk = k.shape[1]
    q = q * (1.0 / np.sqrt(dk))
    kt = k.transpose(0, 2, 1)
    out = np.empty((heads, nq, dk))
    for i in range(0, nq, _BLOCK_Q):
        qb = q[:, i:i + _BLOCK_Q]
        m = np.full((heads, qb.shape[1], 1), -np.inf)
        l = np.zeros_like(m)
        acc = np.zeros(qb.shape)
        for j in range(0, nk, _BLOCK_K):
            s = qb @ kt[:, :, j:j + _BLOCK_K]
            m_new = np.maximum(m, s.max(axis=-1, keepdims=True))
            rescale = np.exp(m - m_new)
            l *= rescale
            acc *= rescale
            s -= m_new
            np.exp(s, out=s)
            l += s.sum(axis=-1, keepdims=True)
            acc += s @ v[:, j:j + _BLOCK_K]
            m = m_new
        np.divide(acc, l, out=out[:, i:i + _BLOCK_Q])
    return _merge_heads(out) @ params.wo.T


def fuse(f2d: np.ndarray, f3d: np.ndarray, params: FusionParams) -> np.ndarray:
    """Fuse two (H, W, C) feature maps by the strategy recorded in ``params``.

    A NaN or infinity in either map raises :class:`NonFiniteInputError`, and
    finite maps whose result overflows float64 raise :class:`InvalidInputError`.

    sattn: x = x + MHSA(LN(x)); x = x + FFN(LN(x)) over the 2-D positions
    followed by the 3-D ones; the 2-D positions are returned.  Only those N
    rows are computed: they are MHSA's queries, with all 2N rows of LN(x)
    as keys and values, and the only rows the FFN sees.
    """
    a = np.asarray(f2d, dtype=np.float64)
    b = np.asarray(f3d, dtype=np.float64)
    if a.ndim != 3:
        raise ShapeMismatchError(f"feature maps must be (H, W, C), got {a.shape}")
    if a.shape != b.shape:
        raise ShapeMismatchError(
            f"feature maps must match: {a.shape} vs {b.shape}"
        )
    h, w, c = a.shape
    if params.channels != c:
        raise ShapeMismatchError(
            f"params expect {params.channels} channels, features have {c}"
        )
    check_finite("f2d", a)
    check_finite("f3d", b)
    n = h * w
    with np.errstate(over="ignore", invalid="ignore"):
        if params.strategy is Strategy.ADD:
            out = a + b
        elif params.strategy is Strategy.CONCAT:
            cat = np.concatenate([a, b], axis=2).reshape(n, 2 * c)
            out = cat @ params.proj_weight.T
            out += params.proj_bias
        elif params.strategy is Strategy.CROSS_ATTENTION:
            q_seq = a.reshape(n, c)
            out = q_seq + multi_head_attention(q_seq, b.reshape(n, c), params)
        else:
            x = np.concatenate([a.reshape(n, c), b.reshape(n, c)], axis=0)
            normed = layer_norm(x)
            x = x[:n] + multi_head_attention(normed[:n], normed, params)
            hidden = np.maximum(layer_norm(x) @ params.w_ff1.T + params.b_ff1, 0.0)
            out = x + (hidden @ params.w_ff2.T + params.b_ff2)
    check_no_overflow("fuse", out)
    return out.reshape(h, w, c)
