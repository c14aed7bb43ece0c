"""Fusing a 2-D image feature map with a 3-D coordinate feature map.

All strategies take two (H, W, C) channels-last feature maps and return
one of the same shape:

* ``add``    -- elementwise sum; strictly per-position.
* ``concat`` -- channel concatenation followed by a learned 1x1
  projection back to C channels; also per-position.
* ``xattn``  -- the 2-D map queries the 3-D map with multi-head
  cross-attention; output is a residual on the 2-D map.
* ``sattn``  -- both maps are flattened, concatenated along the sequence
  axis, and run through one pre-norm self-attention block (attention +
  feed-forward, both residual); the positions belonging to the 2-D map
  are returned.

Attention is scaled dot-product, implemented directly in numpy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import BadHeadCountError, ShapeMismatchError, WrongStrategyError

LN_EPS = 1e-5
FFN_EXPANSION = 4


class Strategy(enum.Enum):
    ADD = "add"
    CONCAT = "concat"
    CROSS_ATTENTION = "xattn"
    SELF_ATTENTION = "sattn"


def _check_weight(name: str, arr: np.ndarray | None, shape: tuple[int, ...]) -> np.ndarray:
    if arr is None:
        raise ValueError(f"strategy requires {name}")
    out = np.asarray(arr, dtype=np.float64)
    if out.shape != shape:
        raise ShapeMismatchError(f"{name} must have shape {shape}, got {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite values")
    out = out.copy()
    out.setflags(write=False)
    return out


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
            raise ValueError(f"channels must be >= 1, got {c}")
        if self.heads < 1:
            raise BadHeadCountError(f"heads must be >= 1, got {self.heads}")
        attention = self.strategy in (Strategy.CROSS_ATTENTION, Strategy.SELF_ATTENTION)
        if attention and c % self.heads != 0:
            raise BadHeadCountError(
                f"channels {c} not divisible by heads {self.heads}"
            )
        if self.strategy is Strategy.CONCAT:
            object.__setattr__(self, "proj_weight",
                               _check_weight("proj_weight", self.proj_weight, (c, 2 * c)))
            object.__setattr__(self, "proj_bias",
                               _check_weight("proj_bias", self.proj_bias, (c,)))
        if attention:
            for name in ("wq", "wk", "wv", "wo"):
                object.__setattr__(self, name,
                                   _check_weight(name, getattr(self, name), (c, c)))
        if self.strategy is Strategy.SELF_ATTENTION:
            hidden = FFN_EXPANSION * c
            object.__setattr__(self, "w_ff1", _check_weight("w_ff1", self.w_ff1, (hidden, c)))
            object.__setattr__(self, "b_ff1", _check_weight("b_ff1", self.b_ff1, (hidden,)))
            object.__setattr__(self, "w_ff2", _check_weight("w_ff2", self.w_ff2, (c, hidden)))
            object.__setattr__(self, "b_ff2", _check_weight("b_ff2", self.b_ff2, (c,)))


def init_fusion_params(
    strategy: Strategy, channels: int, seed: int, heads: int = 1
) -> FusionParams:
    """Seeded uniform +-1/sqrt(fan_in) weights, zero biases."""
    rng = np.random.default_rng(seed)
    c = channels

    def _uniform(rows: int, cols: int) -> np.ndarray:
        bound = 1.0 / np.sqrt(cols)
        return rng.uniform(-bound, bound, size=(rows, cols))

    kwargs: dict[str, np.ndarray] = {}
    if strategy is Strategy.CONCAT:
        kwargs["proj_weight"] = _uniform(c, 2 * c)
        kwargs["proj_bias"] = np.zeros(c)
    if strategy in (Strategy.CROSS_ATTENTION, Strategy.SELF_ATTENTION):
        for name in ("wq", "wk", "wv", "wo"):
            kwargs[name] = _uniform(c, c)
    if strategy is Strategy.SELF_ATTENTION:
        kwargs["w_ff1"] = _uniform(FFN_EXPANSION * c, c)
        kwargs["b_ff1"] = np.zeros(FFN_EXPANSION * c)
        kwargs["w_ff2"] = _uniform(c, FFN_EXPANSION * c)
        kwargs["b_ff2"] = np.zeros(c)
    return FusionParams(strategy=strategy, channels=c, heads=heads, **kwargs)


def _check_pair(f2d: np.ndarray, f3d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(f2d, dtype=np.float64)
    b = np.asarray(f3d, dtype=np.float64)
    if a.ndim != 3:
        raise ShapeMismatchError(f"feature maps must be (H, W, C), got {a.shape}")
    if a.shape != b.shape:
        raise ShapeMismatchError(
            f"feature maps must match: {a.shape} vs {b.shape}"
        )
    return a, b


def _require(params: FusionParams, strategy: Strategy, channels: int) -> None:
    if params.strategy is not strategy:
        raise WrongStrategyError(
            f"params built for {params.strategy.value!r}, called as {strategy.value!r}"
        )
    if params.channels != channels:
        raise ShapeMismatchError(
            f"params expect {params.channels} channels, features have {channels}"
        )


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax (max-subtracted)."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


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
    tensors; scores are scaled by 1/sqrt(dk).
    """
    q = _split_heads(queries @ params.wq.T, params.heads)
    k = _split_heads(keys_values @ params.wk.T, params.heads)
    v = _split_heads(keys_values @ params.wv.T, params.heads)
    dk = q.shape[2]
    scores = q @ k.transpose(0, 2, 1) / np.sqrt(dk)
    attn = softmax(scores, axis=-1)
    return _merge_heads(attn @ v) @ params.wo.T


def fuse_add(f2d: np.ndarray, f3d: np.ndarray) -> np.ndarray:
    """Elementwise sum of the two feature maps."""
    a, b = _check_pair(f2d, f3d)
    return a + b


def fuse_concat(f2d: np.ndarray, f3d: np.ndarray, params: FusionParams) -> np.ndarray:
    """Channel-concatenate, then project 2C -> C with a 1x1 convolution."""
    a, b = _check_pair(f2d, f3d)
    _require(params, Strategy.CONCAT, a.shape[2])
    h, w, c = a.shape
    cat = np.concatenate([a, b], axis=2).reshape(h * w, 2 * c)
    out = cat @ params.proj_weight.T + params.proj_bias
    return out.reshape(h, w, c)


def fuse_cross_attention(
    f2d: np.ndarray, f3d: np.ndarray, params: FusionParams
) -> np.ndarray:
    """2-D features query the 3-D features; residual on the 2-D map."""
    a, b = _check_pair(f2d, f3d)
    _require(params, Strategy.CROSS_ATTENTION, a.shape[2])
    h, w, c = a.shape
    q_seq = a.reshape(h * w, c)
    kv_seq = b.reshape(h * w, c)
    out = q_seq + multi_head_attention(q_seq, kv_seq, params)
    return out.reshape(h, w, c)


def fuse_self_attention(
    f2d: np.ndarray, f3d: np.ndarray, params: FusionParams
) -> np.ndarray:
    """One pre-norm self-attention block over the concatenated sequence.

    x = x + MHSA(LN(x)); x = x + FFN(LN(x)).  The 2-D map's positions
    come first in the sequence and are the positions returned.
    """
    a, b = _check_pair(f2d, f3d)
    _require(params, Strategy.SELF_ATTENTION, a.shape[2])
    h, w, c = a.shape
    n = h * w
    x = np.concatenate([a.reshape(n, c), b.reshape(n, c)], axis=0)
    normed = layer_norm(x)
    x = x + multi_head_attention(normed, normed, params)
    hidden = np.maximum(layer_norm(x) @ params.w_ff1.T + params.b_ff1, 0.0)
    x = x + (hidden @ params.w_ff2.T + params.b_ff2)
    return x[:n].reshape(h, w, c)


def fuse(f2d: np.ndarray, f3d: np.ndarray, params: FusionParams) -> np.ndarray:
    """Dispatch to the strategy recorded in ``params``."""
    if params.strategy is Strategy.ADD:
        return fuse_add(f2d, f3d)
    if params.strategy is Strategy.CONCAT:
        return fuse_concat(f2d, f3d, params)
    if params.strategy is Strategy.CROSS_ATTENTION:
        return fuse_cross_attention(f2d, f3d, params)
    return fuse_self_attention(f2d, f3d, params)

