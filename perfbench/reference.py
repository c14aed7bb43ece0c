"""Plain-numpy recomputations of pseudo3d's results, for the output checks.

Each function derives a result from its definition in the paper's pipeline
(min-max normalize and invert, pinhole back-projection, a 3x3 stride-2
conv encoder, scaled dot-product attention, the behavior-cloning loss).  No
code is shared with the program, so a check compares two derivations.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

LN_EPS = 1e-5
BCE_EPS = 1e-7
# float32 rounding of an exact value moves it by at most half a float32 ulp;
# a whole ulp also covers last-bit differences in the float64 arithmetic.
F32_REL = 2.0 ** -23


def relative_to_dr(values: np.ndarray) -> np.ndarray:
    lo, hi = values.min(), values.max()
    return 1.0 - (values - lo) / (hi - lo)


def backproject(d: np.ndarray, fx: float, fy: float, cx: float, cy: float) -> np.ndarray:
    h, w = d.shape
    u = np.arange(w)[None, :]
    v = np.arange(h)[:, None]
    return np.stack([d * (u - cx) / fx, d * (v - cy) / fy, d], axis=-1)


def continuity(points: np.ndarray) -> tuple[float, float]:
    """Mean and max distance between 4-adjacent grid points."""
    steps = np.concatenate([
        np.sqrt(((points[:, 1:] - points[:, :-1]) ** 2).sum(-1)).ravel(),
        np.sqrt(((points[1:] - points[:-1]) ** 2).sum(-1)).ravel(),
    ])
    return float(steps.mean()), float(steps.max())


def standardized_coordinate_map(points: np.ndarray) -> np.ndarray:
    """(H, W, 3) points -> (3, H, W) planes, each at zero mean, unit std."""
    planes = points.transpose(2, 0, 1)
    mean = planes.mean(axis=(1, 2), keepdims=True)
    std = planes.std(axis=(1, 2), keepdims=True)
    return np.where(std == 0.0, planes, (planes - mean) / np.where(std == 0.0, 1.0, std))


def read_ply(data: bytes) -> tuple[dict, np.ndarray]:
    """Parse binary little-endian PLY bytes with one float x/y/z vertex
    element; returns the header fields and the (N, 3) float32 vertices."""
    end = data.index(b"end_header\n") + len(b"end_header\n")
    lines = data[:end].decode("ascii").splitlines()
    if lines[0] != "ply" or "format binary_little_endian 1.0" not in lines:
        raise ValueError("not a binary little-endian PLY")
    props = [line.split()[1:] for line in lines if line.startswith("property ")]
    if props != [["float", "x"], ["float", "y"], ["float", "z"]]:
        raise ValueError(f"unexpected vertex properties {props}")
    header = {}
    for line in lines:
        parts = line.split()
        if parts[:2] == ["element", "vertex"]:
            header["vertices"] = int(parts[2])
        elif parts[:2] == ["comment", "grid"]:
            header["grid"] = (int(parts[2]), int(parts[3]))
    body = data[end:]
    if len(body) != header["vertices"] * 12:
        raise ValueError(f"body holds {len(body)} bytes for {header['vertices']} vertices")
    return header, np.frombuffer(body, dtype="<f4").reshape(-1, 3)


# --- encoder ---------------------------------------------------------------


def conv_at(x: np.ndarray, w: np.ndarray, b: np.ndarray, r: int, c: int) -> np.ndarray:
    """One output position of a 3x3, stride-2, pad-1 convolution, as a
    direct dot product of the zero-padded input patch with each filter."""
    ci, h, wd = x.shape
    patch = np.zeros((ci, 3, 3))
    for k in range(3):
        for l in range(3):
            i, j = 2 * r - 1 + k, 2 * c - 1 + l
            if 0 <= i < h and 0 <= j < wd:
                patch[:, k, l] = x[:, i, j]
    return np.array([np.dot(w[o].ravel(), patch.ravel()) for o in range(w.shape[0])]) + b


def encode_at(x: np.ndarray, p: dict, r: int, c: int) -> np.ndarray:
    """Encoder output (C,) at feature position (r, c) from direct patches."""
    _, h, wd = x.shape
    h1, w1 = (h + 1) // 2, (wd + 1) // 2
    a1 = np.zeros((p["w1"].shape[0], h1, w1))
    for i in range(2 * r - 1, 2 * r + 2):
        for j in range(2 * c - 1, 2 * c + 2):
            if 0 <= i < h1 and 0 <= j < w1:
                a1[:, i, j] = np.maximum(conv_at(x, p["w1"], p["b1"], i, j), 0.0)
    return conv_at(a1, p["w2"], p["b2"], r, c)


def conv(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whole 3x3 stride-2 pad-1 convolution as one tensor contraction."""
    _, h, wd = x.shape
    ho, wo = (h + 1) // 2, (wd + 1) // 2
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    win = sliding_window_view(xp, (3, 3), axis=(1, 2))[:, ::2, ::2][:, :ho, :wo]
    return np.tensordot(w, win, axes=([1, 2, 3], [0, 3, 4])) + b[:, None, None]


def encode(x: np.ndarray, p: dict, mask: np.ndarray | None = None) -> np.ndarray:
    """Channels-last encoder output; with ``mask``, that fixed 0/1 pattern
    replaces the ReLU's own."""
    z1 = conv(x, p["w1"], p["b1"])
    a1 = np.maximum(z1, 0.0) if mask is None else z1 * mask
    return conv(a1, p["w2"], p["b2"]).transpose(1, 2, 0)


def sample_positions(rng: np.random.Generator, h: int, w: int, n: int) -> list[tuple[int, int]]:
    """n seeded feature positions, always including the four corners."""
    corners = [(0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1)]
    rows = rng.integers(0, h, size=n - 4)
    cols = rng.integers(0, w, size=n - 4)
    return corners + list(zip(rows.tolist(), cols.tolist()))


def directional_derivatives(x: np.ndarray, p: dict, g: np.ndarray, grads: dict,
                            rng: np.random.Generator, eps: float = 1e-3) -> dict[str, tuple[float, float]]:
    """For L = sum(g * encode(x)), and for each argument in turn, the analytic
    derivative along one random unit direction and its central difference.

    The difference holds the ReLU pattern at its value at ``x``: among ~10^6
    units some change sign within any useful step, and each such kink breaks
    the difference.  With the pattern held, L is linear in each argument, so
    the difference is exact up to rounding and matches the gradient at ``x``.
    """
    point = {"x": x, **p}
    mask = conv(x, p["w1"], p["b1"]) > 0.0

    def loss(args: dict) -> float:
        args = dict(args)
        return float((g * encode(args.pop("x"), args, mask)).sum())

    result = {}
    for key in point:
        direction = rng.standard_normal(point[key].shape)
        direction /= np.linalg.norm(direction)
        plus = {**point, key: point[key] + eps * direction}
        minus = {**point, key: point[key] - eps * direction}
        result[key] = (float((grads[key] * direction).sum()), (loss(plus) - loss(minus)) / (2 * eps))
    return result


# --- fusion and loss --------------------------------------------------------


def layer_norm(x: np.ndarray) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(((x - mean) ** 2).mean(axis=-1, keepdims=True) + LN_EPS)


def attention_rows(queries: np.ndarray, keys_values: np.ndarray, params,
                   rows: np.ndarray) -> np.ndarray:
    """Multi-head attention output for the selected query rows only, one
    softmax per row and head over every key."""
    heads = params.heads
    q = queries[rows] @ params.wq.T
    k = keys_values @ params.wk.T
    v = keys_values @ params.wv.T
    dk = q.shape[1] // heads
    out = np.empty_like(q)
    for h in range(heads):
        cols = slice(h * dk, (h + 1) * dk)
        scores = q[:, cols] @ k[:, cols].T / np.sqrt(dk)
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        out[:, cols] = (weights / weights.sum(axis=1, keepdims=True)) @ v[:, cols]
    return out @ params.wo.T


def cross_attention_rows(f2d: np.ndarray, f3d: np.ndarray, params, rows: np.ndarray) -> np.ndarray:
    a = f2d.reshape(-1, f2d.shape[-1])
    b = f3d.reshape(-1, f3d.shape[-1])
    return a[rows] + attention_rows(a, b, params, rows)


def self_attention_rows(f2d: np.ndarray, f3d: np.ndarray, params, rows: np.ndarray) -> np.ndarray:
    """Pre-norm block over [2-D; 3-D] positions: attention, then FFN."""
    c = f2d.shape[-1]
    x = np.concatenate([f2d.reshape(-1, c), f3d.reshape(-1, c)])
    normed = layer_norm(x)
    x1 = x[rows] + attention_rows(normed, normed, params, rows)
    hidden = np.maximum(layer_norm(x1) @ params.w_ff1.T + params.b_ff1, 0.0)
    return x1 + hidden @ params.w_ff2.T + params.b_ff2


def bc_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean over all steps of position MSE + quaternion MSE + gripper BCE,
    for (N, 8) rows of x, y, z, qw, qx, qy, qz, open."""
    p = np.clip(pred[:, 7], BCE_EPS, 1.0 - BCE_EPS)
    y = target[:, 7]
    return float((((pred[:, :3] - target[:, :3]) ** 2).mean(axis=1)
                  + ((pred[:, 3:7] - target[:, 3:7]) ** 2).mean(axis=1)
                  - (y * np.log(p) + (1.0 - y) * np.log(1.0 - p))).mean())
