"""Self-contained property checks behind the ``verify`` command.

Every check generates its own inputs from a seed, compares against an
independent oracle (closed form, brute-force loop, or cross-format
fixture), and reports a :class:`PropertyResult` whose detail fields are
fully deterministic — no timestamps, no paths — so that two runs with
the same seed render byte-identical reports.

A property is added with one registration: a function ``check_<name>(seed)``
that returns ``(passed, details)``, decorated with :func:`_property`.  The
decorator files it under ``<name>``; properties report in the order they are
defined, and :data:`ALL_PROPS` lists them in that order.
"""

from __future__ import annotations

import functools
import json
import math
import tempfile
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from . import depth_io, ply
from .camera import CameraIntrinsics, backproject, estimate_intrinsics_from_fov, project
from .cloud import synth_random, synth_wedge
from .depth import disparity_from_metric, normalize, pipeline_relative_to_dr, reciprocal_depth
from .encoder import EncoderParams, encode, encode_backward, init_params
from .errors import InvalidInputError
from .fusion import FusionParams, Strategy, fuse, init_fusion_params
from .policy_loss import BCE_EPS, _step_losses, dataset_loss


def _f(x: float) -> str:
    return f"{x:.6e}"


Details = tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    details: Details = field(default=())


# every property's check by name, in report order
_CHECKS: dict[str, Callable[..., PropertyResult]] = {}


def _property(check: Callable[..., tuple[bool, Details]]) -> Callable[..., PropertyResult]:
    """Register ``check_<name>`` under ``<name>``, its result as a :class:`PropertyResult`."""
    name = check.__name__.removeprefix("check_")

    @functools.wraps(check)
    def run(*args, **kwargs) -> PropertyResult:
        passed, details = check(*args, **kwargs)
        return PropertyResult(name, passed, details)

    _CHECKS[name] = run
    return run


# ---------------------------------------------------------------------------
# affine invariance of normalization

AFFINE_SCENES = 50
AFFINE_SCALES = (0.1, 1.0, 10.0)
AFFINE_SHIFTS = (-5.0, 0.0, 5.0)
AFFINE_TOL = 1e-9


@_property
def check_affine(seed: int, break_shift: bool = False) -> tuple[bool, Details]:
    """Scale/shift of simulated disparity must not move the normalized map.

    ``break_shift`` injects the classic bug — adding the shift *after*
    normalizing — as a negative control; the check must then fail.
    """
    rng = np.random.default_rng(seed)
    max_dev = 0.0
    for _ in range(AFFINE_SCENES):
        h = int(rng.integers(4, 25))
        w = int(rng.integers(4, 25))
        scene = synth_random(h, w, rng)
        reference = normalize(disparity_from_metric(scene, 1.0, 0.0)).values
        for s in AFFINE_SCALES:
            for t in AFFINE_SHIFTS:
                if break_shift:
                    candidate = normalize(disparity_from_metric(scene, s, 0.0)).values + t
                else:
                    candidate = normalize(disparity_from_metric(scene, s, t)).values
                max_dev = max(max_dev, float(np.abs(candidate - reference).max()))
    return max_dev <= AFFINE_TOL, (
        ("scenes", str(AFFINE_SCENES)),
        ("grid", str(len(AFFINE_SCALES) * len(AFFINE_SHIFTS))),
        ("max_dev", _f(max_dev)),
        ("tol", _f(AFFINE_TOL)),
    )


# ---------------------------------------------------------------------------
# shift distortion of the naive reciprocal

SHIFT_T = 2.0
SHIFT_RATIO_MIN = 1e-3
SHIFT_PIPELINE_TOL = 1e-9


@_property
def check_shift(seed: int) -> tuple[bool, Details]:
    """A depth-ramp scene exposes the flaw in inverting predictions directly.

    Adding a shift to the predicted disparity bends the naive-reciprocal
    cloud (adjacent-step distance ratios change measurably) while the
    normalize-then-invert pipeline is unaffected.
    """
    del seed  # closed-form scene; nothing random to seed
    wedge = synth_wedge(6, 8, 2.0, 6.0)
    intr = estimate_intrinsics_from_fov(8, 6, 60.0)
    pred0 = disparity_from_metric(wedge, 1.0, 0.0)
    pred_t = disparity_from_metric(wedge, 1.0, SHIFT_T)

    def _row_steps(cloud_points: np.ndarray) -> np.ndarray:
        row = cloud_points[0]
        return np.linalg.norm(row[1:] - row[:-1], axis=1)

    naive0 = _row_steps(backproject(reciprocal_depth(pred0).values, intr))
    naive_t = _row_steps(backproject(reciprocal_depth(pred_t).values, intr))
    ratios0 = naive0 / naive0[0]
    ratios_t = naive_t / naive_t[0]
    ratio_change = float(np.abs(ratios_t - ratios0).max() / np.abs(ratios0).max())

    pipe0 = backproject(pipeline_relative_to_dr(pred0).values, intr)
    pipe_t = backproject(pipeline_relative_to_dr(pred_t).values, intr)
    pipe_dev = float(np.abs(pipe0 - pipe_t).max())

    return (ratio_change > SHIFT_RATIO_MIN) and (pipe_dev <= SHIFT_PIPELINE_TOL), (
        ("shift", _f(SHIFT_T)),
        ("naive_ratio_change", _f(ratio_change)),
        ("ratio_change_min", _f(SHIFT_RATIO_MIN)),
        ("pipeline_dev", _f(pipe_dev)),
        ("pipeline_tol", _f(SHIFT_PIPELINE_TOL)),
    )


# ---------------------------------------------------------------------------
# projection round trip

ROUNDTRIP_PAIRS = 100
ROUNDTRIP_TOL = 1e-9


def _pixel_dev(points: np.ndarray, intr: CameraIntrinsics) -> float:
    """How far, in u or v, :func:`project` puts an (H, W, 3) grid's points from their pixels."""
    h, w, _ = points.shape
    grid = np.stack(np.meshgrid(np.arange(w), np.arange(h)), axis=-1)  # (u, v) per pixel
    return float(np.abs(project(points, intr) - grid).max())


@_property
def check_roundtrip(seed: int) -> tuple[bool, Details]:
    """project(backproject(d)) must return every pixel to itself."""
    rng = np.random.default_rng(seed)
    max_dev = 0.0
    for _ in range(ROUNDTRIP_PAIRS):
        h = int(rng.integers(2, 17))
        w = int(rng.integers(2, 17))
        intr = CameraIntrinsics(
            fx=float(rng.uniform(100.0, 2000.0)),
            fy=float(rng.uniform(100.0, 2000.0)),
            cx=float(rng.uniform(0.25, 0.75) * (w - 1)),
            cy=float(rng.uniform(0.25, 0.75) * (h - 1)),
        )
        d = rng.uniform(0.1, 50.0, size=(h, w))
        points = backproject(d, intr)
        dev_z = float(np.abs(points[:, :, 2] - d).max())
        max_dev = max(max_dev, _pixel_dev(points, intr), dev_z)
    return max_dev <= ROUNDTRIP_TOL, (
        ("pairs", str(ROUNDTRIP_PAIRS)),
        ("max_dev", _f(max_dev)),
        ("tol", _f(ROUNDTRIP_TOL)),
    )


# ---------------------------------------------------------------------------
# scale equivariance and grid preservation

SCALE_FACTORS = (0.5, 2.0)
SCALE_TOL = 1e-12
GRID_TOL = 1e-9


@_property
def check_scale(seed: int) -> tuple[bool, Details]:
    """backproject(a*d) == a*backproject(d), and the grid stays aligned."""
    rng = np.random.default_rng(seed)
    scene = synth_random(12, 9, rng)
    intr = estimate_intrinsics_from_fov(9, 12, 70.0)
    base = backproject(scene.values, intr)
    max_scale_dev = 0.0
    for alpha in SCALE_FACTORS:
        scaled = backproject(alpha * scene.values, intr)
        max_scale_dev = max(max_scale_dev, float(np.abs(scaled - alpha * base).max()))
    grid_dev = _pixel_dev(base, intr)
    depth_dev = float(np.abs(base[:, :, 2] - scene.values).max())
    passed = max_scale_dev <= SCALE_TOL and grid_dev <= GRID_TOL and depth_dev == 0.0
    return passed, (
        ("factors", "0.5,2.0"),
        ("max_scale_dev", _f(max_scale_dev)),
        ("scale_tol", _f(SCALE_TOL)),
        ("grid_dev", _f(grid_dev)),
        ("grid_tol", _f(GRID_TOL)),
    )


# ---------------------------------------------------------------------------
# encoder gradient check

GRADCHECK_H = 1e-4
GRADCHECK_TOL = 1e-4
GRADCHECK_MIN_COORDS = 100
_GRADCHECK_ZERO = 1e-7


@_property
def check_gradcheck(seed: int) -> tuple[bool, Details]:
    """Analytic encoder gradients vs central finite differences.

    Scalar objective: sum(encode(x) * R) for a fixed random R, so the
    upstream gradient is exactly R.  Coordinates are sampled from the
    input and from every parameter tensor.
    """
    rng = np.random.default_rng(seed)
    params = init_params(out_channels=8, seed=seed + 1)
    x = rng.standard_normal((3, 8, 8))
    r = rng.standard_normal(encode(x, params).shape)
    grads = encode_backward(x, params, r)

    base = {"x": x, **{f.name: getattr(params, f.name) for f in fields(params)}}
    plan = {"x": 40, "w1": 25, "b1": 8, "w2": 25, "b2": 8}

    def _loss(arrays: dict[str, np.ndarray]) -> float:
        x_now = arrays.pop("x")
        return float(np.sum(encode(x_now, EncoderParams(**arrays)) * r))

    n_coords = 0
    max_rel = 0.0
    for name, n_samples in plan.items():
        value, analytic = base[name], getattr(grads, "d" + name)
        idx = rng.choice(value.size, size=min(n_samples, value.size), replace=False)
        for flat in idx:
            coords = np.unravel_index(int(flat), value.shape)
            target = value.copy()
            original = target[coords]
            target[coords] = original + GRADCHECK_H
            plus = _loss({**base, name: target})
            target[coords] = original - GRADCHECK_H
            minus = _loss({**base, name: target})
            fd = (plus - minus) / (2.0 * GRADCHECK_H)
            an = float(analytic[coords])
            scale = max(abs(an), abs(fd))
            if scale < _GRADCHECK_ZERO:
                rel = 0.0 if abs(an - fd) <= _GRADCHECK_ZERO else 1.0
            else:
                rel = abs(an - fd) / scale
            max_rel = max(max_rel, rel)
            n_coords += 1
    return (max_rel <= GRADCHECK_TOL) and (n_coords >= GRADCHECK_MIN_COORDS), (
        ("coords", str(n_coords)),
        ("step", _f(GRADCHECK_H)),
        ("max_rel_err", _f(max_rel)),
        ("tol", _f(GRADCHECK_TOL)),
    )


# ---------------------------------------------------------------------------
# fusion hierarchy, locality, and attention oracles

FUSION_TOL = 1e-12


def _attention_oracle(
    q_in: np.ndarray, kv_in: np.ndarray, params: FusionParams
) -> np.ndarray:
    """Brute-force scaled dot-product attention, one position at a time."""
    nq, c = q_in.shape
    nk = kv_in.shape[0]
    heads = params.heads
    dk = c // heads
    out = np.zeros((nq, c))
    for i in range(nq):
        qi = params.wq @ q_in[i]
        merged = np.zeros(c)
        for h in range(heads):
            sl = slice(h * dk, (h + 1) * dk)
            qh = qi[sl]
            scores = []
            for j in range(nk):
                kj = (params.wk @ kv_in[j])[sl]
                scores.append(float(qh @ kj) / math.sqrt(dk))
            m = max(scores)
            weights = [math.exp(s - m) for s in scores]
            z = sum(weights)
            oh = np.zeros(dk)
            for j in range(nk):
                vj = (params.wv @ kv_in[j])[sl]
                oh += (weights[j] / z) * vj
            merged[sl] = oh
        out[i] = params.wo @ merged
    return out


def _layer_norm_oracle(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        row = x[i]
        mean = float(row.sum()) / row.size
        var = float(((row - mean) ** 2).sum()) / row.size
        out[i] = (row - mean) / math.sqrt(var + 1e-5)
    return out


@_property
def check_fusion(seed: int) -> tuple[bool, Details]:
    rng = np.random.default_rng(seed)
    h, w, c, heads = 2, 3, 4, 2
    f2d = rng.standard_normal((h, w, c))
    f3d = rng.standard_normal((h, w, c))

    # concat with [I | I] and zero bias degenerates to addition
    eye_cat = FusionParams(
        strategy=Strategy.CONCAT, channels=c,
        proj_weight=np.hstack([np.eye(c), np.eye(c)]), proj_bias=np.zeros(c),
    )
    add = FusionParams(strategy=Strategy.ADD, channels=c)
    concat_dev = float(np.abs(fuse(f2d, f3d, eye_cat) - fuse(f2d, f3d, add)).max())

    # addition is strictly per-position
    bumped = f2d.copy()
    bumped[1, 2, 0] += 3.5
    delta = fuse(bumped, f3d, add) - fuse(f2d, f3d, add)
    mask = np.zeros((h, w), dtype=bool)
    mask[1, 2] = True
    locality_ok = bool(np.all(delta[~mask] == 0.0)) and bool(delta[1, 2, 0] != 0.0)

    # attention strategies against brute-force oracles
    xp = init_fusion_params(Strategy.CROSS_ATTENTION, c, seed=seed + 1, heads=heads)
    n = h * w
    q_seq = f2d.reshape(n, c)
    kv_seq = f3d.reshape(n, c)
    xattn_oracle = (q_seq + _attention_oracle(q_seq, kv_seq, xp)).reshape(h, w, c)
    xattn_dev = float(np.abs(fuse(f2d, f3d, xp) - xattn_oracle).max())

    sp = init_fusion_params(Strategy.SELF_ATTENTION, c, seed=seed + 2, heads=heads)
    x_seq = np.concatenate([q_seq, kv_seq], axis=0)
    normed = _layer_norm_oracle(x_seq)
    x1 = x_seq + _attention_oracle(normed, normed, sp)
    n1 = _layer_norm_oracle(x1)
    ffn = np.zeros_like(x1)
    for i in range(x1.shape[0]):
        hidden = np.maximum(sp.w_ff1 @ n1[i] + sp.b_ff1, 0.0)
        ffn[i] = sp.w_ff2 @ hidden + sp.b_ff2
    sattn_oracle = (x1 + ffn)[:n].reshape(h, w, c)
    sattn_dev = float(np.abs(fuse(f2d, f3d, sp) - sattn_oracle).max())

    # every strategy preserves the feature-map shape
    shapes_ok = all(fuse(f2d, f3d, init_fusion_params(s, c, seed=seed + 3, heads=heads)).shape
                    == (h, w, c) for s in Strategy)

    passed = (concat_dev <= FUSION_TOL and xattn_dev <= FUSION_TOL and sattn_dev <= FUSION_TOL
              and locality_ok and shapes_ok)
    return passed, (
        ("concat_vs_add_dev", _f(concat_dev)),
        ("xattn_oracle_dev", _f(xattn_dev)),
        ("sattn_oracle_dev", _f(sattn_dev)),
        ("tol", _f(FUSION_TOL)),
        ("locality", "exact" if locality_ok else "violated"),
        ("shapes", "preserved" if shapes_ok else "broken"),
    )


# ---------------------------------------------------------------------------
# behavior-cloning loss oracle

LOSS_DATASETS = 20
LOSS_TOL = 1e-12
PERFECT_TOL = 1e-5


def _random_action(rng: np.random.Generator, target: bool) -> np.ndarray:
    """An (8,) action row: x, y, z, a quaternion (unit for a target), then open."""
    quat = rng.standard_normal(4)  # drawn first, then xyz, then open
    if target:
        quat = quat / np.linalg.norm(quat)
    xyz = rng.standard_normal(3)
    open_prob = float(rng.integers(0, 2)) if target else float(rng.uniform(0.01, 0.99))
    return np.concatenate([xyz, quat, [open_prob]])


def _loss_oracle(trajectories: list[np.ndarray]) -> float:
    """Flat-loop recomputation of the dataset loss with scalar math."""
    total = 0.0
    count = 0
    for traj in trajectories:
        for pred, target in traj.tolist():
            se_xyz = sum((pred[i] - target[i]) ** 2 for i in range(3)) / 3.0
            se_quat = sum((pred[i] - target[i]) ** 2 for i in range(3, 7)) / 4.0
            p = min(max(pred[7], BCE_EPS), 1.0 - BCE_EPS)
            y = target[7]
            bce = -(y * math.log(p) + (1.0 - y) * math.log(1.0 - p))
            total += se_xyz + se_quat + bce
            count += 1
    return total / count


@_property
def check_loss(seed: int) -> tuple[bool, Details]:
    rng = np.random.default_rng(seed)
    max_dev = 0.0
    for _ in range(LOSS_DATASETS):
        # 1-4 trajectories of 1-5 (prediction, target) steps each
        trajectories = [np.array([(_random_action(rng, target=False),
                                   _random_action(rng, target=True))
                                  for _ in range(int(rng.integers(1, 6)))])
                        for _ in range(int(rng.integers(1, 5)))]
        max_dev = max(max_dev, abs(dataset_loss(trajectories) - _loss_oracle(trajectories)))

    # step 0, a perfect prediction: only the clamped BCE residue remains;
    # step 1, a single-axis position error of delta, contributes exactly delta^2/3
    # (first component is 0 in the target, so the difference is exactly delta)
    delta = 0.3
    target = np.array([0.0, -0.2, 0.3, 1.0, 0.0, 0.0, 0.0, 1.0])
    pred = target.copy()
    pred[0] = delta
    mse_xyz, _, _, total = _step_losses(np.array([[target, target], [pred, target]]))
    perfect = float(total[0])
    delta_exact = float(mse_xyz[1]) == (delta * delta) / 3.0

    return (max_dev <= LOSS_TOL) and (perfect <= PERFECT_TOL) and delta_exact, (
        ("datasets", str(LOSS_DATASETS)),
        ("max_oracle_dev", _f(max_dev)),
        ("oracle_tol", _f(LOSS_TOL)),
        ("perfect_loss", _f(perfect)),
        ("perfect_tol", _f(PERFECT_TOL)),
        ("delta_sq_third", "exact" if delta_exact else "inexact"),
    )


# ---------------------------------------------------------------------------
# file format round trips


@_property
def check_files(seed: int) -> tuple[bool, Details]:
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        # PLY round trip is float32-exact, grid shape included
        points = rng.uniform(-5.0, 5.0, size=(5, 7, 3))
        ply.export_ply(f"{tmp}/cloud.ply", points)
        ply_ok = np.array_equal(ply.read_ply(f"{tmp}/cloud.ply"), points.astype(np.float32))

        # the same sixteenths ramp through all three depth formats
        k = np.tile(np.arange(17), (4, 1))
        ramp = k / 16.0
        depth_io.write_csv(f"{tmp}/ramp.csv", ramp)
        depth_io.write_pfm(f"{tmp}/ramp.pfm", ramp)
        depth_io.write_pgm(f"{tmp}/ramp.pgm", 256 * k, maxval=4096)
        read_back = [depth_io.read_csv(f"{tmp}/ramp.csv"), depth_io.read_pfm(f"{tmp}/ramp.pfm"),
                     depth_io.read_pgm(f"{tmp}/ramp.pgm")]
        ramp_ok = all(np.array_equal(values, ramp) for values in read_back)
    return ply_ok and ramp_ok, (
        ("ply_roundtrip", "exact" if ply_ok else "broken"),
        ("ramp_formats", "agree" if ramp_ok else "disagree"),
    )


# ---------------------------------------------------------------------------
# report rendering and the determinism check


def _payload(results: list[PropertyResult], seed: int) -> dict:
    """What both report formats show, in report order."""
    passed = sum(r.passed for r in results)
    return {
        "seed": seed,
        "properties": [{"prop": r.name, "status": "pass" if r.passed else "fail",
                        "details": dict(r.details)} for r in results],
        "summary": {"total": len(results), "passed": passed, "failed": len(results) - passed},
    }


def render_report(results: list[PropertyResult], seed: int) -> str:
    """Line-oriented key=value report; deterministic for a given seed."""
    payload = _payload(results, seed)
    lines = [f"seed={seed}"]
    for prop in payload["properties"]:
        pairs = [("prop", prop["prop"]), ("status", prop["status"]), *prop["details"].items()]
        lines.append(" ".join(f"{k}={v}" for k, v in pairs))
    lines.append(" ".join(["summary"] + [f"{k}={v}" for k, v in payload["summary"].items()]))
    return "\n".join(lines) + "\n"


def render_report_json(results: list[PropertyResult], seed: int) -> str:
    return json.dumps(_payload(results, seed), sort_keys=True, indent=2) + "\n"


@_property
def check_determinism(seed: int) -> tuple[bool, Details]:
    """Running every other check twice must render byte-identical reports."""
    others = [check for name, check in _CHECKS.items() if name != "determinism"]
    first = [check(seed) for check in others]
    second = [check(seed) for check in others]
    text_same = render_report(first, seed) == render_report(second, seed)
    json_same = render_report_json(first, seed) == render_report_json(second, seed)
    return text_same and json_same, (
        ("reruns", "2"),
        ("text_identical", "yes" if text_same else "no"),
        ("json_identical", "yes" if json_same else "no"),
    )


ALL_PROPS = tuple(_CHECKS)


def run_properties(
    names: list[str] | tuple[str, ...],
    seed: int,
    break_shift: bool = False,
) -> list[PropertyResult]:
    """Run the named checks in canonical order and return their results.

    ``break_shift`` reaches only the ``affine`` check, its negative control.
    No name, or a name not in :data:`ALL_PROPS`, raises :class:`InvalidInputError`.
    """
    unknown = [n for n in names if n not in _CHECKS]
    if unknown or not names:
        found = f"unknown properties: {', '.join(unknown)}" if unknown else "no property selected"
        raise InvalidInputError(f"{found}; expected from {', '.join(ALL_PROPS)}")
    return [_CHECKS[n](seed, break_shift) if n == "affine" else _CHECKS[n](seed)
            for n in ALL_PROPS if n in names]
