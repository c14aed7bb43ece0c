"""The benchmark's four workloads, written against pseudo3d's public API.

Each workload turns the generated inputs into items.  ``run(slot)`` is the
timed part: one item on distinct input ``slot``, returning the program's raw
results.  ``outputs`` turns those into named arrays outside the timed region,
and ``check`` compares them with the plain-numpy recomputations in
``reference``.  One round runs every slot once.

The workloads look the program's functions up on the module at call time
(``self.p3.encode(...)``), so the traced run can wrap them.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import reference
from inputs import BC_STEPS, CHANNELS, FRAME_H, FRAME_W, GEN_CLOUD_FORMATS, SMALL_SIDE

HEADS = 4
SUMMARY_KEYS = ("width", "height", "points", "dr_min", "dr_max", "mean_step", "max_step")


class ItemFailed(Exception):
    """The program reported a failure for one item."""


def readout(fused: np.ndarray, head: np.ndarray) -> np.ndarray:
    """An 8-value action (x, y, z, quaternion, gripper logit) read out of a
    fused feature map by mean pooling and a linear head."""
    return fused.mean(axis=(0, 1)) @ head


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def action_rows(fused_maps: list[np.ndarray], head: np.ndarray) -> np.ndarray:
    rows = np.array([readout(f, head) for f in fused_maps])
    rows[:, 7] = sigmoid(rows[:, 7])
    return rows


def feature_grad(rows: np.ndarray, target: np.ndarray, head: np.ndarray,
                 proj_weight: np.ndarray, n_positions: int) -> np.ndarray:
    """(C,) gradient of the two-step BC loss with respect to every position
    of the 3-D feature map, back through the readouts, ``add`` (identity) and
    ``concat`` (the 3-D half of the projection)."""
    c = head.shape[0]
    dz = np.column_stack([2.0 * (rows[:, :3] - target[:, :3]) / 3.0,
                          2.0 * (rows[:, 3:7] - target[:, 3:7]) / 4.0,
                          rows[:, 7] - target[:, 7]]) / len(rows)
    d_fused = dz @ head.T / n_positions  # (2, C), one row per fusion
    return d_fused[0] + d_fused[1] @ proj_weight[:, c:]


class Checks:
    """Collects the failed comparisons of one check."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def close(self, what: str, got, want, rtol: float, atol: float = 0.0) -> None:
        got = np.asarray(got, dtype=np.float64)
        want = np.asarray(want, dtype=np.float64)
        if got.shape != want.shape:
            self.failures.append(f"{what}: shape {got.shape}, expected {want.shape}")
            return
        bad = np.abs(got - want) > atol + rtol * np.abs(want)
        if bad.any():
            err = float(np.max(np.abs(got - want)))
            self.failures.append(f"{what}: {int(bad.sum())} of {bad.size} values off "
                                 f"(max abs error {err:.3e})")


def check_encode_sample(checks: Checks, feat: np.ndarray, x: np.ndarray, weights: dict,
                        rng: np.random.Generator, n: int) -> None:
    h, w, _ = feat.shape
    for r, c in reference.sample_positions(rng, h, w, n):
        checks.close(f"encode[{r},{c}]", feat[r, c], reference.encode_at(x, weights, r, c),
                     rtol=1e-9, atol=1e-12)


class Workload:
    name = ""
    slots = 1

    def __init__(self, p3, workdir: Path, seed: int) -> None:
        self.p3 = p3
        self.seed = seed
        self.dir = workdir / self.name
        self.truth = dict(np.load(self.dir / "truth.npz"))
        self.weights = dict(np.load(workdir / "encoder.npz"))
        self.cfg = workdir / "camera.cfg"

    def fusion_params(self, strategy):
        return self.p3.init_fusion_params(strategy, CHANNELS, seed=self.seed, heads=HEADS)

    def check_rng(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, 99])


class GenCloud(Workload):
    """One ``gen-cloud`` command per item, in-process through the CLI; the
    frames rotate through PFM, 16-bit PGM and CSV."""

    name = "gen-cloud"
    slots = len(GEN_CLOUD_FORMATS)

    def run(self, slot: int):
        fmt = GEN_CLOUD_FORMATS[slot]
        out = self.dir / f"out-{fmt}.ply"
        argv = ["gen-cloud", "--depth", str(self.dir / f"frame.{fmt}"), "--format", fmt,
                "--intrinsics", str(self.cfg), "--out", str(out), "--json"]
        text = io.StringIO()
        with redirect_stdout(text), redirect_stderr(text):
            code = self.p3.cli.main(argv)
        return code, text.getvalue(), out

    def outputs(self, raw) -> dict[str, np.ndarray]:
        code, text, out = raw
        if code != 0:
            raise ItemFailed(f"gen-cloud exited {code}: {text.strip()}")
        summary = json.loads(text)
        return {"ply": np.frombuffer(out.read_bytes(), dtype=np.uint8),
                "summary": np.array([summary[k] for k in SUMMARY_KEYS], dtype=np.float64)}

    def check(self, slot: int, out: dict) -> list[str]:
        checks = Checks()
        dr = reference.relative_to_dr(self.truth[f"depth_{GEN_CLOUD_FORMATS[slot]}"])
        points = reference.backproject(dr, *self.truth["camera"])
        try:
            header, vertices = reference.read_ply(out["ply"].tobytes())
        except (ValueError, KeyError) as exc:
            return [f"PLY: {exc!r}"]
        checks.close("PLY vertex count", header["vertices"], FRAME_H * FRAME_W, rtol=0.0)
        checks.close("PLY grid comment", header.get("grid", (0, 0)), (FRAME_H, FRAME_W), rtol=0.0)
        if not checks.failures:
            checks.close("PLY vertices", vertices, points.reshape(-1, 3), rtol=reference.F32_REL)
        mean_step, max_step = reference.continuity(points)
        want = [FRAME_W, FRAME_H, FRAME_H * FRAME_W, dr.min(), dr.max(), mean_step, max_step]
        for key, got, expected in zip(SUMMARY_KEYS, out["summary"], want):
            checks.close(f"summary {key}", got, expected, rtol=1e-9)
        return checks.failures


class PolicyTrain(Workload):
    """One training step per item on a 480x640 PFM frame: conditioning,
    back-projection, coordinate map, ``encode``, ``fuse`` by add and by
    concat, ``dataset_loss`` over the two read-out actions, then
    ``encode_backward`` of that loss."""

    name = "policy-train"

    def __init__(self, p3, workdir: Path, seed: int) -> None:
        super().__init__(p3, workdir, seed)
        self.intrinsics = p3.load_intrinsics(str(self.cfg))
        self.params = p3.load_params(str(workdir / "encoder.penc"))
        self.fusion = [self.fusion_params(p3.Strategy.ADD),
                       self.fusion_params(p3.Strategy.CONCAT)]
        self.targets = [p3.Action(xyz=t[:3], quat=t[3:7], open_prob=t[7])
                        for t in self.truth["target"]]

    def run(self, slot: int):
        p3 = self.p3
        depth = p3.load_depth_map(str(self.dir / "frame.pfm"), "pfm",
                                  p3.DepthKind.PREDICTED_RELATIVE)
        cloud = p3.cloud_from_depth(p3.pipeline_relative_to_dr(depth), self.intrinsics)
        cmap, _ = p3.normalize_coordinate_map(p3.to_coordinate_map(cloud))
        feat = p3.encode(cmap, self.params)
        fused = [p3.fuse(self.truth["f2d"], feat, fp) for fp in self.fusion]
        rows = action_rows(fused, self.truth["head"])
        actions = [p3.Action(xyz=r[:3], quat=r[3:7], open_prob=r[7]) for r in rows]
        loss = p3.dataset_loss([p3.trajectory_from_rows(actions, self.targets)])
        gvec = feature_grad(rows, self.truth["target"], self.truth["head"],
                            self.fusion[1].proj_weight, feat.shape[0] * feat.shape[1])
        grads = p3.encode_backward(cmap, self.params, np.broadcast_to(gvec, feat.shape))
        return feat, fused, loss, gvec, grads

    def outputs(self, raw) -> dict[str, np.ndarray]:
        feat, (fused_add, fused_concat), loss, gvec, g = raw
        return {"feat": feat, "fused_add": fused_add, "fused_concat": fused_concat,
                "loss": np.array(loss), "gvec": gvec,
                "dx": g.dx, "dw1": g.dw1, "db1": g.db1, "dw2": g.dw2, "db2": g.db2}

    def check(self, slot: int, out: dict) -> list[str]:
        checks = Checks()
        rng = self.check_rng()
        dr = reference.relative_to_dr(self.truth["depth_pfm"])
        x = reference.standardized_coordinate_map(reference.backproject(dr, *self.truth["camera"]))
        feat, f2d = out["feat"], self.truth["f2d"]
        check_encode_sample(checks, feat, x, self.weights, rng, 32)
        concat = self.fusion[1]
        checks.close("fuse add", out["fused_add"], f2d + feat, rtol=1e-15)
        checks.close("fuse concat", out["fused_concat"],
                     np.concatenate([f2d, feat], axis=-1) @ concat.proj_weight.T + concat.proj_bias,
                     rtol=1e-10, atol=1e-12)
        rows = action_rows([out["fused_add"], out["fused_concat"]], self.truth["head"])
        checks.close("dataset_loss", out["loss"], reference.bc_loss(rows, self.truth["target"]),
                     rtol=1e-12)
        g = np.broadcast_to(out["gvec"], feat.shape)
        grads = {k: out["d" + k] for k in ("x", "w1", "b1", "w2", "b2")}
        for key, (analytic, numeric) in reference.directional_derivatives(
                x, self.weights, g, grads, rng).items():
            checks.close(f"encode_backward d{key} along a random direction", analytic, numeric,
                         rtol=1e-6)
        return checks.failures


class Attend(Workload):
    """Policy inference with attention fusion: a 128x128 coordinate map
    through ``encode``, then ``fuse`` by xattn and by sattn (4 heads)."""

    name = "attend"

    def __init__(self, p3, workdir: Path, seed: int) -> None:
        super().__init__(p3, workdir, seed)
        self.params = p3.load_params(str(workdir / "encoder.penc"))
        self.fusion = [self.fusion_params(p3.Strategy.CROSS_ATTENTION),
                       self.fusion_params(p3.Strategy.SELF_ATTENTION)]

    def run(self, slot: int):
        feat = self.p3.encode(self.truth["cmap"], self.params)
        return feat, [self.p3.fuse(self.truth["f2d"], feat, fp) for fp in self.fusion]

    def outputs(self, raw) -> dict[str, np.ndarray]:
        feat, (xattn, sattn) = raw
        return {"feat": feat, "xattn": xattn, "sattn": sattn}

    def check(self, slot: int, out: dict) -> list[str]:
        checks = Checks()
        rng = self.check_rng()
        feat, f2d = out["feat"], self.truth["f2d"]
        check_encode_sample(checks, feat, self.truth["cmap"], self.weights, rng, 16)
        n = (SMALL_SIDE // 4) ** 2
        rows = np.concatenate([[0, n - 1], rng.choice(np.arange(1, n - 1), 30, replace=False)])
        xattn, sattn = self.fusion
        c = feat.shape[-1]
        checks.close("xattn rows", out["xattn"].reshape(n, c)[rows],
                     reference.cross_attention_rows(f2d, feat, xattn, rows), rtol=1e-9, atol=1e-12)
        checks.close("sattn rows", out["sattn"].reshape(n, c)[rows],
                     reference.self_attention_rows(f2d, feat, sattn, rows), rtol=1e-9, atol=1e-12)
        return checks.failures


class BcScore(Workload):
    """Scoring demonstrations: read a prediction CSV (with a header row) and
    a target CSV, split them into 100 ragged trajectories of 10k steps in
    all, and run ``dataset_loss``."""

    name = "bc-score"

    def __init__(self, p3, workdir: Path, seed: int) -> None:
        super().__init__(p3, workdir, seed)
        self.bounds = np.concatenate([[0], np.cumsum(self.truth["lengths"])]).tolist()

    def run(self, slot: int):
        p3 = self.p3
        preds = p3.read_actions_csv(str(self.dir / "pred.csv"))
        targets = p3.read_actions_csv(str(self.dir / "target.csv"))
        trajectories = [p3.trajectory_from_rows(preds[a:b], targets[a:b])
                        for a, b in zip(self.bounds[:-1], self.bounds[1:])]
        return len(preds), len(targets), p3.dataset_loss(trajectories)

    def outputs(self, raw) -> dict[str, np.ndarray]:
        n_pred, n_target, loss = raw
        return {"rows": np.array([n_pred, n_target]), "loss": np.array(loss)}

    def check(self, slot: int, out: dict) -> list[str]:
        checks = Checks()
        checks.close("rows read", out["rows"], [BC_STEPS, BC_STEPS], rtol=0.0)
        checks.close("dataset_loss", out["loss"],
                     reference.bc_loss(self.truth["pred"], self.truth["target"]), rtol=1e-12)
        return checks.failures


WORKLOADS = {w.name: w for w in (GenCloud, PolicyTrain, Attend, BcScore)}
