"""Seeded input generation for the benchmark.

Run as a script in its own process, so that generating the inputs never sets
the benchmark process's peak resident set:

    python3 perfbench/inputs.py WORKDIR SEED WORKLOAD [WORKLOAD ...]

Every file is written with this module's own writers, not the program's, so
the readers under test meet bytes they did not produce.  Next to the files,
``truth.npz`` in each workload directory holds the exact values the files
encode; the output checks recompute from those.  Sizes are fixed; only values
depend on the seed, so every seed does the same amount of work.
"""

from __future__ import annotations

import math
import struct
import sys
from pathlib import Path

import numpy as np

import reference

FRAME_H, FRAME_W = 480, 640
SMALL_SIDE = 128
CHANNELS = 32
HIDDEN = 16
BC_STEPS = 10_000
BC_TRAJECTORIES = 100
GEN_CLOUD_FORMATS = ("pfm", "pgm", "csv")
WORKLOAD_IDS = {"gen-cloud": 1, "policy-train": 2, "attend": 3, "bc-score": 4}
ACTION_HEADER = "x,y,z,qw,qx,qy,qz,open"


def relative_frame(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """A disparity-like relative depth frame: a tilted floor plane with
    Gaussian objects on it, light noise, then an unknown scale and shift."""
    y, x = np.mgrid[0:h, 0:w]
    x = x / (w - 1)
    y = y / (h - 1)
    z = 2.0 + rng.uniform(-1.0, 1.0) * x + rng.uniform(0.5, 2.0) * (1.0 - y)
    for _ in range(6):
        cx, cy = rng.uniform(0.1, 0.9, size=2)
        s = rng.uniform(0.04, 0.15)
        z -= rng.uniform(0.2, 1.0) * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * s * s))
    z += 0.01 * rng.standard_normal((h, w))
    return rng.uniform(0.5, 3.0) / z + rng.uniform(-0.5, 0.5)


def camera(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """(fx, fy, cx, cy) of a near-centred camera with a 50-70 degree FOV."""
    fx = (w / 2.0) / math.tan(math.radians(rng.uniform(50.0, 70.0)) / 2.0)
    fy = fx * rng.uniform(0.98, 1.02)
    cx = (w - 1) / 2.0 + rng.uniform(-4.0, 4.0)
    cy = (h - 1) / 2.0 + rng.uniform(-4.0, 4.0)
    return np.array([fx, fy, cx, cy])


def encoder_weights(rng: np.random.Generator) -> dict[str, np.ndarray]:
    b1 = 1.0 / math.sqrt(27)
    b2 = 1.0 / math.sqrt(HIDDEN * 9)
    return {
        "w1": rng.uniform(-b1, b1, size=(HIDDEN, 3, 3, 3)),
        "b1": rng.uniform(-0.1, 0.1, size=HIDDEN),
        "w2": rng.uniform(-b2, b2, size=(CHANNELS, HIDDEN, 3, 3)),
        "b2": rng.uniform(-0.1, 0.1, size=CHANNELS),
    }


def unit_quats(rng: np.random.Generator, n: int) -> np.ndarray:
    q = rng.standard_normal((n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


# --- writers -------------------------------------------------------------


def write_pfm(path: Path, values: np.ndarray) -> np.ndarray:
    """Little-endian grayscale PFM, rows bottom to top; returns the values
    the file holds (float32-rounded, widened to float64)."""
    h, w = values.shape
    raster = np.flipud(values).astype("<f4")
    path.write_bytes(b"Pf\n%d %d\n-1.0\n" % (w, h) + raster.tobytes())
    return values.astype(np.float32).astype(np.float64)


def write_pgm16(path: Path, values: np.ndarray) -> np.ndarray:
    """16-bit binary PGM of the min-max rescaled frame; returns v / 65535."""
    lo, hi = values.min(), values.max()
    samples = np.rint((values - lo) / (hi - lo) * 65535.0).astype(np.uint16)
    h, w = samples.shape
    path.write_bytes(b"P5\n%d %d\n65535\n" % (w, h) + samples.astype(">u2").tobytes())
    return samples.astype(np.float64) / 65535.0


def write_csv(path: Path, values: np.ndarray, header: str | None = None) -> np.ndarray:
    """Comma-separated rows with round-trip-exact %.17g numbers."""
    np.savetxt(path, values, delimiter=",", fmt="%.17g",
               header=header or "", comments="")
    return values


def write_intrinsics(path: Path, cam: np.ndarray) -> None:
    fx, fy, cx, cy = (float(v) for v in cam)
    path.write_text(f"# benchmark camera\nfx = {fx!r}\nfy = {fy!r}\ncx = {cx!r}\ncy = {cy!r}\n")


def write_encoder_params(path: Path, weights: dict[str, np.ndarray]) -> None:
    """The program's parameter blob: b"PENC", version 1 and C as <u4, then
    w1, b1, w2, b2 as little-endian float64."""
    blob = [b"PENC", struct.pack("<II", 1, CHANNELS)]
    blob += [np.ascontiguousarray(weights[k], dtype="<f8").tobytes()
             for k in ("w1", "b1", "w2", "b2")]
    path.write_bytes(b"".join(blob))


# --- workloads -----------------------------------------------------------


def gen_cloud(rng: np.random.Generator, out: Path, cam: np.ndarray) -> dict:
    writers = {"pfm": write_pfm, "pgm": write_pgm16, "csv": write_csv}
    truth = {"camera": cam}
    for fmt in GEN_CLOUD_FORMATS:
        frame = relative_frame(rng, FRAME_H, FRAME_W)
        truth[f"depth_{fmt}"] = writers[fmt](out / f"frame.{fmt}", frame)
    return truth


def policy_train(rng: np.random.Generator, out: Path, cam: np.ndarray) -> dict:
    depth = write_pfm(out / "frame.pfm", relative_frame(rng, FRAME_H, FRAME_W))
    fh, fw = (FRAME_H + 3) // 4, (FRAME_W + 3) // 4
    return {
        "camera": cam,
        "depth_pfm": depth,
        "f2d": rng.standard_normal((fh, fw, CHANNELS)),
        "head": rng.uniform(-0.5, 0.5, size=(CHANNELS, 8)),
        "target": np.column_stack([rng.uniform(-0.5, 0.5, size=(2, 3)), unit_quats(rng, 2),
                                   rng.integers(0, 2, size=2)]),
    }


def attend(rng: np.random.Generator, out: Path, cam: np.ndarray) -> dict:
    del out, cam
    small_cam = camera(rng, SMALL_SIDE, SMALL_SIDE)
    depth = relative_frame(rng, SMALL_SIDE, SMALL_SIDE)
    points = reference.backproject(reference.relative_to_dr(depth), *small_cam)
    side = SMALL_SIDE // 4
    return {
        "cmap": reference.standardized_coordinate_map(points),
        "f2d": rng.standard_normal((side, side, CHANNELS)),
    }


def bc_score(rng: np.random.Generator, out: Path, cam: np.ndarray) -> dict:
    del cam
    cuts = np.sort(rng.choice(np.arange(1, BC_STEPS), size=BC_TRAJECTORIES - 1, replace=False))
    lengths = np.diff(np.concatenate([[0], cuts, [BC_STEPS]]))
    target = np.column_stack([rng.uniform(-0.5, 0.5, size=(BC_STEPS, 3)),
                              unit_quats(rng, BC_STEPS),
                              rng.integers(0, 2, size=BC_STEPS)]).astype(np.float64)
    pred = np.column_stack([target[:, :3] + 0.05 * rng.standard_normal((BC_STEPS, 3)),
                            target[:, 3:7] + 0.1 * rng.standard_normal((BC_STEPS, 4)),
                            rng.uniform(0.01, 0.99, size=BC_STEPS)])
    write_csv(out / "pred.csv", pred, header=ACTION_HEADER)
    write_csv(out / "target.csv", target)
    return {"pred": pred, "target": target, "lengths": lengths}


GENERATORS = {"gen-cloud": gen_cloud, "policy-train": policy_train,
              "attend": attend, "bc-score": bc_score}


def generate(workdir: Path, seed: int, workloads: list[str]) -> None:
    """Write the shared camera and encoder files, then each workload's inputs."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 0])
    cam = camera(rng, FRAME_H, FRAME_W)
    weights = encoder_weights(rng)
    write_intrinsics(workdir / "camera.cfg", cam)
    write_encoder_params(workdir / "encoder.penc", weights)
    np.savez(workdir / "encoder.npz", **weights)
    for name in workloads:
        out = workdir / name
        out.mkdir(exist_ok=True)
        truth = GENERATORS[name](np.random.default_rng([seed, WORKLOAD_IDS[name]]), out, cam)
        np.savez(out / "truth.npz", **truth)


if __name__ == "__main__":
    generate(Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:])
