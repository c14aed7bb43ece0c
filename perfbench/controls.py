"""Negative controls for the benchmark's output checks.

    python3 perfbench/controls.py [--seed N]

For every workload, the outputs of one clean round must pass the workload's
check, and each corrupted variant below must fail it: a check that cannot
fail shows nothing.  Prints one line per control and exits 1 if any control
goes the wrong way.
"""

from __future__ import annotations

import argparse
import shutil
import sys

import numpy as np

import run
from workloads import WORKLOADS


def shifted_depth(out: dict) -> dict:
    """Every vertex 1e-4 farther away, as from a depth shifted after normalizing."""
    ply = out["ply"].copy()
    header_end = ply.tobytes().index(b"end_header\n") + len(b"end_header\n")
    vertices = ply[header_end:].view("<f4").reshape(-1, 3)
    vertices[:, 2] += np.float32(1e-4)
    return {**out, "ply": ply}


def one_vertex(out: dict) -> dict:
    ply = out["ply"].copy()
    vertices = ply[-12:].view("<f4")
    vertices[0] *= np.float32(1.0 + 1e-5)
    return {**out, "ply": ply}


def scaled(key: str, factor: float):
    def corrupt(out: dict) -> dict:
        return {**out, key: out[key] * factor}
    corrupt.__name__ = f"{key} x {factor!r}"
    return corrupt


def summary_step(out: dict) -> dict:
    summary = out["summary"].copy()
    summary[5] *= 1.0 + 1e-6  # mean_step
    return {**out, "summary": summary}


def bumped(key: str, amount: float):
    def corrupt(out: dict) -> dict:
        arr = np.array(out[key], dtype=np.float64)
        arr.flat[arr.size // 2] += amount
        return {**out, key: arr}
    corrupt.__name__ = f"{key} element + {amount!r}"
    return corrupt


def perturbed_encoder(wl) -> None:
    """Run the item with one conv2 weight off by 1e-6."""
    p = wl.params
    w2 = p.w2.copy()
    w2[0, 0, 1, 1] += 1e-6
    wl.params = wl.p3.EncoderParams(w1=p.w1, b1=p.b1, w2=w2, b2=p.b2)


def perturbed_query(wl) -> None:
    """Run the item with one xattn query weight off by 1e-6."""
    fp = wl.fusion[0]
    wq = fp.wq.copy()
    wq[0, 0] += 1e-6
    wl.fusion[0] = wl.p3.FusionParams(strategy=fp.strategy, channels=fp.channels, heads=fp.heads,
                                      wq=wq, wk=fp.wk, wv=fp.wv, wo=fp.wo)


def dropped_trajectory(wl) -> None:
    """Score the dataset without its last trajectory."""
    wl.bounds = wl.bounds[:-1]


# workload -> corruptions of the outputs, and changes to the program's inputs
# or parameters that must make the item's outputs fail the check
OUTPUT_CONTROLS = {
    "gen-cloud": [shifted_depth, one_vertex, summary_step],
    "policy-train": [scaled("loss", 1.0 + 1e-9), bumped("fused_concat", 1e-6),
                     bumped("fused_add", 1e-9), scaled("dx", 1.0 + 1e-3), scaled("dw1", 1.0 + 1e-3),
                     scaled("db1", 1.0 + 1e-3), scaled("dw2", 1.0 + 1e-3), scaled("db2", 1.0 + 1e-3),
                     scaled("gvec", 1.0 + 1e-3)],
    "attend": [scaled("sattn", 1.0 + 1e-6), scaled("feat", 1.0 + 1e-6)],
    "bc-score": [scaled("loss", 1.0 + 1e-10), bumped("rows", -1)],
}
RUN_CONTROLS = {
    "gen-cloud": [],
    "policy-train": [perturbed_encoder],
    "attend": [perturbed_query],
    "bc-score": [dropped_trajectory],
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    p3 = run.import_program()
    workdir = run.HERE / "_work" / f"controls-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    wrong = 0

    def report(name: str, what: str, failures: list[str], should_fail: bool) -> None:
        nonlocal wrong
        ok = bool(failures) == should_fail
        wrong += not ok
        verdict = "fails as it should" if should_fail and ok else "passes" if ok else "WRONG"
        detail = f" ({failures[0]})" if failures else ""
        print(f"{name}: {what}: {verdict}{detail}")

    try:
        run.generate(workdir, args.seed, list(WORKLOADS))
        for name, cls in WORKLOADS.items():
            wl = cls(p3, workdir, args.seed)
            clean = [wl.outputs(wl.run(slot)) for slot in range(wl.slots)]
            for slot, out in enumerate(clean):
                report(name, f"clean slot {slot}", wl.check(slot, out), should_fail=False)
            for corrupt in OUTPUT_CONTROLS[name]:
                report(name, corrupt.__name__, wl.check(0, corrupt(clean[0])), should_fail=True)
            for change in RUN_CONTROLS[name]:
                changed = cls(p3, workdir, args.seed)
                change(changed)
                out = changed.outputs(changed.run(0))
                report(name, change.__name__, wl.check(0, out), should_fail=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{wrong} control(s) went the wrong way")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
