"""pseudo3d benchmark: one workload, one seed, a closed loop of items.

    python3 perfbench/run.py --workload gen-cloud --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The inputs are generated from the seed in a
child process, the program's set-up is timed in fresh interpreters, and warm-up
rounds run before the timed loop.  Every item's outputs are checked against
plain-numpy recomputations outside the timed region.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer ones).
See README.md in this directory.
"""

import os
import sys

# The process environment is part of the benchmark, so run.py re-executes
# itself under it before numpy loads:
# - one BLAS thread: a second one only burns CPU on these sizes;
# - glibc keeps freed memory in the process (no mmap, no trimming).  By
#   default every large numpy temporary is a fresh mapping, and the kernel's
#   zeroing and huge-page compaction of it took about a third of an attention
#   loop, and the items of one run ranged from 364 to 640 ms.  Allocation
#   volume still shows in peak_rss_mb and in the traced run's tracemalloc peaks.
BENCH_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "GLIBC_TUNABLES": "glibc.malloc.mmap_max=0:glibc.malloc.trim_threshold=4294967296",
}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in BENCH_ENV.items()):
    os.environ.update(BENCH_ENV)
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, ItemFailed  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WARMUP_ROUNDS = 2
COVERAGE_ROUNDS = 3   # traced rounds of each other workload in a traced run
SETUP_PROBES = 10


def import_program():
    """Import pseudo3d from this checkout's sources and nowhere else."""
    if not (SRC / "pseudo3d" / "__init__.py").is_file():
        sys.exit(f"run.py: no pseudo3d sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pseudo3d
    import pseudo3d.cli  # noqa: F401  (gen-cloud items call it)
    if SRC not in Path(pseudo3d.__file__).resolve().parents:
        sys.exit(f"run.py: imported pseudo3d from {pseudo3d.__file__}, not from {SRC}")
    return pseudo3d


def digest(out: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(out):
        arr = np.ascontiguousarray(out[key])
        h.update(f"{key}:{arr.dtype}:{arr.shape}".encode())
        h.update(arr.data)
    return h.hexdigest()


class Ledger:
    """Counts items and checks their outputs.

    The first item on each distinct input is the reference: its outputs are
    saved and, after the timed loop, checked in full.  Every later item on
    that input must produce byte-identical outputs (compared by digest), so
    every item is checked without holding outputs in memory during the loop.
    """

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list[str] = []
        self.refs: dict[tuple[str, int], dict] = {}

    def fail(self, what: str, count: int = 1, wrong: bool = False) -> None:
        self.failed += count
        self.wrong += count if wrong else 0
        if len(self.notes) < 20:
            self.notes.append(what)

    def record(self, wl, slot: int, raw) -> None:
        try:
            out = wl.outputs(raw)
        except ItemFailed as exc:
            self.fail(f"{wl.name} slot {slot}: {exc}")
            return
        except Exception as exc:  # malformed output: count it, keep the run going
            self.fail(f"{wl.name} slot {slot}: unreadable output: {exc!r}", wrong=True)
            return
        key = (wl.name, slot)
        ref = self.refs.get(key)
        if ref is None:
            path = self.workdir / f"ref-{wl.name}-{slot}.npz"
            np.savez(path, **out)
            self.refs[key] = {"digest": digest(out), "path": path, "items": 1, "wl": wl}
        elif digest(out) != ref["digest"]:
            self.fail(f"{wl.name} slot {slot}: outputs differ from the first item's", wrong=True)
        else:
            ref["items"] += 1

    def check_all(self) -> None:
        for (name, slot), ref in self.refs.items():
            try:
                with np.load(ref["path"]) as saved:
                    failures = ref["wl"].check(slot, dict(saved))
            except Exception as exc:  # an output the check cannot even read is wrong
                failures = [f"check raised {exc!r}"]
            if failures:
                self.fail(f"{name} slot {slot}: " + "; ".join(failures[:5]),
                          count=ref["items"], wrong=True)


def loop(wl, ledger: Ledger, rounds: int = 0, seconds: float = 0.0,
         tracer: Tracer | None = None) -> list[float]:
    """Closed loop of whole rounds until `rounds` rounds are done and
    `seconds` have passed; returns each item's wall time in seconds."""
    times = []
    start = time.perf_counter()
    done = 0
    while done < rounds or time.perf_counter() - start < seconds:
        for slot in range(wl.slots):
            ledger.attempted += 1
            if tracer is not None:
                tracer.item = f"{wl.name}:{ledger.attempted}"
            t0 = time.perf_counter()
            try:
                raw = wl.run(slot)
            except Exception as exc:  # a raising item is a failed operation; keep going
                times.append(time.perf_counter() - t0)
                ledger.fail(f"{wl.name} slot {slot}: {type(exc).__name__}: {exc}")
                continue
            times.append(time.perf_counter() - t0)
            ledger.record(wl, slot, raw)
        done += 1
    return times


def generate(workdir: Path, seed: int, names: list[str]) -> None:
    subprocess.run([sys.executable, str(HERE / "inputs.py"), str(workdir), str(seed), *names],
                   check=True, timeout=120)


def setup_probes(workdir: Path, count: int) -> list[float]:
    """Set-up times of `count` fresh interpreters (children, so they never
    touch this process's ru_maxrss)."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
            str(workdir / "encoder.penc"), str(workdir / "camera.cfg")]
    return [float(subprocess.run(argv, check=True, capture_output=True, text=True,
                                 timeout=60).stdout) for _ in range(count)]


def timed_run(p3, args, workdir: Path, ledger: Ledger) -> dict:
    generate(workdir, args.seed, [args.workload])
    # The first probe only warms the file and byte-code caches.  Probes run
    # before and after the loop, so that one slow spell of the machine does
    # not set them all.
    setup = setup_probes(workdir, SETUP_PROBES // 2 + 1)[1:]
    wl = WORKLOADS[args.workload](p3, workdir, args.seed)
    loop(wl, ledger, rounds=WARMUP_ROUNDS)
    times = loop(wl, ledger, seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += setup_probes(workdir, SETUP_PROBES - len(setup))
    print(f"items = {len(times)} timed, {ledger.attempted} attempted")
    return {
        "items_per_s": (len(times) / sum(times), "1/s"),
        "item_ms_p50": (1e3 * statistics.median(times), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def traced(tracer: Tracer, memory: bool, *args, **kwargs) -> list[float]:
    tracer.install(memory)
    try:
        return loop(*args, tracer=tracer, **kwargs)
    finally:
        tracer.uninstall()


def traced_run(p3, args, workdir: Path, ledger: Ledger) -> dict:
    """The named workload runs untraced for half the time, then with time
    spans; every other workload runs a few rounds with time spans, so that
    each per-layer metric comes from the workload that exercises its layer.
    Each workload ends with one round of memory spans."""
    names = [args.workload] + [n for n in WORKLOADS if n != args.workload]
    generate(workdir, args.seed, names)
    tracer = Tracer(p3)
    for name in names:
        wl = WORKLOADS[name](p3, workdir, args.seed)
        if name == args.workload:
            loop(wl, ledger, rounds=WARMUP_ROUNDS)
            untraced = loop(wl, ledger, seconds=args.seconds / 2)
            timed = traced(tracer, False, wl, ledger, seconds=args.seconds / 2)
        else:
            loop(wl, ledger, rounds=1)
            traced(tracer, False, wl, ledger, rounds=COVERAGE_ROUNDS)
        traced(tracer, True, wl, ledger, rounds=1)
    trace_path = HERE / "_work" / f"trace-{args.workload}-{args.seed}.json"
    tracer.write(trace_path)
    print(f"spans = {len(tracer.spans)} written to {trace_path.relative_to(HERE.parent)}")
    units = {"ms": "ms", "mb": "MB"}
    metrics = {k: (v, units[k.rsplit("_", 1)[1]]) for k, v in tracer.layer_metrics().items()}
    traced_p50 = 1e3 * statistics.median(timed)
    untraced_p50 = 1e3 * statistics.median(untraced)
    metrics["trace.item_ms_p50"] = (traced_p50, "ms")
    metrics["trace.untraced_item_ms_p50"] = (untraced_p50, "ms")
    metrics["trace.overhead_pct"] = (100.0 * (traced_p50 / untraced_p50 - 1.0), "%")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    p3 = import_program()
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ledger = Ledger(workdir)
    try:
        metrics = (traced_run if args.trace else timed_run)(p3, args, workdir, ledger)
        ledger.check_all()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for note in ledger.notes:
        print(f"FAILED: {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": ledger.wrong == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
