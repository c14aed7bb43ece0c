"""Spans around the public calls a workload makes, for the traced run.

``Tracer.install`` wraps each traced public function of pseudo3d wherever a
pseudo3d module holds a reference to it, so calls the CLI makes internally
are caught as well as the benchmark's own.  Each call records a span: name,
item id, start, end and parent span; in a memory pass also the
``tracemalloc`` peak above the memory in use when the call began.
``tracemalloc`` runs only during a memory pass.  Spans stay in memory until
``write``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path


def _strategy(args, kwargs) -> str:
    return (args[2] if len(args) > 2 else kwargs["params"]).strategy.value


def _fmt(args, kwargs) -> str:
    return args[1] if len(args) > 1 else kwargs["fmt"]


# public function -> span name (a string, or a function of the call's arguments)
TRACED = {
    "cli.main": "cli.gen_cloud",
    "load_depth_map": lambda a, k: "depth_io.load_" + _fmt(a, k),
    "pipeline_relative_to_dr": "depth.relative_to_dr",
    "cloud_from_depth": "cloud.from_depth",
    "local_continuity": "cloud.continuity",
    "export_ply": "ply.export",
    "to_coordinate_map": "cloud.coordinate_map",
    "normalize_coordinate_map": "encoder.normalize_coordinate_map",
    "encode": "encoder.encode",
    "encode_backward": "encoder.backward",
    "fuse": lambda a, k: "fusion." + _strategy(a, k),
    "read_actions_csv": "policy_loss.read_actions",
    "trajectory_from_rows": "policy_loss.trajectory",
    "dataset_loss": "policy_loss.dataset_loss",
}

# per-layer metric -> (workload whose items it is taken from, span, statistic)
LAYER_METRICS = {
    "cli.gen_cloud_self_ms": ("gen-cloud", "cli.gen_cloud", "ms"),
    "depth_io.load_csv_ms": ("gen-cloud", "depth_io.load_csv", "ms"),
    "depth_io.load_pfm_ms": ("gen-cloud", "depth_io.load_pfm", "ms"),
    "depth_io.load_pgm_ms": ("gen-cloud", "depth_io.load_pgm", "ms"),
    "depth.relative_to_dr_ms": ("gen-cloud", "depth.relative_to_dr", "ms"),
    "cloud.from_depth_ms": ("gen-cloud", "cloud.from_depth", "ms"),
    "cloud.continuity_ms": ("gen-cloud", "cloud.continuity", "ms"),
    "ply.export_ms": ("gen-cloud", "ply.export", "ms"),
    "cloud.coordinate_map_ms": ("policy-train", "cloud.coordinate_map", "ms"),
    "encoder.normalize_coordinate_map_ms": ("policy-train", "encoder.normalize_coordinate_map", "ms"),
    "encoder.encode_ms": ("policy-train", "encoder.encode", "ms"),
    "encoder.backward_ms": ("policy-train", "encoder.backward", "ms"),
    "encoder.encode_peak_mb": ("policy-train", "encoder.encode", "peak_mb"),
    "encoder.backward_peak_mb": ("policy-train", "encoder.backward", "peak_mb"),
    "fusion.add_ms": ("policy-train", "fusion.add", "ms"),
    "fusion.concat_ms": ("policy-train", "fusion.concat", "ms"),
    "fusion.xattn_ms": ("attend", "fusion.xattn", "ms"),
    "fusion.sattn_ms": ("attend", "fusion.sattn", "ms"),
    "fusion.xattn_peak_mb": ("attend", "fusion.xattn", "peak_mb"),
    "fusion.sattn_peak_mb": ("attend", "fusion.sattn", "peak_mb"),
    "policy_loss.read_actions_ms": ("bc-score", "policy_loss.read_actions", "ms"),
    "policy_loss.trajectory_ms": ("bc-score", "policy_loss.trajectory", "ms"),
    "policy_loss.dataset_loss_ms": ("bc-score", "policy_loss.dataset_loss", "ms"),
    "policy_loss.read_actions_peak_mb": ("bc-score", "policy_loss.read_actions", "peak_mb"),
}


class Tracer:
    def __init__(self, package) -> None:
        self.package = package
        self.item = ""
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._patched: list[tuple[object, str, object]] = []
        self.memory = False

    # --- installing the wrappers ---------------------------------------

    def install(self, memory: bool) -> None:
        """Wrap the traced functions.  With ``memory`` the spans record
        tracemalloc peaks instead of times, since tracemalloc slows every
        Python allocation and would distort the times."""
        self.memory = memory
        originals = {}
        for target, name in TRACED.items():
            owner, _, attr = target.rpartition(".")
            module = getattr(self.package, owner) if owner else self.package
            originals[id(getattr(module, attr))] = (getattr(module, attr), name)
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if modname != self.package.__name__ and not modname.startswith(self.package.__name__ + "."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and value is originals[id(value)][0]:
                    fn, name = originals[id(value)]
                    if id(fn) not in wrappers:
                        wrappers[id(fn)] = self._wrap(fn, name)
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(fn)])
        if memory:
            tracemalloc.start()

    def uninstall(self) -> None:
        if self.memory:
            tracemalloc.stop()
        for module, attr, value in self._patched:
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            self._open(name if isinstance(name, str) else name(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        traced.__wrapped__ = fn
        return traced

    # --- spans -----------------------------------------------------------

    def _open(self, name: str) -> None:
        current = 0
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:  # the reset below would lose the parent's peak so far
                parent = self._stack[-1]
                parent["abs_peak"] = max(parent["abs_peak"], peak)
            tracemalloc.reset_peak()
        self._stack.append({"name": name, "item": self.item, "base": current, "abs_peak": 0,
                            "child_s": 0.0, "parent": self._stack[-1]["id"] if self._stack else None,
                            "id": len(self.spans) + len(self._stack), "start": time.perf_counter()})

    def _close(self) -> None:
        end = time.perf_counter()
        frame = self._stack.pop()
        duration = end - frame["start"]
        peak = None
        if self.memory:
            abs_peak = max(tracemalloc.get_traced_memory()[1], frame["abs_peak"])
            peak = abs_peak - frame["base"]
            if self._stack:
                self._stack[-1]["abs_peak"] = max(self._stack[-1]["abs_peak"], abs_peak)
        if self._stack:
            self._stack[-1]["child_s"] += duration
        self.spans.append({"id": frame["id"], "name": frame["name"], "item": frame["item"],
                           "start": frame["start"], "end": end, "parent": frame["parent"],
                           "self_s": duration - frame["child_s"], "peak_bytes": peak})

    # --- results ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Median over the items that made the call of the per-item self time
        (summed over the item's calls, from time spans) or tracemalloc peak
        (largest call, from memory spans)."""
        per_item: dict[tuple, dict[str, list[dict]]] = defaultdict(lambda: defaultdict(list))
        for span in self.spans:
            stat = "ms" if span["peak_bytes"] is None else "peak_mb"
            per_item[(span["item"].split(":")[0], span["name"], stat)][span["item"]].append(span)
        metrics = {}
        for metric, (workload, name, stat) in LAYER_METRICS.items():
            items = per_item[(workload, name, stat)].values()
            if stat == "ms":
                values = [1e3 * sum(s["self_s"] for s in spans) for spans in items]
            else:
                values = [max(s["peak_bytes"] for s in spans) / 2**20 for spans in items]
            if values:
                metrics[metric] = statistics.median(values)
        return metrics

    def write(self, path: Path) -> None:
        spans = sorted(self.spans, key=lambda s: s["id"])
        path.write_text(json.dumps([{k: s[k] for k in ("id", "name", "item", "start", "end",
                                                       "parent", "peak_bytes")}
                                    for s in spans]))
