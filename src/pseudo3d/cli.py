"""Command-line entry point.

Two subcommands:

* ``gen-cloud`` -- depth file -> normalize -> invert -> back-project ->
  binary PLY, with a key=value summary on stdout.
* ``verify``    -- run the seeded property suite; exit 2 when any
  property fails.

Exit codes: 0 success, 1 input or configuration error (or a closed
stdout), 2 property failure.  Diagnostics go to stderr and name the
failing stage.  The ``PSEUDO3D_SEED`` environment variable supplies the
default seed; an explicit ``--seed`` wins over it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cloud import cloud_from_depth, local_continuity
from .camera import load_intrinsics
from .depth import DepthKind, pipeline_relative_to_dr, reciprocal_depth
from .depth_io import READERS, load_depth_map
from .errors import InvalidInputError, Pseudo3dError
from .ply import export_ply
from .verification import ALL_PROPS, render_report, render_report_json, run_properties

ENV_SEED = "PSEUDO3D_SEED"


def _diag(command: str, stage: str, message: str) -> None:
    print(f"{command}: stage={stage}: {message}", file=sys.stderr)


def _resolve_seed(flag_value: int | None) -> int:
    if flag_value is not None:
        if flag_value < 0:
            raise InvalidInputError(f"--seed must be a non-negative integer, got {flag_value}")
        return flag_value
    env = os.environ.get(ENV_SEED)
    if env is None:
        return 0
    try:
        seed = int(env)
    except ValueError:
        raise InvalidInputError(f"{ENV_SEED} must be an integer, got {env!r}") from None
    if seed < 0:
        raise InvalidInputError(f"{ENV_SEED} must be a non-negative integer, got {env!r}")
    return seed


def _split_tokens(raw: list[str]) -> list[str]:
    """Flatten ["a,b", "c"] into ["a", "b", "c"]."""
    out: list[str] = []
    for item in raw:
        out.extend(token for token in item.split(",") if token)
    return out


# ---------------------------------------------------------------------------
# gen-cloud


def cmd_gen_cloud(args: argparse.Namespace) -> int:
    stage = "read"
    try:
        depth = load_depth_map(args.depth, args.format, DepthKind.PREDICTED_RELATIVE)
        stage = "intrinsics"
        intrinsics = load_intrinsics(args.intrinsics, depth.shape)
        if args.naive_reciprocal:
            stage = "reciprocal"
            d_r = reciprocal_depth(depth)
        else:
            stage = "normalize"
            d_r = pipeline_relative_to_dr(depth)
        del depth  # each depth grid is freed once the next stage has its output
        dr_min, dr_max = float(d_r.min()), float(d_r.max())
        stage = "backproject"
        points = cloud_from_depth(d_r, intrinsics)
        del d_r
        stage = "continuity"
        mean_step, max_step = local_continuity(points)
        stage = "export"
        export_ply(args.out, points)
    except Pseudo3dError as exc:
        _diag("gen-cloud", stage, str(exc))
        return 1

    h, w, _ = points.shape
    summary = {
        "width": w,
        "height": h,
        "points": h * w,
        "dr_min": dr_min,
        "dr_max": dr_max,
        "mean_step": mean_step,
        "max_step": max_step,
        "out": args.out,
    }
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        fields = " ".join(
            f"{k}={v:.6e}" if isinstance(v, float) else f"{k}={v}"
            for k, v in summary.items()
        )
        print(fields)
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args: argparse.Namespace) -> int:
    command = "verify"
    try:
        seed = _resolve_seed(args.seed)
        names = _split_tokens(args.props) if args.props else list(ALL_PROPS)
        results = run_properties(names, seed, break_shift=args.break_shift)
    except Pseudo3dError as exc:
        _diag(command, "config", str(exc))
        return 1
    if args.json:
        sys.stdout.write(render_report_json(results, seed))
    else:
        sys.stdout.write(render_report(results, seed))
    return 0 if all(r.passed for r in results) else 2


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; our contract reserves 2 for
    property failures, so usage problems are remapped to exit 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pseudo3d",
        description="Pseudo point clouds from monocular relative depth maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "gen-cloud",
        help="convert a relative depth file into a binary PLY point cloud",
    )
    gen.add_argument("--depth", required=True, help="input depth file")
    gen.add_argument("--format", required=True, choices=tuple(READERS),
                     help="depth file format")
    gen.add_argument("--intrinsics", required=True,
                     help="camera intrinsics config (key = value lines)")
    gen.add_argument("--out", required=True, help="output PLY path")
    gen.add_argument("--naive-reciprocal", action="store_true",
                     help="skip normalization and back-project 1/d instead "
                          "(demonstrates shift distortion)")
    gen.add_argument("--json", action="store_true", help="JSON summary")
    gen.set_defaults(func=cmd_gen_cloud)

    ver = sub.add_parser("verify", help="run the seeded property suite")
    ver.add_argument("--props", nargs="+", metavar="NAME",
                     help=f"subset of properties ({', '.join(ALL_PROPS)})")
    ver.add_argument("--seed", type=int, default=None,
                     help=f"seed (default: ${ENV_SEED} or 0)")
    ver.add_argument("--break-shift", action="store_true",
                     help="inject a shift-after-normalize fault (negative control)")
    ver.add_argument("--json", action="store_true", help="JSON report")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout is gone; send the rest to devnull so the
        # flush at interpreter exit does not raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
