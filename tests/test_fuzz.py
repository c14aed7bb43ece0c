"""Mutation fuzzing of the file readers.

Each reader gets mutated copies of a valid file and must either return a
valid object or raise a :class:`Pseudo3dError` subclass whose message names
the file.  Runs are derandomized so the suite sees the same inputs each time.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pseudo3d import cli
from pseudo3d.camera import CameraIntrinsics, load_intrinsics
from pseudo3d.cloud import PseudoPointCloud
from pseudo3d.depth_io import read_csv, read_pfm, read_pgm, write_csv, write_pfm, write_pgm
from pseudo3d.encoder import EncoderParams, init_params, load_params, save_params
from pseudo3d.errors import Pseudo3dError
from pseudo3d.ply import PlyContents, export_ply, read_ply
from pseudo3d.policy_loss import Action, read_actions_csv

FUZZ = settings(max_examples=200, derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def mutations(draw, seeds):
    """A valid file with up to four digit swaps, byte flips, insertions, deletions or a cut."""
    data = bytearray(draw(st.sampled_from(seeds)))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["digit", "flip", "insert", "delete", "truncate"]))
        at = draw(st.integers(0, len(data)))
        digits = [i for i, byte in enumerate(data) if 0x30 <= byte <= 0x39]
        if kind == "digit" and digits:  # numbers in text headers are where the checks are
            data[digits[at % len(digits)]] = draw(st.sampled_from(b"0123456789"))
        elif kind == "flip" and at < len(data):
            data[at] = draw(st.integers(0, 255))
        elif kind == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=8))
        elif kind == "delete":
            del data[at:at + draw(st.integers(1, 8))]
        elif kind == "truncate":
            del data[at:]
    return bytes(data)


def _seed_files(tmp_path, name, writers):
    seeds = []
    for i, write in enumerate(writers):
        path = tmp_path / f"seed{i}-{name}"
        write(str(path))
        seeds.append(path.read_bytes())
    return seeds


def _check(path, data, reader):
    path.write_bytes(data)
    try:
        return reader(str(path))
    except Pseudo3dError as exc:
        assert str(path) in str(exc), str(exc)
        return None


def test_encoder_params(tmp_path):
    seeds = _seed_files(tmp_path, "p.penc", [
        lambda p: save_params(p, init_params(1, seed=0)),
        lambda p: save_params(p, init_params(2, seed=1)),
    ])
    path = tmp_path / "fuzzed.penc"

    @FUZZ
    @given(mutations(seeds))
    def run(data):
        out = _check(path, data, load_params)
        assert out is None or isinstance(out, EncoderParams)

    run()


def test_ply(tmp_path):
    rng = np.random.default_rng(0)
    colors = rng.integers(0, 256, (2, 3, 3), dtype=np.uint8)
    seeds = _seed_files(tmp_path, "c.ply", [
        lambda p: export_ply(p, PseudoPointCloud(rng.standard_normal((2, 3, 3)))),
        lambda p: export_ply(p, PseudoPointCloud(rng.standard_normal((2, 3, 3)), colors=colors)),
    ])
    path = tmp_path / "fuzzed.ply"

    @FUZZ
    @given(mutations(seeds))
    def run(data):
        out = _check(path, data, read_ply)
        if out is not None:
            assert isinstance(out, PlyContents)
            assert out.points.ndim == 2 and out.points.shape[1] == 3
            if out.grid_shape is not None:
                h, w = out.grid_shape
                assert h >= 1 and w >= 1 and h * w == len(out.points)

    run()


def test_intrinsics(tmp_path):
    seeds = [b"fx = 500\nfy = 480\ncx = 320\ncy = 240\n",
             b"# camera\nfov_x_deg: 60\nfov_y_deg: 45\nwidth: 640\nheight: 480\n"]
    path = tmp_path / "fuzzed.cfg"

    @FUZZ
    @given(mutations(seeds))
    def run(data):
        out = _check(path, data, load_intrinsics)
        assert out is None or isinstance(out, CameraIntrinsics)

    run()


_DEPTH = np.linspace(0.5, 4.0, 12).reshape(3, 4)
_DEPTH_WRITERS = {
    "pfm": [lambda p: write_pfm(p, _DEPTH)],
    "pgm": [lambda p: write_pgm(p, np.arange(12).reshape(3, 4) * 20, maxval=255),
            lambda p: write_pgm(p, np.arange(12).reshape(3, 4) * 300, maxval=4096)],
    "csv": [lambda p: write_csv(p, _DEPTH)],
}
_DEPTH_READERS = {"pfm": read_pfm, "pgm": read_pgm, "csv": read_csv}


@pytest.mark.parametrize("fmt", sorted(_DEPTH_READERS))
def test_depth_readers(tmp_path, fmt):
    seeds = _seed_files(tmp_path, f"d.{fmt}", _DEPTH_WRITERS[fmt])
    path = tmp_path / f"fuzzed.{fmt}"

    @FUZZ
    @given(mutations(seeds))
    def run(data):
        out = _check(path, data, _DEPTH_READERS[fmt])
        assert out is None or (out.ndim == 2 and out.dtype == np.float64)

    run()


def test_actions_csv(tmp_path):
    seeds = [b"x,y,z,qw,qx,qy,qz,open\n0.1,0.2,0.3,1,0,0,0,1\n-1.5,2,0.25,0,1,0,0,0\n",
             b"0.5,-0.5,1e-3,0.5,0.5,0.5,0.5,0\r\n\r\n1,2,3,0,0,0,1,1\r\n"]
    path = tmp_path / "fuzzed-actions.csv"

    @FUZZ
    @given(mutations(seeds))
    def run(data):
        out = _check(path, data, read_actions_csv)
        assert out is None or all(isinstance(a, Action) for a in out)

    run()


@pytest.mark.parametrize("fmt", sorted(_DEPTH_READERS))
def test_gen_cloud_exits_cleanly(tmp_path, fmt):
    """The CLI on the same bytes exits 0 or 1 with at most one diagnostic line."""
    seeds = _seed_files(tmp_path, f"d.{fmt}", _DEPTH_WRITERS[fmt])
    path = tmp_path / f"fuzzed.{fmt}"
    intrinsics = tmp_path / "cam.cfg"
    intrinsics.write_text("fx = 4\nfy = 4\ncx = 1.5\ncy = 1\n")
    argv = ["gen-cloud", "--depth", str(path), "--format", fmt,
            "--intrinsics", str(intrinsics), "--out", str(tmp_path / "out.ply")]

    @settings(FUZZ, max_examples=50)
    @given(mutations(seeds))
    def run(data):
        path.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1)
        assert len(err.getvalue().splitlines()) <= 1, err.getvalue()

    run()
