"""Mutation fuzzing of the file readers.

Each reader gets mutated copies of a valid file and must either return a
valid object or raise a :class:`Pseudo3dError` subclass whose message names
the file.  Runs are derandomized so the suite sees the same inputs each time.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pseudo3d.camera import CameraIntrinsics, load_intrinsics
from pseudo3d.cloud import PseudoPointCloud
from pseudo3d.encoder import EncoderParams, init_params, load_params, save_params
from pseudo3d.errors import Pseudo3dError
from pseudo3d.ply import PlyContents, export_ply, read_ply

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
