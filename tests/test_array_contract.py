"""The one array contract: each array argument of the library goes through
:func:`pseudo3d.errors.float_array`, so every entry point rejects a wrong
shape and a non-numeric input with the same class and message format."""

import re

import numpy as np
import pytest

from pseudo3d.camera import CameraIntrinsics, backproject, project
from pseudo3d.cloud import local_continuity, to_coordinate_map
from pseudo3d.depth_io import write_csv, write_pfm, write_pgm
from pseudo3d.encoder import encode, encode_backward, init_params, normalize_coordinate_map
from pseudo3d.errors import InvalidInputError, float_array
from pseudo3d.fusion import Strategy, fuse, init_fusion_params
from pseudo3d.ply import export_ply
from pseudo3d.policy_loss import dataset_loss, trajectory_from_rows

_INTRINSICS = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0)
_ENCODER = init_params(4, seed=0)
_ADD = init_fusion_params(Strategy.ADD, 4, seed=0)

# entry point: (argument name, required shape as messages print it, call(value, tmp_path))
ENTRIES = {
    "backproject": ("depth grid", "(*, *)", lambda v, d: backproject(v, _INTRINSICS)),
    "write_pfm": ("depth grid", "(*, *)", lambda v, d: write_pfm(str(d / "x.pfm"), v)),
    "write_csv": ("depth grid", "(*, *)", lambda v, d: write_csv(str(d / "x.csv"), v)),
    "write_pgm": ("PGM samples", "(*, *)", lambda v, d: write_pgm(str(d / "x.pgm"), v, 255)),
    "local_continuity": ("point grid", "(*, *, 3)", lambda v, d: local_continuity(v)),
    "export_ply": ("point grid", "(*, *, 3)", lambda v, d: export_ply(str(d / "x.ply"), v)),
    "to_coordinate_map": ("point grid", "(*, *, 3)", lambda v, d: to_coordinate_map(v)),
    "encode": ("coordinate map", "(3, *, *)", lambda v, d: encode(v, _ENCODER)),
    "normalize_coordinate_map": ("coordinate map", "(3, *, *)",
                                 lambda v, d: normalize_coordinate_map(v)),
    "encode_backward": ("grad_out", "(1, 1, 4)",
                        lambda v, d: encode_backward(np.ones((3, 4, 4)), _ENCODER, v)),
    "fuse-f2d": ("f2d", "(*, *, 4)", lambda v, d: fuse(v, np.ones((2, 2, 4)), _ADD)),
    "fuse-f3d": ("f3d", "(2, 2, 4)", lambda v, d: fuse(np.ones((2, 2, 4)), v, _ADD)),
    "dataset_loss": ("trajectory 0", "(*, 2, 8)", lambda v, d: dataset_loss([v])),
    "trajectory_from_rows-preds": ("prediction rows", "(*, 8)",
                                   lambda v, d: trajectory_from_rows(v, np.zeros((1, 8)))),
    "trajectory_from_rows-targets": ("target rows", "(1, 8)",
                                     lambda v, d: trajectory_from_rows(np.zeros((1, 8)), v)),
}


@pytest.mark.parametrize("entry", ENTRIES)
def test_wrong_rank_is_a_shape_error_naming_the_argument(tmp_path, entry):
    name, shape, call = ENTRIES[entry]
    with pytest.raises(InvalidInputError,
                       match=re.escape(f"{name} must have shape {shape}, got (5,)")):
        call(np.zeros(5), tmp_path)


# a side of length 0 is a wrong shape: the writers used to write files their
# readers reject, and normalize_coordinate_map reported an overflow
EMPTY = {"write_pfm": (0, 4), "write_csv": (0, 4), "write_pgm": (4, 0), "backproject": (0, 4),
         "normalize_coordinate_map": (3, 0, 4), "encode": (3, 4, 0),
         "local_continuity": (2, 0, 3), "fuse-f2d": (0, 2, 4)}


@pytest.mark.parametrize("entry", EMPTY)
def test_empty_side_is_a_shape_error(tmp_path, entry):
    (name, want, call), shape = ENTRIES[entry], EMPTY[entry]
    with pytest.raises(InvalidInputError,
                       match=re.escape(f"{name} must have shape {want}, got {shape}")):
        call(np.zeros(shape), tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["abc", [[1.0, 2.0], [3.0]]], ids=["string", "ragged"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_non_numbers_are_invalid_input(tmp_path, entry, value):
    name, _, call = ENTRIES[entry]
    with pytest.raises(InvalidInputError, match=re.escape(f"{name} is not an array of numbers")):
        call(value, tmp_path)


@pytest.mark.parametrize("value", ["abc", [[1.0, 2.0, 3.0], [3.0]]], ids=["string", "ragged"])
def test_project_non_numbers_are_invalid_input(value):
    # project keeps its own shape rule (any rank, trailing axis of 3), but not
    # numpy's bare ValueError, which it used to raise for these
    with pytest.raises(InvalidInputError, match=re.escape("points is not an array of numbers")):
        project(value, _INTRINSICS)


def test_row_pairs_of_one_dimension_are_rejected():
    # a pair of (8,) rows used to stack into an (8, 2) array
    with pytest.raises(InvalidInputError, match=re.escape("prediction rows must have shape")):
        trajectory_from_rows(np.zeros(8), np.zeros(8))


def test_float64_input_is_not_copied():
    grid = np.ones((2, 3))
    assert float_array("grid", grid, (None, 3)) is grid
    ints = float_array("grid", [[1, 2, 3]], (1, None))
    assert ints.dtype == np.float64 and ints.shape == (1, 3)


def test_none_is_required():
    with pytest.raises(InvalidInputError, match="grid is required"):
        float_array("grid", None, (None,))
