import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pseudo3d import cloud
from pseudo3d.camera import CameraIntrinsics
from pseudo3d.cloud import (
    cloud_from_depth,
    local_continuity,
    synth_random,
    synth_wedge,
    to_coordinate_map,
)
from pseudo3d.encoder import normalize_coordinate_map
from pseudo3d.errors import FileError, InvalidInputError, NonFiniteInputError, frozen_array
from pseudo3d.ply import export_ply, read_ply


def plane_cloud(h=4, w=5, z=3.0, fx=2.0, fy=4.0, cx=1.0, cy=0.5):
    intr = CameraIntrinsics(fx=fx, fy=fy, cx=cx, cy=cy)
    return cloud_from_depth(np.full((h, w), z), intr), intr


class TestCloudGeometry:
    def test_plane_matches_closed_form(self):
        """Constant depth z: X = z*(u-cx)/fx, Y = z*(v-cy)/fy, Z = z, exactly."""
        points, intr = plane_cloud()
        h, w, _ = points.shape
        uu = np.arange(w, dtype=np.float64)[np.newaxis, :]
        vv = np.arange(h, dtype=np.float64)[:, np.newaxis]
        z = np.full((h, w), 3.0)
        assert_array_equal(points[..., 0], z * (uu - intr.cx) / intr.fx)
        assert_array_equal(points[..., 1], z * (vv - intr.cy) / intr.fy)
        assert_array_equal(points[..., 2], z)

    def test_wedge_depth_is_column_linear(self):
        wedge = synth_wedge(2, 5, 1.0, 9.0)
        assert_array_equal(wedge[0], [1.0, 3.0, 5.0, 7.0, 9.0])
        assert_array_equal(wedge[0], wedge[1])

    def test_grid_shape_tracks_depth_shape(self):
        points, _ = plane_cloud(h=7, w=2)
        assert points.shape == (7, 2, 3)
        assert points.dtype == np.float64


class TestCoordinateMap:
    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(5)
        points = rng.standard_normal((6, 4, 3))
        assert_array_equal(to_coordinate_map(points).transpose(1, 2, 0), points)

    def test_planar_layout(self):
        points, _ = plane_cloud()
        cmap = to_coordinate_map(points)
        assert cmap.shape == (3, 4, 5)
        for channel in range(3):
            assert_array_equal(cmap[channel], points[..., channel])

    def test_rejects_wrong_leading_axis(self):
        with pytest.raises(InvalidInputError, match=re.escape("(3, *, *), got (4, 2, 2)")):
            normalize_coordinate_map(np.zeros((4, 2, 2)))

    def test_is_a_read_only_view_of_the_points(self):
        points = np.random.default_rng(6).standard_normal((5, 7, 3))
        cmap = to_coordinate_map(points)
        assert np.shares_memory(cmap, points)
        assert not cmap.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            cmap[0, 0, 0] = 1.0
        points[2, 3, 1] = 9.0  # a write to the cloud shows through the map
        assert cmap[1, 2, 3] == 9.0
        assert points.flags.writeable

    def test_list_input_still_works(self):
        cmap = to_coordinate_map([[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]])
        assert_array_equal(cmap, [[[1.0, 4.0]], [[2.0, 5.0]], [[3.0, 6.0]]])

    def test_normalized_map_peaks_at_its_output_and_one_plane(self):
        # the (3, 480, 640) output (7.0 MiB) and one reused squares plane
        # (2.3 MiB): 9.38 MiB measured; a planar copy of the cloud and a
        # fresh squares plane per channel peaked at 16.41 MiB
        points = np.random.default_rng(7).standard_normal((480, 640, 3))
        tracemalloc.start()
        try:
            normalize_coordinate_map(to_coordinate_map(points))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20, peak / 2**20


class TestContinuity:
    def test_plane_steps_are_depth_over_focal(self):
        points, intr = plane_cloud(h=4, w=5, z=3.0)
        mean_step, max_step = local_continuity(points)
        step_h = 3.0 / intr.fx   # horizontal neighbors differ only in X
        step_v = 3.0 / intr.fy   # vertical neighbors differ only in Y
        n_h = 4 * (5 - 1)
        n_v = (4 - 1) * 5
        assert_allclose(max_step, max(step_h, step_v), rtol=1e-12)
        expected_mean = (n_h * step_h + n_v * step_v) / (n_h + n_v)
        assert_allclose(mean_step, expected_mean, rtol=1e-12)

    def test_returns_two_python_floats(self):
        result = local_continuity(plane_cloud()[0])
        assert type(result) is tuple and [type(v) for v in result] == [float, float]

    def test_single_row_uses_horizontal_pairs_only(self):
        # one row has no vertical pair: a step taken for one would pull the
        # mean off the one horizontal step size, 3 / fx
        points, intr = plane_cloud(h=1, w=6)
        assert local_continuity(points) == (3.0 / intr.fx, 3.0 / intr.fx)

    def test_single_point_rejected(self):
        with pytest.raises(InvalidInputError):
            local_continuity(np.zeros((1, 1, 3)))

    @pytest.mark.parametrize("shape", [(1, 6), (6, 1), (2, 2), (33, 47), (480, 640)])
    def test_bit_identical_to_norm_oracle(self, shape):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        points = rng.uniform(-5.0, 5.0, (*shape, 3)) * rng.uniform(0.1, 10.0, shape)[..., None]
        assert local_continuity(points) == _continuity_oracle(points)

    @pytest.mark.parametrize("band_rows", [1, 2, 5])
    @pytest.mark.parametrize("shape", [(2, 2), (7, 5), (33, 47)], ids=["2x2", "7x5", "33x47"])
    def test_bands_are_bit_identical_to_norm_oracle(self, monkeypatch, shape, band_rows):
        # a budget of band_rows diff rows: one-row bands, and ragged bands whose
        # last is one row ((7, 5) and (33, 47) by 2) or three ((33, 47) by 5)
        monkeypatch.setattr(cloud, "_BAND_BYTES", band_rows * shape[1] * 3 * 8)
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        points = rng.uniform(-5.0, 5.0, (*shape, 3)) * rng.uniform(0.1, 10.0, shape)[..., None]
        assert local_continuity(points) == _continuity_oracle(points)

    def test_each_step_is_bit_identical_to_norm(self):
        # a two-point cloud's mean and max are its one step, so a step that
        # moves by an ulp (einsum's x² + z² + y² order does, for about 1 in 9) shows
        rng = np.random.default_rng(8)
        for pair in rng.standard_normal((500, 1, 2, 3)) * rng.uniform(1e-3, 1e3, (500, 1, 1, 1)):
            assert local_continuity(pair) == _continuity_oracle(pair)

    @pytest.mark.parametrize("x", [(1e308, -1e308), (1e200, -1e200)],
                             ids=["difference-overflows", "square-overflows"])
    def test_overflowing_step_is_inf_without_warning(self, x):
        points = np.zeros((2, 3, 3))
        points[0, :2, 0] = x
        assert local_continuity(points) == (np.inf, np.inf)

    def test_memory_is_one_diff_plus_steps(self):
        # the 613,280 float64 steps (4.9 MB) plus one band's 1 MiB diff: 6.1 MB
        # measured; two bands' diffs at once would pass 7 MB, one whole-frame
        # (480, 639, 3) diff at a time peaked at 12.4 MB and the
        # norm-and-concatenate version at 29.4 MB
        points = np.random.default_rng(3).standard_normal((480, 640, 3))
        tracemalloc.start()
        try:
            local_continuity(points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6.5e6, peak


def _continuity_oracle(points):
    """The step lengths as first written: a norm per diff array, concatenated."""
    diffs = [points[:, 1:, :] - points[:, :-1, :], points[1:, :, :] - points[:-1, :, :]]
    steps = np.concatenate([np.linalg.norm(d, axis=2).ravel() for d in diffs])
    return float(steps.mean()), float(steps.max())


class TestSyntheticScenes:
    def test_wedge_validation(self):
        with pytest.raises(InvalidInputError):
            synth_wedge(2, 1, 1.0, 2.0)
        with pytest.raises(InvalidInputError):
            synth_wedge(2, 3, -1.0, 2.0)
        with pytest.raises(InvalidInputError):
            synth_wedge(2, 3, 2.0, 2.0)
        with pytest.raises(InvalidInputError):
            synth_wedge(2, 3, 3.0, 2.0)

    # synth_wedge(0, 3, ...) blamed the width; a float width passed the
    # width >= 2 guard and np.linspace raised a bare TypeError
    @pytest.mark.parametrize("height, width, message", [
        (0, 3, "height must be >= 1, got 0"),
        (2, 1, "wedge needs width >= 2, got 2x1"),
        (2, 2.5, "width must be an integer, got 2.5"),
        (2, True, "width must be an integer, got True"),
    ], ids=["height", "width", "float-width", "bool-width"])
    def test_wedge_names_the_side_that_is_wrong(self, height, width, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            synth_wedge(height, width, 1.0, 2.0)

    # synth_random(-1, -3, rng) passed the two-pixel guard and numpy raised
    # "negative dimensions are not allowed"
    @pytest.mark.parametrize("height, width, message", [
        (-1, -3, "height must be >= 1, got -1"),
        (2, 0, "width must be >= 1, got 0"),
        (1, 1, "random scene needs at least two pixels"),
    ], ids=["both-negative", "zero-width", "one-pixel"])
    def test_random_scene_names_the_side_that_is_wrong(self, height, width, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            synth_random(height, width, np.random.default_rng(0))

    # np.linspace warned "invalid value encountered"
    def test_wedge_far_depth_must_be_finite(self):
        with pytest.raises(InvalidInputError, match="^z_far must be finite, got inf$"):
            synth_wedge(2, 3, 1.0, np.inf)

    # "1" and None raised bare TypeErrors from the comparisons; True built a wedge from 1.0
    @pytest.mark.parametrize("name", ["z_near", "z_far"])
    @pytest.mark.parametrize("value", ["1", None, True], ids=["str", "none", "bool"])
    def test_wedge_depths_must_be_real_numbers(self, name, value):
        depths = {"z_near": 1.0, "z_far": 2.0, name: value}
        with pytest.raises(InvalidInputError,
                           match=f"^{re.escape(f'{name} must be a real number, got {value!r}')}$"):
            synth_wedge(4, 4, **depths)

    def test_numpy_wedge_depths_are_accepted(self):
        assert_array_equal(synth_wedge(2, 5, np.float32(1.0), np.int64(9)),
                           synth_wedge(2, 5, 1.0, 9.0))

    # raised a bare AttributeError: 'NoneType' object has no attribute 'uniform'
    def test_random_scene_needs_a_generator(self):
        with pytest.raises(InvalidInputError, match="^rng must be a numpy Generator, got None$"):
            synth_random(2, 2, None)

    def test_random_scene_is_positive_and_varied(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            scene = synth_random(4, 6, rng)
            assert scene.min() > 0.0
            assert scene.max() > scene.min()

    def test_random_scene_deterministic_per_seed(self):
        a = synth_random(3, 3, np.random.default_rng(13))
        b = synth_random(3, 3, np.random.default_rng(13))
        assert_array_equal(a, b)


# each function that takes a point grid, called on ``points``
_TAKES_POINTS = [
    lambda points, tmp_path: local_continuity(points),
    lambda points, tmp_path: export_ply(str(tmp_path / "c.ply"), points),
    lambda points, tmp_path: to_coordinate_map(points),
]


class TestCloudType:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_points(self, tmp_path, value):
        pts = np.zeros((2, 2, 3))
        pts[1, 0, 2] = value
        for call in _TAKES_POINTS[:2]:  # to_coordinate_map leaves the values to the encoder
            with pytest.raises(NonFiniteInputError, match="point grid"):
                call(pts, tmp_path)
        with pytest.raises(NonFiniteInputError, match="coordinate map"):
            normalize_coordinate_map(to_coordinate_map(pts))

    @pytest.mark.parametrize("shape", [(2, 2), (2, 2, 4), (0, 2, 3), (2, 0, 3)])
    def test_rejects_wrong_shape(self, tmp_path, shape):
        for call in _TAKES_POINTS:
            with pytest.raises(InvalidInputError, match=re.escape("(*, *, 3)")):
                call(np.zeros(shape), tmp_path)

    def test_point_beyond_float64_rejected(self):
        intr = CameraIntrinsics(fx=1e-320, fy=1.0, cx=0.0, cy=0.0)
        with pytest.raises(NonFiniteInputError, match="point grid"):
            cloud_from_depth(np.full((2, 2), 3.0), intr)


class TestFrozenArray:
    def test_copies_writable_caller_array(self):
        points = np.random.default_rng(4).standard_normal((3, 2, 3))
        stored = frozen_array("grid", points, (None, None, 3))
        kept = stored.copy()
        points[...] = 7.0
        assert_array_equal(stored, kept)
        assert not np.shares_memory(stored, points)

    def test_copies_read_only_view_of_writable_memory(self):
        memory = np.zeros((3, 2, 3))
        view = memory.view()
        view.setflags(write=False)
        stored = frozen_array("grid", view, (None, None, 3))
        assert not np.shares_memory(stored, memory)
        memory[...] = 1.0
        assert_array_equal(stored, 0.0)


class TestPly:
    def test_round_trip_is_float32_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        points = rng.uniform(-10, 10, (5, 3, 3))
        path = str(tmp_path / "c.ply")
        export_ply(path, points)
        back = read_ply(path)
        assert back.dtype == np.float32 and back.shape == (5, 3, 3)
        assert_array_equal(back, points.astype(np.float32))

    @pytest.mark.parametrize("layout", ["C", "F", "transposed-row"])
    def test_colorless_bytes_equal_record_oracle(self, tmp_path, layout):
        rng = np.random.default_rng(23)
        points = rng.uniform(-10, 10, (1, 5, 3) if layout == "transposed-row" else (4, 5, 3))
        if layout == "F":
            points = np.asfortranarray(points)
        elif layout == "transposed-row":  # points of one row, stored plane by plane
            points = np.ascontiguousarray(points.transpose(2, 0, 1)).transpose(1, 2, 0)
        h, w, _ = points.shape
        record = np.empty(h * w, dtype=[("x", "<f4"), ("y", "<f4"), ("z", "<f4")])
        for i, name in enumerate("xyz"):
            record[name] = points[..., i].ravel()
        header = (f"ply\nformat binary_little_endian 1.0\ncomment grid {h} {w}\n"
                  f"element vertex {h * w}\nproperty float x\nproperty float y\n"
                  "property float z\nend_header\n").encode("ascii")
        path = tmp_path / "c.ply"
        export_ply(str(path), points)
        assert path.read_bytes() == header + record.tobytes()

    def test_colorless_export_memory(self, tmp_path):
        # the float32 grid (3.7 MB) and its overflow mask (0.9 MB): 4.6 MB measured;
        # building a structured record as well peaked at 8.3 MB
        points = np.random.default_rng(24).standard_normal((480, 640, 3))
        tracemalloc.start()
        try:
            export_ply(str(tmp_path / "c.ply"), points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5.5e6, peak

    def test_header_bytes(self, tmp_path):
        path = str(tmp_path / "c.ply")
        export_ply(path, np.zeros((2, 2, 3)))
        raw = Path(path).read_bytes()
        assert raw.startswith(b"ply\nformat binary_little_endian 1.0\n")
        assert b"element vertex 4\n" in raw
        assert b"property float x\n" in raw
        # 4 vertices * 3 floats * 4 bytes after the header
        body = raw.split(b"end_header\n", 1)[1]
        assert len(body) == 4 * 3 * 4

    def test_point_beyond_float32_range_rejected(self, tmp_path):
        pts = np.zeros((2, 3, 3))
        pts[1, 2, 0] = -1e39
        pts[0, 1, 1] = 5e38
        path = tmp_path / "huge.ply"
        with pytest.raises(FileError, match=re.escape(
                f"{path}: 2 value(s) beyond float32's range, first 5e+38 at row 0, column 1")):
            export_ply(str(path), pts)
        assert not path.exists()

    def test_vertex_order_is_row_major(self, tmp_path):
        pts = np.arange(2 * 2 * 3, dtype=np.float64).reshape(2, 2, 3)
        path = str(tmp_path / "c.ply")
        export_ply(path, pts)
        back = read_ply(path)
        assert_array_equal(back[0, 1], [3.0, 4.0, 5.0])

    def test_reads_handmade_bytes(self, tmp_path):
        header = (b"ply\nformat binary_little_endian 1.0\ncomment grid 1 2\n"
                  b"element vertex 2\n"
                  b"property float x\nproperty float y\nproperty float z\n"
                  b"end_header\n")
        body = struct.pack("<6f", 1.5, -2.0, 3.0, 0.0, 0.25, 9.0)
        path = tmp_path / "hand.ply"
        path.write_bytes(header + body)
        back = read_ply(str(path))
        assert_array_equal(back, [[[1.5, -2.0, 3.0], [0.0, 0.25, 9.0]]])

    def test_rejects_missing_grid_comment(self, tmp_path):
        path = tmp_path / "bare.ply"
        path.write_bytes(b"ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
                         b"property float x\nproperty float y\nproperty float z\n"
                         b"end_header\n" + bytes(2 * 12))
        with pytest.raises(FileError, match=re.escape(f"{path}: not a PLY header")):
            read_ply(str(path))

    def test_rejects_non_ply(self, tmp_path):
        path = tmp_path / "junk.ply"
        path.write_bytes(b"OFF\n0 0 0\n")
        with pytest.raises(FileError, match=re.escape(f"{path}: not a PLY header")):
            read_ply(str(path))

    def test_rejects_ascii_format(self, tmp_path):
        path = tmp_path / "ascii.ply"
        path.write_bytes(b"ply\nformat ascii 1.0\ncomment grid 1 1\nelement vertex 1\n"
                         b"property float x\nproperty float y\nproperty float z\n"
                         b"end_header\n0 0 0\n")
        with pytest.raises(FileError, match=re.escape(f"{path}: not a PLY header")):
            read_ply(str(path))

    def test_rejects_truncated_body(self, tmp_path):
        path = str(tmp_path / "trunc.ply")
        export_ply(path, np.zeros((2, 2, 3)))
        Path(path).write_bytes(Path(path).read_bytes()[:-5])
        with pytest.raises(FileError, match=re.escape(
                f"{path}: vertex data truncated (43 bytes, need 48)")):
            read_ply(path)

    def test_rejects_bytes_after_the_vertices(self, tmp_path):
        path = str(tmp_path / "long.ply")
        export_ply(path, np.zeros((2, 2, 3)))
        Path(path).write_bytes(Path(path).read_bytes() + bytes(5))
        with pytest.raises(FileError, match=re.escape(
                f"{path}: vertex data too long (53 bytes, need 48)")):
            read_ply(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_vertex(self, tmp_path, value):
        path = tmp_path / "nan.ply"
        path.write_bytes(_HEADER_1X1 + struct.pack("<3f", value, 1.0, 2.0))
        with pytest.raises(FileError, match=re.escape(
                f"{path}: vertex data contains NaN or infinite values")):
            read_ply(str(path))

    def test_rejects_unknown_layout(self, tmp_path):
        path = tmp_path / "odd.ply"
        path.write_bytes(b"ply\nformat binary_little_endian 1.0\ncomment grid 1 1\n"
                         b"element vertex 1\n"
                         b"property double x\nproperty double y\nproperty double z\n"
                         b"end_header\n" + bytes(24))
        with pytest.raises(FileError, match=re.escape(f"{path}: not a PLY header")):
            read_ply(str(path))

    def test_read_missing_file(self, tmp_path):
        path = tmp_path / "absent.ply"
        with pytest.raises(FileError, match=re.escape(f"{path}: cannot read")):
            read_ply(str(path))

    @pytest.mark.parametrize("element_line", [
        b"element", b"element vertex", b"element vertex abc",
        b"element vertex 1e3", b"element vertex -2",
    ], ids=["bare", "no-count", "word", "exponent", "negative"])
    def test_bad_vertex_element_names_path(self, tmp_path, element_line):
        path = tmp_path / "bad.ply"
        path.write_bytes(b"ply\nformat binary_little_endian 1.0\ncomment grid 1 1\n"
                         + element_line + b"\n"
                         b"property float x\nproperty float y\nproperty float z\n"
                         b"end_header\n" + bytes(12))
        with pytest.raises(FileError, match=re.escape(str(path))):
            read_ply(str(path))

    @pytest.mark.parametrize("digits", [19, 5000])  # 5000 is past int()'s digit limit
    def test_vertex_count_too_long_for_any_file(self, tmp_path, digits):
        path = tmp_path / "huge.ply"
        path.write_bytes(b"ply\nformat binary_little_endian 1.0\ncomment grid 1 1\n"
                         b"element vertex " + b"1" * digits + b"\n"
                         b"property float x\nproperty float y\nproperty float z\nend_header\n")
        with pytest.raises(FileError, match=re.escape(f"{path}: not a PLY header")):
            read_ply(str(path))

    @pytest.mark.parametrize("grid", [b"5 7", b"-1 3", b"0 3", b"3 0", b"-3 -1", b"1 2", b"03 1"])
    def test_grid_comment_must_match_vertex_count(self, tmp_path, grid):
        path = _three_vertex_ply(tmp_path, b"comment grid " + grid)
        with pytest.raises(FileError, match=re.escape(path) + ".*grid"):
            read_ply(path)

    @pytest.mark.parametrize("comment, grid_shape", [
        (b"comment grid 3 1", (3, 1)), (b"comment grid 1 3", (1, 3)),
    ])
    def test_grid_comment_read_when_consistent(self, tmp_path, comment, grid_shape):
        assert read_ply(_three_vertex_ply(tmp_path, comment)).shape == (*grid_shape, 3)


_HEADER_1X1 = (b"ply\nformat binary_little_endian 1.0\ncomment grid 1 1\nelement vertex 1\n"
               b"property float x\nproperty float y\nproperty float z\nend_header\n")


def _three_vertex_ply(tmp_path, comment):
    path = tmp_path / "grid.ply"
    path.write_bytes(b"ply\nformat binary_little_endian 1.0\n" + comment + b"\n"
                     b"element vertex 3\n"
                     b"property float x\nproperty float y\nproperty float z\n"
                     b"end_header\n" + bytes(3 * 12))
    return str(path)
