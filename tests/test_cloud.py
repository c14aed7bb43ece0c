import re
import struct
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pseudo3d.camera import CameraIntrinsics
from pseudo3d.cloud import (
    PseudoPointCloud,
    cloud_from_depth,
    local_continuity,
    synth_random,
    synth_wedge,
    to_coordinate_map,
)
from pseudo3d.depth import DepthKind, DepthMap
from pseudo3d.encoder import normalize_coordinate_map
from pseudo3d.errors import (
    BadChannelsError,
    CloudIoError,
    InvalidDepthError,
    InvalidRangeError,
    NonFiniteInputError,
    ShapeMismatchError,
    TooSmallError,
)
from pseudo3d.ply import export_ply, read_ply


def plane_cloud(h=4, w=5, z=3.0, fx=2.0, fy=4.0, cx=1.0, cy=0.5):
    intr = CameraIntrinsics(fx=fx, fy=fy, cx=cx, cy=cy)
    return cloud_from_depth(DepthMap(np.full((h, w), z), DepthKind.METRIC), intr), intr


class TestCloudGeometry:
    def test_plane_matches_closed_form(self):
        """Constant depth z: X = z*(u-cx)/fx, Y = z*(v-cy)/fy, Z = z, exactly."""
        cloud, intr = plane_cloud()
        h, w = cloud.grid_shape
        uu = np.arange(w, dtype=np.float64)[np.newaxis, :]
        vv = np.arange(h, dtype=np.float64)[:, np.newaxis]
        z = np.full((h, w), 3.0)
        assert_array_equal(cloud.points[..., 0], z * (uu - intr.cx) / intr.fx)
        assert_array_equal(cloud.points[..., 1], z * (vv - intr.cy) / intr.fy)
        assert_array_equal(cloud.points[..., 2], z)

    def test_wedge_depth_is_column_linear(self):
        wedge = synth_wedge(2, 5, 1.0, 9.0)
        assert wedge.kind is DepthKind.METRIC
        assert_array_equal(wedge.values[0], [1.0, 3.0, 5.0, 7.0, 9.0])
        assert_array_equal(wedge.values[0], wedge.values[1])

    def test_grid_shape_tracks_depth_shape(self):
        cloud, _ = plane_cloud(h=7, w=2)
        assert cloud.grid_shape == (7, 2)
        assert cloud.points.shape == (7, 2, 3)


class TestCoordinateMap:
    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(5)
        cloud = PseudoPointCloud(rng.standard_normal((6, 4, 3)))
        back = PseudoPointCloud(to_coordinate_map(cloud).transpose(1, 2, 0))
        assert_array_equal(back.points, cloud.points)

    def test_planar_layout(self):
        cloud, _ = plane_cloud()
        cmap = to_coordinate_map(cloud)
        assert cmap.shape == (3, 4, 5)
        for channel in range(3):
            assert_array_equal(cmap[channel], cloud.points[..., channel])

    def test_rejects_wrong_leading_axis(self):
        with pytest.raises(BadChannelsError):
            normalize_coordinate_map(np.zeros((4, 2, 2)))


class TestContinuity:
    def test_plane_steps_are_depth_over_focal(self):
        cloud, intr = plane_cloud(h=4, w=5, z=3.0)
        stats = local_continuity(cloud)
        step_h = 3.0 / intr.fx   # horizontal neighbors differ only in X
        step_v = 3.0 / intr.fy   # vertical neighbors differ only in Y
        n_h = 4 * (5 - 1)
        n_v = (4 - 1) * 5
        assert stats.n_pairs == n_h + n_v
        assert_allclose(stats.max_step, max(step_h, step_v), rtol=1e-12)
        expected_mean = (n_h * step_h + n_v * step_v) / (n_h + n_v)
        assert_allclose(stats.mean_step, expected_mean, rtol=1e-12)

    def test_single_row_uses_horizontal_pairs_only(self):
        cloud, _ = plane_cloud(h=1, w=6)
        assert local_continuity(cloud).n_pairs == 5

    def test_single_point_rejected(self):
        cloud = PseudoPointCloud(np.zeros((1, 1, 3)))
        with pytest.raises(TooSmallError):
            local_continuity(cloud)


class TestSyntheticScenes:
    def test_wedge_validation(self):
        with pytest.raises(TooSmallError):
            synth_wedge(2, 1, 1.0, 2.0)
        with pytest.raises(InvalidDepthError):
            synth_wedge(2, 3, -1.0, 2.0)
        with pytest.raises(InvalidRangeError):
            synth_wedge(2, 3, 2.0, 2.0)
        with pytest.raises(InvalidRangeError):
            synth_wedge(2, 3, 3.0, 2.0)

    def test_random_scene_is_positive_and_varied(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            scene = synth_random(4, 6, rng)
            assert scene.kind is DepthKind.METRIC
            assert scene.values.min() > 0.0
            assert scene.values.max() > scene.values.min()

    def test_random_scene_deterministic_per_seed(self):
        a = synth_random(3, 3, np.random.default_rng(13)).values
        b = synth_random(3, 3, np.random.default_rng(13)).values
        assert_array_equal(a, b)


class TestCloudType:
    def test_colors_must_be_uint8(self):
        pts = np.zeros((2, 2, 3))
        with pytest.raises(ValueError):
            PseudoPointCloud(pts, colors=np.zeros((2, 2, 3), dtype=np.float64))

    def test_colors_shape_must_match(self):
        pts = np.zeros((2, 2, 3))
        with pytest.raises(ShapeMismatchError):
            PseudoPointCloud(pts, colors=np.zeros((2, 3, 3), dtype=np.uint8))

    def test_points_read_only(self):
        cloud = PseudoPointCloud(np.zeros((2, 2, 3)))
        with pytest.raises(ValueError):
            cloud.points[0, 0, 0] = 1.0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_points(self, value):
        pts = np.zeros((2, 2, 3))
        pts[1, 0, 2] = value
        with pytest.raises(NonFiniteInputError, match="point grid"):
            PseudoPointCloud(pts)

    @pytest.mark.parametrize("shape", [(2, 2), (2, 2, 4), (0, 2, 3), (2, 0, 3)])
    def test_rejects_wrong_shape(self, shape):
        with pytest.raises(ShapeMismatchError, match=re.escape("(*, *, 3)")):
            PseudoPointCloud(np.zeros(shape))


class TestPly:
    def test_round_trip_is_float32_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        cloud = PseudoPointCloud(rng.uniform(-10, 10, (5, 3, 3)))
        path = str(tmp_path / "c.ply")
        export_ply(path, cloud)
        back = read_ply(path)
        assert_array_equal(back.points, cloud.points.reshape(-1, 3).astype(np.float32))
        assert back.colors is None
        assert back.grid_shape == (5, 3)

    def test_round_trip_with_colors(self, tmp_path):
        rng = np.random.default_rng(22)
        colors = rng.integers(0, 256, (2, 4, 3), dtype=np.uint8)
        cloud = PseudoPointCloud(rng.standard_normal((2, 4, 3)), colors=colors)
        path = str(tmp_path / "c.ply")
        export_ply(path, cloud)
        back = read_ply(path)
        assert_array_equal(back.colors, colors.reshape(-1, 3))

    def test_header_bytes(self, tmp_path):
        cloud = PseudoPointCloud(np.zeros((2, 2, 3)))
        path = str(tmp_path / "c.ply")
        export_ply(path, cloud)
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
        with pytest.raises(CloudIoError, match=re.escape(
                f"{path}: 2 value(s) beyond float32's range, first 5e+38 at row 0, column 1")):
            export_ply(str(path), PseudoPointCloud(pts))
        assert not path.exists()

    def test_vertex_order_is_row_major(self, tmp_path):
        pts = np.arange(2 * 2 * 3, dtype=np.float64).reshape(2, 2, 3)
        path = str(tmp_path / "c.ply")
        export_ply(path, PseudoPointCloud(pts))
        back = read_ply(path)
        assert_array_equal(back.points[1], [3.0, 4.0, 5.0])  # row 0, col 1

    def test_reads_handmade_bytes(self, tmp_path):
        header = (b"ply\nformat binary_little_endian 1.0\n"
                  b"element vertex 2\n"
                  b"property float x\nproperty float y\nproperty float z\n"
                  b"end_header\n")
        body = struct.pack("<6f", 1.5, -2.0, 3.0, 0.0, 0.25, 9.0)
        path = tmp_path / "hand.ply"
        path.write_bytes(header + body)
        back = read_ply(str(path))
        assert_array_equal(back.points, [[1.5, -2.0, 3.0], [0.0, 0.25, 9.0]])
        assert back.grid_shape is None

    def test_rejects_non_ply(self, tmp_path):
        path = tmp_path / "junk.ply"
        path.write_bytes(b"OFF\n0 0 0\n")
        with pytest.raises(CloudIoError, match="not a PLY"):
            read_ply(str(path))

    def test_rejects_ascii_format(self, tmp_path):
        path = tmp_path / "ascii.ply"
        path.write_bytes(b"ply\nformat ascii 1.0\nelement vertex 0\n"
                         b"property float x\nproperty float y\nproperty float z\n"
                         b"end_header\n")
        with pytest.raises(CloudIoError, match="unsupported PLY format"):
            read_ply(str(path))

    def test_rejects_truncated_body(self, tmp_path):
        cloud = PseudoPointCloud(np.zeros((2, 2, 3)))
        path = str(tmp_path / "trunc.ply")
        export_ply(path, cloud)
        Path(path).write_bytes(Path(path).read_bytes()[:-5])
        with pytest.raises(CloudIoError, match="truncated"):
            read_ply(path)

    def test_rejects_unknown_layout(self, tmp_path):
        path = tmp_path / "odd.ply"
        path.write_bytes(b"ply\nformat binary_little_endian 1.0\n"
                         b"element vertex 0\n"
                         b"property double x\nproperty double y\nproperty double z\n"
                         b"end_header\n")
        with pytest.raises(CloudIoError, match="unsupported vertex layout"):
            read_ply(str(path))

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(CloudIoError, match="cannot read"):
            read_ply(str(tmp_path / "absent.ply"))

    @pytest.mark.parametrize("element_line", [
        b"element", b"element vertex", b"element vertex abc",
        b"element vertex 1e3", b"element vertex -2",
    ], ids=["bare", "no-count", "word", "exponent", "negative"])
    def test_bad_vertex_element_names_path(self, tmp_path, element_line):
        path = tmp_path / "bad.ply"
        path.write_bytes(b"ply\nformat binary_little_endian 1.0\n" + element_line + b"\n"
                         b"property float x\nproperty float y\nproperty float z\n"
                         b"end_header\n")
        with pytest.raises(CloudIoError, match=re.escape(str(path))):
            read_ply(str(path))

    @pytest.mark.parametrize("digits", [19, 5000])  # 5000 is past int()'s digit limit
    def test_vertex_count_too_long_for_any_file(self, tmp_path, digits):
        path = tmp_path / "huge.ply"
        path.write_bytes(b"ply\nformat binary_little_endian 1.0\nelement vertex " + b"1" * digits
                         + b"\nproperty float x\nproperty float y\nproperty float z\nend_header\n")
        with pytest.raises(CloudIoError, match=re.escape(f"{path}: bad vertex count")):
            read_ply(str(path))

    @pytest.mark.parametrize("grid", [b"5 7", b"-1 3", b"0 3", b"3 0", b"-3 -1", b"1 2"])
    def test_grid_comment_must_match_vertex_count(self, tmp_path, grid):
        path = _three_vertex_ply(tmp_path, b"comment grid " + grid)
        with pytest.raises(CloudIoError, match=re.escape(path) + ".*grid"):
            read_ply(path)

    @pytest.mark.parametrize("comment, grid_shape", [
        (b"comment grid 3 1", (3, 1)), (b"comment grid 1 3", (1, 3)),
        (b"comment grid of points", None),
    ])
    def test_grid_comment_read_when_consistent(self, tmp_path, comment, grid_shape):
        assert read_ply(_three_vertex_ply(tmp_path, comment)).grid_shape == grid_shape


def _three_vertex_ply(tmp_path, comment):
    path = tmp_path / "grid.ply"
    path.write_bytes(b"ply\nformat binary_little_endian 1.0\n" + comment + b"\n"
                     b"element vertex 3\n"
                     b"property float x\nproperty float y\nproperty float z\n"
                     b"end_header\n" + bytes(3 * 12))
    return str(path)
