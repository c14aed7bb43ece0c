import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pseudo3d.camera import (
    CameraIntrinsics,
    backproject,
    estimate_intrinsics_from_fov,
    load_intrinsics,
    parse_intrinsics_config,
    project,
)
from pseudo3d.errors import FileError, InvalidInputError


class TestIntrinsicsType:
    def test_rejects_nonpositive_focal(self):
        with pytest.raises(InvalidInputError):
            CameraIntrinsics(fx=0.0, fy=1.0, cx=0.0, cy=0.0)
        with pytest.raises(InvalidInputError):
            CameraIntrinsics(fx=1.0, fy=-2.0, cx=0.0, cy=0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            CameraIntrinsics(fx=1.0, fy=1.0, cx=math.nan, cy=0.0)


class TestBackproject:
    def test_hand_computed_grid(self):
        """2x3 grid, unit focal lengths, principal point at the origin pixel."""
        intr = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0)
        d = np.array([[1.0, 2.0, 3.0],
                      [4.0, 5.0, 6.0]])
        pts = backproject(d, intr)
        # X = d*u, Y = d*v, Z = d
        assert_array_equal(pts[..., 0], d * np.array([0.0, 1.0, 2.0]))
        assert_array_equal(pts[..., 1], d * np.array([[0.0], [1.0]]))
        assert_array_equal(pts[..., 2], d)

    def test_principal_point_lands_on_axis(self):
        intr = CameraIntrinsics(fx=120.0, fy=95.0, cx=2.0, cy=1.0)
        pts = backproject(np.full((3, 5), 7.0), intr)
        assert pts[1, 2, 0] == 0.0
        assert pts[1, 2, 1] == 0.0
        assert pts[1, 2, 2] == 7.0

    def test_grid_layout_preserved(self):
        intr = CameraIntrinsics(fx=50.0, fy=50.0, cx=1.5, cy=1.0)
        d = np.arange(12, dtype=np.float64).reshape(3, 4) + 1.0
        pts = backproject(d, intr)
        assert pts.shape == (3, 4, 3)
        # Z channel is the depth grid itself, untouched
        assert_array_equal(pts[..., 2], d)

    def test_scale_equivariance_is_exact_for_powers_of_two(self):
        rng = np.random.default_rng(3)
        intr = CameraIntrinsics(fx=300.0, fy=240.0, cx=3.1, cy=2.9)
        d = rng.uniform(0.5, 9.0, size=(6, 7))
        base = backproject(d, intr)
        for alpha in (0.5, 2.0):
            assert_array_equal(backproject(alpha * d, intr), alpha * base)

    def test_rejects_wrong_rank(self):
        intr = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0)
        with pytest.raises(InvalidInputError,
                           match=re.escape("depth grid must have shape (*, *), got (5,)")):
            backproject(np.zeros(5), intr)


class TestProject:
    def test_round_trip_sweep(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            h = int(rng.integers(2, 10))
            w = int(rng.integers(2, 10))
            intr = CameraIntrinsics(
                fx=float(rng.uniform(100, 2000)),
                fy=float(rng.uniform(100, 2000)),
                cx=float(rng.uniform(0, w - 1)),
                cy=float(rng.uniform(0, h - 1)),
            )
            d = rng.uniform(0.2, 40.0, size=(h, w))
            uv = project(backproject(d, intr), intr)
            uu, vv = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
            assert_allclose(uv[..., 0], uu, atol=1e-9)
            assert_allclose(uv[..., 1], vv, atol=1e-9)

    def test_axis_point_projects_to_principal_point(self):
        intr = CameraIntrinsics(fx=100.0, fy=100.0, cx=31.5, cy=23.5)
        uv = project(np.array([0.0, 0.0, 4.0]), intr)
        assert_array_equal(uv, [31.5, 23.5])

    def test_rejects_nonpositive_z(self):
        intr = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0)
        pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        with pytest.raises(InvalidInputError,
                           match=r"^projection requires Z > 0; 2 point\(s\) violate this$"):
            project(pts, intr)

    def test_rejects_nan_z(self):
        intr = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0)
        pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, np.nan]])
        with pytest.raises(InvalidInputError,
                           match=r"^projection requires Z > 0; 1 point\(s\) violate this$"):
            project(pts, intr)

    def test_rejects_bad_trailing_axis(self):
        intr = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0)
        with pytest.raises(InvalidInputError):
            project(np.zeros((4, 2)), intr)


class TestFovEstimation:
    def test_matches_tangent_formula(self):
        for width, height, fov_x, fov_y in [(640, 480, 60.0, 45.0),
                                            (128, 256, 100.0, 30.0)]:
            intr = estimate_intrinsics_from_fov(width, height, fov_x, fov_y)
            assert_allclose(intr.fx, (width / 2) / math.tan(math.radians(fov_x) / 2))
            assert_allclose(intr.fy, (height / 2) / math.tan(math.radians(fov_y) / 2))

    def test_ninety_degrees_gives_half_width(self):
        intr = estimate_intrinsics_from_fov(200, 100, 90.0)
        assert_allclose(intr.fx, 100.0, rtol=1e-12)

    def test_square_pixels_when_vertical_fov_omitted(self):
        intr = estimate_intrinsics_from_fov(640, 480, 70.0)
        assert intr.fx == intr.fy

    def test_principal_point_at_pixel_grid_center(self):
        intr = estimate_intrinsics_from_fov(640, 480, 60.0)
        assert intr.cx == 319.5
        assert intr.cy == 239.5
        # odd sizes center on an exact pixel
        intr = estimate_intrinsics_from_fov(5, 3, 60.0)
        assert intr.cx == 2.0
        assert intr.cy == 1.0

    @pytest.mark.parametrize("fov", [0.0, -10.0, 180.0, 359.0, math.nan])
    def test_rejects_out_of_range_fov(self, fov):
        with pytest.raises(InvalidInputError):
            estimate_intrinsics_from_fov(10, 10, fov)

    def test_rejects_empty_image(self):
        with pytest.raises(InvalidInputError,
                           match=f"^{re.escape('image size must be at least 1x1, got 0x10')}$"):
            estimate_intrinsics_from_fov(0, 10, 60.0)

    # (2.5, 3) gave cx = 0.75 and (True, 3) was taken as one pixel wide;
    # ("4", 3) raised a bare TypeError from the size comparison
    @pytest.mark.parametrize("width, height, name, value", [
        (2.5, 3, "width", 2.5),
        (True, 3, "width", True),
        ("4", 3, "width", "'4'"),
        (4, 3.0, "height", 3.0),
    ], ids=["float-width", "bool-width", "str-width", "float-height"])
    def test_image_size_must_be_integers(self, width, height, name, value):
        with pytest.raises(InvalidInputError,
                           match=f"^{re.escape(f'{name} must be an integer, got {value}')}$"):
            estimate_intrinsics_from_fov(width, height, 60.0)

    # (4, 3, True) returned a 1-degree camera; (4, 3, "60") raised math's bare TypeError
    @pytest.mark.parametrize("fovs, name, value", [
        ((True,), "fov_x_deg", "True"),
        (("60",), "fov_x_deg", "'60'"),
        ((60.0, True), "fov_y_deg", "True"),
        ((60.0, "45"), "fov_y_deg", "'45'"),
    ], ids=["bool-x", "str-x", "bool-y", "str-y"])
    def test_fov_must_be_a_real_number(self, fovs, name, value):
        with pytest.raises(InvalidInputError,
                           match=f"^{re.escape(f'{name} must be a real number, got {value}')}$"):
            estimate_intrinsics_from_fov(4, 3, *fovs)

    def test_numpy_fov_is_accepted(self):
        assert estimate_intrinsics_from_fov(4, 3, np.float32(60.0), np.int64(45)) == \
            estimate_intrinsics_from_fov(4, 3, 60.0, 45.0)

    def test_numpy_integer_size_is_accepted(self):
        assert estimate_intrinsics_from_fov(np.int64(5), np.int32(3), 60.0) == \
            estimate_intrinsics_from_fov(5, 3, 60.0)


class TestIntrinsicsConfig:
    def test_explicit_mode(self):
        intr = parse_intrinsics_config("fx = 500\nfy = 480\ncx = 320\ncy = 240\n")
        assert (intr.fx, intr.fy, intr.cx, intr.cy) == (500.0, 480.0, 320.0, 240.0)

    def test_estimation_mode(self):
        intr = parse_intrinsics_config(
            "fov_x_deg = 90\nwidth = 200\nheight = 100\n"
        )
        assert_allclose(intr.fx, 100.0, rtol=1e-12)
        assert intr.cx == 99.5

    def test_fov_y_sets_fy(self):
        intr = parse_intrinsics_config(
            "fov_x_deg = 90\nfov_y_deg = 60\nwidth = 200\nheight = 100\n"
        )
        assert_allclose(intr.fx, 100.0, rtol=1e-12)
        assert_allclose(intr.fy, 50.0 / math.tan(math.radians(30.0)), rtol=1e-12)
        assert intr.fy != intr.fx

    def test_fy_equals_fx_without_fov_y(self):
        intr = parse_intrinsics_config("fov_x_deg = 75\nwidth = 64\nheight = 48\n")
        assert intr.fy == intr.fx

    def test_colon_separator_and_comments(self):
        intr = parse_intrinsics_config(
            "# camera A\nfx: 10\nfy: 11\n\ncx: 1\ncy: 2\n"
        )
        assert intr.fy == 11.0

    # a line ends at \n, \r\n or \r, as in the files load_intrinsics reads
    def test_universal_newlines_end_a_line(self):
        intr = parse_intrinsics_config("fx = 1\r\nfy = 2\rcx = 0\ncy = 0")
        assert intr == CameraIntrinsics(fx=1.0, fy=2.0, cx=0.0, cy=0.0)
        with pytest.raises(FileError, match="^line 3: duplicate key 'fx'$"):
            parse_intrinsics_config("fx = 1\r\n\rfx = 2")

    def test_mixed_modes_rejected(self):
        with pytest.raises(FileError, match="mixes"):
            parse_intrinsics_config("fx = 1\nfy = 1\ncx = 0\ncy = 0\nwidth = 4\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(FileError, match="unknown key"):
            parse_intrinsics_config("fx = 1\nskew = 0\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(FileError, match="duplicate"):
            parse_intrinsics_config("fx = 1\nfx = 2\n")

    def test_missing_keys_rejected(self):
        with pytest.raises(FileError, match="missing"):
            parse_intrinsics_config("fx = 1\nfy = 1\ncx = 0\n")
        with pytest.raises(FileError, match="missing"):
            parse_intrinsics_config("fov_x_deg = 60\nwidth = 4\n")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(FileError, match="not a number"):
            parse_intrinsics_config("fx = wide\nfy = 1\ncx = 0\ncy = 0\n")

    # float() reads all three (1000, 1 and 640); the CSV readers reject them
    @pytest.mark.parametrize("text, key, value", [
        ("fx = 1_000\nfy = 1\ncx = 0\ncy = 0\n", "fx", "1_000"),
        ("fx = \uff11\nfy = 1\ncx = 0\ncy = 0\n", "fx", "\uff11"),
        ("fov_x_deg = 60\nwidth = 6_4_0\nheight = 480\n", "width", "6_4_0"),
    ], ids=["underscore", "full-width", "separated-size"])
    def test_only_ascii_numbers_without_separators(self, text, key, value):
        with pytest.raises(FileError,
                           match=re.escape(f"value for {key!r} is not a number: {value!r}")):
            parse_intrinsics_config(text)

    def test_fractional_size_rejected(self):
        with pytest.raises(FileError, match="integers"):
            parse_intrinsics_config("fov_x_deg = 60\nwidth = 4.5\nheight = 3\n")

    @pytest.mark.parametrize("value", ["inf", "nan", "1e400"])
    @pytest.mark.parametrize("key", ["width", "height"])
    def test_non_finite_size_rejected(self, key, value):
        sizes = {"width": "4", "height": "3", key: value}
        text = f"fov_x_deg = 60\nwidth = {sizes['width']}\nheight = {sizes['height']}\n"
        with pytest.raises(FileError, match="integers"):
            parse_intrinsics_config(text)

    def test_empty_config_rejected(self):
        with pytest.raises(FileError, match="^config contains no intrinsics keys$"):
            parse_intrinsics_config("# nothing here\n")

    def test_separatorless_line_rejected(self):
        with pytest.raises(FileError, match="key = value"):
            parse_intrinsics_config("fx 500\n")

    def test_bad_values_surface_as_config_errors(self):
        with pytest.raises(FileError, match="^focal lengths must be positive"):
            parse_intrinsics_config("fx = -5\nfy = 1\ncx = 0\ncy = 0\n")
        with pytest.raises(FileError, match="^fov_x_deg must lie strictly between"):
            parse_intrinsics_config("fov_x_deg = 200\nwidth = 4\nheight = 3\n")

    def test_fov_size_checked_against_grid_shape(self):
        text = "fov_x_deg = 60\nwidth = 640\nheight = 480\n"
        assert parse_intrinsics_config(text, grid_shape=(480, 640)) == parse_intrinsics_config(text)
        with pytest.raises(FileError, match="640x480.*3x2"):
            parse_intrinsics_config(text, grid_shape=(2, 3))

    def test_explicit_mode_ignores_grid_shape(self):
        text = "fx = 500\nfy = 480\ncx = 320\ncy = 240\n"
        assert parse_intrinsics_config(text, grid_shape=(2, 3)) == parse_intrinsics_config(text)

    def test_size_mismatch_names_the_path(self, intrinsics_file):
        path = intrinsics_file("fov_x_deg = 60\nwidth = 4\nheight = 3\n", name="camera-b.cfg")
        with pytest.raises(FileError, match=re.escape(f"{path}: ")):
            load_intrinsics(path, grid_shape=(4, 3))

    def test_load_from_file(self, intrinsics_file):
        path = intrinsics_file("fx = 2\nfy = 3\ncx = 0.5\ncy = 0.5\n")
        intr = load_intrinsics(path)
        assert intr.fx == 2.0

    # used to fail as "unknown key" on the BOM before the first key
    def test_load_skips_utf8_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_bytes("\ufefffx = 2\nfy = 3\ncx = 0.5\ncy = 0.5\n".encode("utf-8"))
        assert load_intrinsics(str(path)).fx == 2.0

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileError, match="cannot read"):
            load_intrinsics(str(tmp_path / "absent.cfg"))

    @pytest.mark.parametrize("text", [
        "\x00x = 1\n", "fx = 1\nwidth = 8\n", "fov_x_deg = 60\nwidth = 4\n", "# empty\n",
        "fov_x_deg = 200\nwidth = 4\nheight = 3\n",
    ], ids=["unknown-key", "mixed-modes", "missing-key", "empty", "bad-fov"])
    def test_parse_errors_name_the_path(self, intrinsics_file, text):
        path = intrinsics_file(text, name="camera-a.cfg")
        with pytest.raises(FileError, match=re.escape(path)):
            load_intrinsics(path)

    def test_load_non_utf8_file_names_path(self, tmp_path):
        path = tmp_path / "utf16.cfg"
        path.write_bytes(b"\xff\xfefx = 1\n")
        with pytest.raises(FileError, match="utf16.cfg"):
            load_intrinsics(str(path))
