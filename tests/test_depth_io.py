import re
import struct

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from pseudo3d.depth import DepthKind
from pseudo3d.depth_io import (
    load_depth_map,
    read_csv,
    read_pfm,
    read_pgm,
    write_csv,
    write_pfm,
    write_pgm,
)
from pseudo3d.errors import DepthFileError


class TestPfm:
    def test_reads_handmade_little_endian(self, tmp_path):
        # rows are stored bottom-to-top: file row 0 is image row 1
        body = struct.pack("<6f", 3.0, 4.0, 5.0,   # bottom row
                           0.0, 1.0, 2.0)          # top row
        path = tmp_path / "le.pfm"
        path.write_bytes(b"Pf\n3 2\n-1.0\n" + body)
        grid = read_pfm(str(path))
        assert grid.dtype == np.float64
        assert_array_equal(grid, [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])

    def test_reads_big_endian_on_positive_scale(self, tmp_path):
        body = struct.pack(">2f", 7.0, 8.0)
        path = tmp_path / "be.pfm"
        path.write_bytes(b"Pf\n2 1\n1.0\n" + body)
        assert_array_equal(read_pfm(str(path)), [[7.0, 8.0]])

    def test_scale_magnitude_is_ignored(self, tmp_path):
        body = struct.pack("<2f", 1.0, 2.0)
        a = tmp_path / "a.pfm"
        b = tmp_path / "b.pfm"
        a.write_bytes(b"Pf\n2 1\n-1.0\n" + body)
        b.write_bytes(b"Pf\n2 1\n-123.5\n" + body)
        assert_array_equal(read_pfm(str(a)), read_pfm(str(b)))

    def test_color_pfm_rejected(self, tmp_path):
        path = tmp_path / "color.pfm"
        path.write_bytes(b"PF\n1 1\n-1.0\n" + struct.pack("<3f", 1, 2, 3))
        with pytest.raises(DepthFileError, match="grayscale"):
            read_pfm(str(path))

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "short.pfm"
        path.write_bytes(b"Pf\n2 2\n-1.0\n" + struct.pack("<3f", 1, 2, 3))
        with pytest.raises(DepthFileError, match="truncated"):
            read_pfm(str(path))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pfm"
        path.write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 4)
        with pytest.raises(DepthFileError):
            read_pfm(str(path))

    def test_zero_scale_rejected(self, tmp_path):
        path = tmp_path / "zscale.pfm"
        path.write_bytes(b"Pf\n1 1\n0.0\n" + struct.pack("<f", 1.0))
        with pytest.raises(DepthFileError, match="malformed"):
            read_pfm(str(path))

    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        grid = rng.uniform(-4, 4, (5, 3)).astype(np.float32).astype(np.float64)
        path = str(tmp_path / "rt.pfm")
        write_pfm(path, grid)
        assert_array_equal(read_pfm(path), grid)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DepthFileError, match="cannot read"):
            read_pfm(str(tmp_path / "nope.pfm"))


class TestPgm:
    def test_reads_8bit_handmade(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\n3 2\n255\n" + bytes([0, 51, 102, 153, 204, 255]))
        grid = read_pgm(str(path))
        assert_array_equal(grid, np.array([[0, 51, 102], [153, 204, 255]]) / 255.0)

    def test_reads_16bit_big_endian(self, tmp_path):
        samples = struct.pack(">4H", 0, 1024, 2048, 4096)
        path = tmp_path / "g16.pgm"
        path.write_bytes(b"P5\n2 2\n4096\n" + samples)
        assert_array_equal(read_pgm(str(path)),
                           np.array([[0.0, 0.25], [0.5, 1.0]]))

    def test_header_comments_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# made by hand\n2 1\n# maxval next\n255\n" + bytes([10, 20]))
        assert_array_equal(read_pgm(str(path)), np.array([[10, 20]]) / 255.0)

    def test_sample_above_maxval_rejected(self, tmp_path):
        path = tmp_path / "over.pgm"
        path.write_bytes(b"P5\n1 1\n1000\n" + struct.pack(">H", 2000))
        with pytest.raises(DepthFileError, match="exceeds maxval"):
            read_pgm(str(path))

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "p2.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0\n")
        with pytest.raises(DepthFileError, match="P5"):
            read_pgm(str(path))

    def test_oversized_maxval_rejected(self, tmp_path):
        path = tmp_path / "big.pgm"
        path.write_bytes(b"P5\n1 1\n70000\n" + b"\x00\x00\x00")
        with pytest.raises(DepthFileError, match="malformed"):
            read_pgm(str(path))

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2]))
        with pytest.raises(DepthFileError, match="truncated"):
            read_pgm(str(path))

    def test_write_read_round_trip_16bit(self, tmp_path):
        rng = np.random.default_rng(17)
        samples = rng.integers(0, 4097, size=(4, 6))
        path = str(tmp_path / "rt.pgm")
        write_pgm(path, samples, maxval=4096)
        assert_array_equal(read_pgm(path), samples / 4096.0)

    def test_writer_validates_range(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(str(tmp_path / "x.pgm"), np.array([[5000]]), maxval=4096)


class TestCsv:
    def test_round_trip_preserves_float64(self, tmp_path):
        rng = np.random.default_rng(41)
        grid = rng.standard_normal((6, 4)) * 1e3
        path = str(tmp_path / "g.csv")
        write_csv(path, grid)
        assert_array_equal(read_csv(path), grid)  # %.17g is lossless

    def test_single_row_stays_two_dimensional(self, tmp_path):
        path = tmp_path / "row.csv"
        path.write_text("1.0,2.0,3.0\n")
        grid = read_csv(str(path))
        assert grid.shape == (1, 3)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(DepthFileError, match="malformed"):
            read_csv(str(path))

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DepthFileError):
            read_csv(str(path))


    def test_non_utf8_rejected_with_path(self, tmp_path):
        path = tmp_path / "utf16.csv"
        path.write_bytes(b"\xff\xfe1,2\n")
        with pytest.raises(DepthFileError, match="utf16.csv"):
            read_csv(str(path))


class TestCrossFormat:
    def test_same_ramp_through_all_readers(self, tmp_path):
        """k/16 is exact in every format: CSV text, PFM float32, PGM 256k/4096."""
        k = np.tile(np.arange(17), (3, 1))
        ramp = k / 16.0
        write_csv(str(tmp_path / "r.csv"), ramp)
        write_pfm(str(tmp_path / "r.pfm"), ramp)
        write_pgm(str(tmp_path / "r.pgm"), 256 * k, maxval=4096)
        a = read_csv(str(tmp_path / "r.csv"))
        b = read_pfm(str(tmp_path / "r.pfm"))
        c = read_pgm(str(tmp_path / "r.pgm"))
        assert_array_equal(a, ramp)
        assert_array_equal(b, ramp)
        assert_array_equal(c, ramp)


class TestWriters:
    @pytest.mark.parametrize("write", [
        lambda p: write_pfm(p, np.ones((2, 2))),
        lambda p: write_pgm(p, np.ones((2, 2), dtype=int), maxval=255),
        lambda p: write_csv(p, np.ones((2, 2))),
    ], ids=["pfm", "pgm", "csv"])
    def test_unwritable_path_names_path(self, tmp_path, write):
        with pytest.raises(DepthFileError, match=re.escape(f"{tmp_path}: cannot write")):
            write(str(tmp_path))


class TestLoadDepthMap:
    def test_tags_kind(self, tmp_path):
        path = str(tmp_path / "d.csv")
        write_csv(path, np.array([[1.0, 2.0]]))
        dm = load_depth_map(path, "csv", DepthKind.PREDICTED_RELATIVE)
        assert dm.kind is DepthKind.PREDICTED_RELATIVE

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown depth format"):
            load_depth_map(str(tmp_path / "d.exr"), "exr", DepthKind.METRIC)

    def test_missing_file_surfaces_path(self, tmp_path):
        missing = str(tmp_path / "gone.csv")
        with pytest.raises(DepthFileError, match="gone.csv"):
            load_depth_map(missing, "csv", DepthKind.METRIC)
