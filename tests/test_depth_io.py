import contextlib
import json
import os
import re
import struct
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from pseudo3d.depth import DepthKind
from pseudo3d.depth_io import (
    READERS,
    load_depth_map,
    read_csv,
    read_pfm,
    read_pgm,
    write_csv,
    write_pfm,
    write_pgm,
)
from pseudo3d.camera import load_intrinsics
from pseudo3d.encoder import init_params, load_params, save_params
from pseudo3d.errors import FileError, InvalidInputError
from pseudo3d.ply import export_ply, read_ply
from pseudo3d.policy_loss import read_actions_csv


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
        with pytest.raises(FileError, match="grayscale"):
            read_pfm(str(path))

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "short.pfm"
        path.write_bytes(b"Pf\n2 2\n-1.0\n" + struct.pack("<3f", 1, 2, 3))
        with pytest.raises(FileError, match="truncated"):
            read_pfm(str(path))

    # a header that understates the width used to give a sheared grid
    def test_bytes_after_the_raster_rejected(self, tmp_path):
        path = tmp_path / "long.pfm"
        path.write_bytes(b"Pf\n2 2\n-1.0\n" + struct.pack("<8f", *range(8)))
        with pytest.raises(FileError, match=r"too long \(32 bytes, need 16\)"):
            read_pfm(str(path))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pfm"
        path.write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 4)
        with pytest.raises(FileError, match="bad.pfm: not a valid PFM header$"):
            read_pfm(str(path))

    def test_zero_scale_rejected(self, tmp_path):
        path = tmp_path / "zscale.pfm"
        path.write_bytes(b"Pf\n1 1\n0.0\n" + struct.pack("<f", 1.0))
        with pytest.raises(FileError, match="malformed"):
            read_pfm(str(path))

    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        grid = rng.uniform(-4, 4, (5, 3)).astype(np.float32).astype(np.float64)
        path = str(tmp_path / "rt.pfm")
        write_pfm(path, grid)
        assert_array_equal(read_pfm(path), grid)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileError, match="cannot read"):
            read_pfm(str(tmp_path / "nope.pfm"))

    def test_value_beyond_float32_range_rejected(self, tmp_path):
        path = str(tmp_path / "huge.pfm")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FileError, match=re.escape(f"{path}: ") + ".*float32"):
                write_pfm(path, np.array([[1.0, 1.7976931348623157e308], [2.0, 3.0]]))
        assert not (tmp_path / "huge.pfm").exists()

    def test_non_finite_values_are_written_as_is(self, tmp_path):
        path = str(tmp_path / "inf.pfm")
        grid = np.array([[np.inf, -np.inf, 1.0]])
        write_pfm(path, grid)
        assert_array_equal(read_pfm(path), grid)


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
        with pytest.raises(FileError, match="exceeds maxval"):
            read_pgm(str(path))

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "p2.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0\n")
        with pytest.raises(FileError, match="P5"):
            read_pgm(str(path))

    def test_oversized_maxval_rejected(self, tmp_path):
        path = tmp_path / "big.pgm"
        path.write_bytes(b"P5\n1 1\n70000\n" + b"\x00\x00\x00")
        with pytest.raises(FileError, match="malformed"):
            read_pgm(str(path))

    # int() read the first two as 10 and 5; a field is 1 to 9 ASCII digits
    @pytest.mark.parametrize("header", [b"P5\n1_0 1\n255\n", b"P5\n+5 1\n255\n",
                                        b"P5\n1 1\n0000000255\n"],
                             ids=["underscore", "plus-sign", "ten-digits"])
    def test_header_fields_are_short_digit_runs(self, tmp_path, header):
        path = tmp_path / "field.pgm"
        path.write_bytes(header + bytes(10))
        message = f"{path}: malformed PGM header: expected 'P5'"
        with pytest.raises(FileError, match=re.escape(message)):
            read_pgm(str(path))

    def test_unterminated_comment_is_rejected_in_linear_time(self, tmp_path):
        # a comment pattern that may end anywhere backtracks exponentially:
        # 0.23 s at 22 "#" bytes, doubling with each one more
        path = tmp_path / "hashes.pgm"
        path.write_bytes(b"P5 " + b"#" * 100_000)
        start = time.perf_counter()
        with pytest.raises(FileError, match="malformed PGM header: expected 'P5'"):
            read_pgm(str(path))
        assert time.perf_counter() - start < 0.1

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2]))
        with pytest.raises(FileError, match="truncated"):
            read_pgm(str(path))

    def test_write_read_round_trip_16bit(self, tmp_path):
        rng = np.random.default_rng(17)
        samples = rng.integers(0, 4097, size=(4, 6))
        path = str(tmp_path / "rt.pgm")
        write_pgm(path, samples, maxval=4096)
        assert_array_equal(read_pgm(path), samples / 4096.0)

    def test_writer_validates_range(self, tmp_path):
        with pytest.raises(InvalidInputError):
            write_pgm(str(tmp_path / "x.pgm"), np.array([[5000]]), maxval=4096)

    def test_writer_rejects_non_integer_samples(self, tmp_path):
        # they used to be truncated: [[3.7, 250.9]] read back as [[3, 250]] / 255
        path = tmp_path / "x.pgm"
        with pytest.raises(InvalidInputError, match=re.escape("PGM samples must be integers")):
            write_pgm(str(path), np.array([[3.7, 250.9]]), maxval=255)
        assert not path.exists()

    @pytest.mark.parametrize("maxval", [255.9, 4095.5, 0.5])
    def test_writer_rejects_a_fractional_maxval(self, tmp_path, maxval):
        # 255.9 used to pick 16-bit samples but write 255 in the header, so
        # [[200, 255]] read back as [[0, 0.784]]
        path = tmp_path / "x.pgm"
        with pytest.raises(InvalidInputError, match=re.escape(f"got {maxval}")):
            write_pgm(str(path), np.array([[0.0, 0.0]]), maxval=maxval)
        assert not path.exists()

    # both leaked a bare TypeError from 0 < maxval
    @pytest.mark.parametrize("maxval", ["255", None], ids=["str", "none"])
    def test_writer_rejects_a_maxval_that_is_not_a_number(self, tmp_path, maxval):
        path = tmp_path / "x.pgm"
        with pytest.raises(InvalidInputError,
                           match=re.escape(f"maxval must be a real number, got {maxval!r}")):
            write_pgm(str(path), np.array([[0.0, 1.0]]), maxval=maxval)
        assert not path.exists()

    @pytest.mark.parametrize("maxval", [True, np.True_])
    def test_writer_rejects_a_bool_maxval(self, tmp_path, maxval):
        # True used to pass as an integer and write a file with maxval 1
        path = tmp_path / "x.pgm"
        with pytest.raises(InvalidInputError, match=re.escape(
                f"maxval must be an integer, got {maxval!r}")):
            write_pgm(str(path), np.array([[0.0, 1.0]]), maxval=maxval)
        assert not path.exists()


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

    # used to fail as "malformed CSV" on the BOM before the first number
    def test_utf8_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1.0,2.0\n3.0,4.0\n")
        assert_array_equal(read_csv(str(path)), [[1.0, 2.0], [3.0, 4.0]])

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(FileError, match="malformed"):
            read_csv(str(path))

    # a line of only whitespace used to fail as "malformed CSV"
    def test_whitespace_line_is_skipped(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("1,2\n  \n3,4\n")
        assert_array_equal(read_csv(str(path)), [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("text", ["   ", " \t\n  \n"], ids=["spaces", "tab-and-spaces"])
    def test_whitespace_only_file_is_empty(self, tmp_path, text):
        path = tmp_path / "blank.csv"
        path.write_text(text)
        with pytest.raises(FileError, match=re.escape(f"{path}: empty CSV grid")):
            read_csv(str(path))

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        # np.loadtxt warns on a file with no data; the warning must not escape
        for text in ["", "\n\n", "# a comment\n"]:
            path.write_text(text)
            with pytest.raises(FileError, match=re.escape(f"{path}: empty CSV grid")):
                read_csv(str(path))

    # np.loadtxt's default comments="#" cut each row at its "#", and this
    # file read as the 2x1 grid [[1], [4]]; only a line that starts with "#"
    # is a comment
    def test_a_hash_inside_a_row_is_not_a_comment(self, tmp_path):
        path = tmp_path / "hash.csv"
        path.write_text("1#,2,3\n4#,5,6\n")
        with pytest.raises(FileError, match=re.escape(f"{path}: malformed CSV: ")):
            read_csv(str(path))
        path.write_text("  # made by hand\n1,2,3\n# a note\n4,5,6\n")
        assert_array_equal(read_csv(str(path)), [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    # np.loadtxt named the first at "row 1, column 2", counting from 0, and
    # the second "at row 2"; both are file line 3 and the second row read
    @pytest.mark.parametrize("text, message", [
        ("# note\n1,2\n3,x\n", "row 2 is not numeric: ['3', 'x']"),
        ("# note\n1,2\n\n3,4,5\n", "row 2 has 3 columns, expected 2"),
        ("1,2,3\n4,5\n6,z\n", "row 2 has 2 columns, expected 3"),
    ], ids=["not-numeric", "too-wide", "narrower-before-bad-cell"])
    def test_a_bad_row_is_counted_from_1_over_the_lines_read(self, tmp_path, text, message):
        path = tmp_path / "bad-row.csv"
        path.write_text(text)
        with pytest.raises(FileError,
                           match=f"^{re.escape(f'{path}: malformed CSV: {message}')}$"):
            read_csv(str(path))

    def test_streams_the_file(self, tmp_path):
        # 3.2 MB measured for the 5.6 MB text of a 480x640 grid (the grid is
        # 2.5 MB); reading the whole text into a StringIO peaked at 33.9 MB
        path = str(tmp_path / "big.csv")
        write_csv(path, np.random.default_rng(42).uniform(0.0, 1.0, (480, 640)))
        tracemalloc.start()
        try:
            read_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6e6, peak


    def test_non_utf8_rejected_with_path(self, tmp_path):
        path = tmp_path / "utf16.csv"
        path.write_bytes(b"\xff\xfe1,2\n")
        with pytest.raises(FileError, match="utf16.csv"):
            read_csv(str(path))


# str.splitlines() also breaks at these; the intrinsics parser used it and
# read "fx = 1\x0bfy = 2\x85cx = 0\x0ccy = 0" as four keys
_NOT_NEWLINES = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", _NOT_NEWLINES, ids=[f"U+{ord(c):04X}" for c in _NOT_NEWLINES])
@pytest.mark.parametrize("reader, first, second", [
    (read_csv, "1,2", "3,4"),
    (read_actions_csv, "1,2,3,1,0,0,0,1", "4,5,6,1,0,0,0,0"),
    (load_intrinsics, "fx = 1\nfy = 2\ncx = 0", "cy = 0"),
], ids=["depth-csv", "actions-csv", "intrinsics"])
def test_a_line_ends_only_at_a_newline(tmp_path, sep, reader, first, second):
    """Each text reader ends a line at \\n, \\r\\n or \\r only, so two data
    lines joined by any other line separator are one bad line."""
    path = tmp_path / "joined.txt"
    path.write_text(first + sep + second + "\n", encoding="utf-8")
    with pytest.raises(FileError, match=re.escape(str(path))):
        reader(str(path))


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
        with pytest.raises(FileError, match=re.escape(f"{tmp_path}: cannot write")):
            write(str(tmp_path))


class TestLoadDepthMap:
    def test_tags_kind(self, tmp_path):
        """The kind is only a tag: the grid is the reader's, value for value."""
        writers = {"pfm": write_pfm, "csv": write_csv, "pgm": lambda p, v: write_pgm(p, v, 255)}
        for fmt, write in writers.items():
            path = str(tmp_path / f"d.{fmt}")
            write(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
            grid = load_depth_map(path, fmt, DepthKind.PREDICTED_RELATIVE)
            assert grid.dtype == np.float64
            assert_array_equal(grid, READERS[fmt](path))

    def test_unknown_format(self, tmp_path):
        with pytest.raises(InvalidInputError, match="unknown depth format"):
            load_depth_map(str(tmp_path / "d.exr"), "exr", DepthKind.PREDICTED_RELATIVE)

    # a list raised a bare TypeError: unhashable type: 'list'
    def test_format_that_is_not_a_str_is_unknown(self, tmp_path):
        with pytest.raises(InvalidInputError, match=re.escape(
                "unknown depth format ['pfm']; expected one of ['csv', 'pfm', 'pgm']")):
            load_depth_map(str(tmp_path / "d.pfm"), ["pfm"], DepthKind.PREDICTED_RELATIVE)

    def test_missing_file_surfaces_path(self, tmp_path):
        missing = str(tmp_path / "gone.csv")
        with pytest.raises(FileError, match="gone.csv"):
            load_depth_map(missing, "csv", DepthKind.PREDICTED_RELATIVE)

    @pytest.mark.parametrize("name, fmt, data", [
        ("inf.pfm", "pfm", b"Pf\n2 1\n-1.0\n" + struct.pack("<2f", 1.0, float("inf"))),
        ("nan.csv", "csv", b"1,2\nnan,4\n"),
    ], ids=["pfm-inf", "csv-nan"])
    def test_non_finite_sample_names_path(self, tmp_path, name, fmt, data):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(FileError, match=re.escape(
                f"{path}: depth grid contains NaN or infinite values")):
            load_depth_map(str(path), fmt, DepthKind.PREDICTED_RELATIVE)


# every function that takes a file path: (reads the file, call(path))
_PATH_CALLS = {
    "read_pfm": (True, read_pfm),
    "read_pgm": (True, read_pgm),
    "read_csv": (True, read_csv),
    "load_depth_map": (True, lambda p: load_depth_map(p, "csv", DepthKind.PREDICTED_RELATIVE)),
    "load_intrinsics": (True, load_intrinsics),
    "load_params": (True, load_params),
    "read_actions_csv": (True, read_actions_csv),
    "read_ply": (True, read_ply),
    "write_pfm": (False, lambda p: write_pfm(p, np.ones((2, 2)))),
    "write_pgm": (False, lambda p: write_pgm(p, np.ones((2, 2)), 255)),
    "write_csv": (False, lambda p: write_csv(p, np.ones((2, 2)))),
    "save_params": (False, lambda p: save_params(p, init_params(4, seed=0))),
    "export_ply": (False, lambda p: export_ply(p, np.ones((2, 2, 3)))),
}


def _path_message(value) -> str:
    return f"^{re.escape(f'path must be a str, bytes or os.PathLike, got {value!r}')}$"


class TestPathType:
    """``open`` takes an integer or a bool as a file descriptor: each of these
    read or wrote a pipe given its descriptor, then closed it."""

    @pytest.mark.parametrize("entry", _PATH_CALLS)
    def test_a_file_descriptor_is_not_a_path(self, entry):
        reads, call = _PATH_CALLS[entry]
        read_end, write_end = os.pipe()
        fd = read_end if reads else write_end
        try:
            if reads:  # at end of file, so a reader that takes the fd cannot block
                os.close(write_end)
            with pytest.raises(InvalidInputError, match=_path_message(fd)):
                call(fd)
            os.fstat(fd)  # still open
        finally:
            for end in (read_end, write_end):
                with contextlib.suppress(OSError):
                    os.close(end)

    # a bare TypeError leaked from open
    @pytest.mark.parametrize("value", [None, 1.5], ids=["none", "float"])
    @pytest.mark.parametrize("entry", _PATH_CALLS)
    def test_a_path_must_be_a_str_bytes_or_pathlike(self, entry, value):
        with pytest.raises(InvalidInputError, match=_path_message(value)):
            _PATH_CALLS[entry][1](value)

    # each of the three open calls of the file boundary: write_output, reading, read_csv
    @pytest.mark.parametrize("as_path", [os.fsencode, lambda p: p], ids=["bytes", "pathlike"])
    def test_bytes_and_pathlike_paths_are_accepted(self, tmp_path, as_path):
        grid = np.array([[1.0, 2.0], [3.0, 4.0]])
        write_pfm(as_path(tmp_path / "d.pfm"), grid)
        write_csv(as_path(tmp_path / "d.csv"), grid)
        assert_array_equal(read_pfm(as_path(tmp_path / "d.pfm")), grid)
        assert_array_equal(read_csv(as_path(tmp_path / "d.csv")), grid)

    def test_a_bool_is_not_a_file_descriptor(self):
        """True and False are descriptors 1 and 0: ``load_intrinsics(False)``
        read stdin and closed it, ``read_actions_csv(True)`` closed stdout.
        A child process makes every call, so no descriptor of this run is at stake."""
        child = f"""
import importlib.util, json, os
spec = importlib.util.spec_from_file_location("calls", {__file__!r})
calls = importlib.util.module_from_spec(spec)
spec.loader.exec_module(calls)
seen = {{}}
for entry, (_, call) in calls._PATH_CALLS.items():
    for value in (True, False):
        try:
            call(value)
            seen[f"{{entry}}-{{value}}"] = "returned"
        except Exception as exc:
            seen[f"{{entry}}-{{value}}"] = f"{{type(exc).__name__}}: {{exc}}"
        for fd in (0, 1, 2):
            os.fstat(fd)
print(json.dumps(seen))
"""
        proc = subprocess.run([sys.executable, "-c", child], input="", capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout)
        assert seen == {f"{entry}-{value}": "InvalidInputError: path must be a str, bytes or "
                        f"os.PathLike, got {value}"
                        for entry in _PATH_CALLS for value in (True, False)}
