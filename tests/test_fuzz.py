"""Mutation fuzzing of the file readers.

Each reader gets mutated copies of a valid file and must either return a
valid object or raise a :class:`Pseudo3dError` subclass whose message names
the file.  Runs are derandomized so the suite sees the same inputs each time.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pseudo3d import cli
from pseudo3d.camera import CameraIntrinsics, load_intrinsics
from pseudo3d.depth_io import read_csv, read_pfm, read_pgm, write_csv, write_pfm, write_pgm
from pseudo3d.encoder import EncoderParams, init_params, load_params, save_params
from pseudo3d.errors import FileError, Pseudo3dError
from pseudo3d.ply import _HEADER, export_ply, read_ply
from pseudo3d.policy_loss import read_actions_csv

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


@st.composite
def body_mutations(draw, seeds):
    """A valid PLY whose header is kept and up to four bytes of its body are
    replaced, or (one time in four) any of :func:`mutations`."""
    if draw(st.integers(0, 3)) == 0:
        return draw(mutations(seeds))
    data = bytearray(draw(st.sampled_from(seeds)))
    body = data.index(b"end_header\n") + len(b"end_header\n")
    for _ in range(draw(st.integers(1, 4))):
        data[draw(st.integers(body, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


def test_ply(tmp_path):
    """read_ply accepts only what export_ply writes: a grid it returns is
    written back as the same bytes.  Most mutations of the header are
    rejected, so most files keep it and change the body, and at least half
    the files reach the write-back."""
    rng = np.random.default_rng(0)
    seeds = _seed_files(tmp_path, "c.ply", [
        lambda p, shape=shape: export_ply(p, rng.standard_normal((*shape, 3)))
        for shape in [(1, 1), (2, 3), (1, 5)]
    ])
    path = tmp_path / "fuzzed.ply"
    rewritten = tmp_path / "rewritten.ply"
    reached = {"files": 0, "written back": 0}

    @FUZZ
    @given(body_mutations(seeds))
    def run(data):
        reached["files"] += 1
        grid = _check(path, data, read_ply)
        if grid is None:
            return
        assert grid.ndim == 3 and grid.shape[2] == 3 and grid.dtype == np.float32
        export_ply(str(rewritten), grid)
        assert rewritten.read_bytes() == data
        reached["written back"] += 1

    run()
    assert 2 * reached["written back"] >= reached["files"], reached


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
        assert out is None or (out.ndim == 2 and out.shape[1] == 8 and out.dtype == np.float64)

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
        lines = err.getvalue().splitlines()
        assert len(lines) <= 1, lines
        if lines and lines[0].startswith("gen-cloud: stage=read: "):
            assert str(path) in lines[0], lines[0]

    run()


_F32_MAX = float(np.finfo(np.float32).max)
_F32_EDGES = [np.nan, np.inf, -np.inf, 1e-45, -1e-45, 1e-40, _F32_MAX, -_F32_MAX, -0.0]
_F32_FINITE = st.floats(width=32, allow_nan=False, allow_infinity=False) \
    | st.sampled_from([edge for edge in _F32_EDGES if np.isfinite(edge)])


@st.composite
def float32_values(draw, n, finite):
    """``n`` float32 values: all finite, or any with at least one NaN or infinite."""
    value = _F32_FINITE if finite else st.floats(width=32) | st.sampled_from(_F32_EDGES)
    values = draw(st.lists(value, min_size=n, max_size=n))
    if not finite:
        values[draw(st.integers(0, n - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return values


@st.composite
def pfm_files(draw, finite):
    """A valid grayscale PFM header, little- or big-endian, over a drawn float32
    body, finite or not as ``finite`` says."""
    h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    little = draw(st.booleans())
    body = np.array(draw(float32_values(h * w, finite)), dtype="<f4" if little else ">f4")
    return b"Pf\n%d %d\n%s\n" % (w, h, b"-1.0" if little else b"1.0") + body.tobytes(), body


def test_gen_cloud_on_pfm_values(tmp_path):
    """gen-cloud on any float32 raster behind a valid PFM header exits 0, or
    exits 1 with one ``stage=`` line; a NaN or infinite sample fails at
    ``stage=read`` naming the file.  Finite and non-finite rasters each get
    a run of their own."""
    path = tmp_path / "values.pfm"
    intrinsics = tmp_path / "cam.cfg"
    intrinsics.write_text("fx = 4\nfy = 4\ncx = 1.5\ncy = 1\n")
    argv = ["gen-cloud", "--depth", str(path), "--format", "pfm",
            "--intrinsics", str(intrinsics), "--out", str(tmp_path / "out.ply")]
    reached = {"non-finite": 0, "finite": 0}

    for finite in (True, False):
        @settings(FUZZ, max_examples=100)
        @given(pfm_files(finite))
        def run(file):
            data, body = file
            path.write_bytes(data)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            lines = err.getvalue().splitlines()
            if np.isfinite(body).all():
                reached["finite"] += 1
                assert code == 0 and lines == [] or code == 1 and len(lines) == 1, (code, lines)
                assert all(line.startswith("gen-cloud: stage=") for line in lines), lines
            else:
                reached["non-finite"] += 1
                assert code == 1
                assert lines == [f"gen-cloud: stage=read: {path}: "
                                 "depth grid contains NaN or infinite values"], lines

        run()
    assert min(reached.values()) >= 25, reached


@st.composite
def ply_files(draw, finite):
    """export_ply's header for a drawn grid shape over drawn float32 x/y/z
    triples, finite or not as ``finite`` says."""
    h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    body = np.array(draw(float32_values(3 * h * w, finite)), dtype="<f4").reshape(h, w, 3)
    return _HEADER.format(h=h, w=w, n=h * w).encode("ascii") + body.tobytes(), body


def test_ply_values(tmp_path):
    """read_ply on any float32 triples behind a valid header: a finite body
    comes back exactly and export_ply writes it back byte for byte; a NaN or
    infinite vertex raises FileError naming the file.  Finite and non-finite
    bodies each get a run of their own."""
    path = tmp_path / "values.ply"
    rewritten = tmp_path / "rewritten.ply"
    reached = {"non-finite": 0, "finite": 0}

    for finite in (True, False):
        @settings(FUZZ, max_examples=100)
        @given(ply_files(finite))
        def run(file):
            data, body = file
            path.write_bytes(data)
            if np.isfinite(body).all():
                reached["finite"] += 1
                grid = read_ply(str(path))
                assert grid.shape == body.shape and grid.tobytes() == body.tobytes()
                export_ply(str(rewritten), grid)
                assert rewritten.read_bytes() == data
            else:
                reached["non-finite"] += 1
                with pytest.raises(FileError) as exc:
                    read_ply(str(path))
                assert str(exc.value) == f"{path}: vertex data contains NaN or infinite values"

        run()
    assert min(reached.values()) >= 25, reached


_EDGE_FLOATS = [5e-324, 1e-40, 3.4e38, 1e308, -1e308, -0.0]


def _refuse_constant(name):
    raise ValueError(f"JSON constant {name} in the summary")


@pytest.mark.parametrize("naive", [False, True], ids=["normalized", "naive-reciprocal"])
def test_gen_cloud_intrinsics_values(tmp_path, naive):
    """gen-cloud --json on explicit fx, fy, cx and cy drawn from every float.

    A property-based test in the sense of MacIver, Hatfield-Dodds et al. 2019,
    "Hypothesis: A new approach to property-based testing" (JOSS 4(43):1891).
    Exit 0 means an empty stderr, a PLY of finite vertices and a summary that
    strict JSON accepts; exit 1 means one ``gen-cloud: stage=`` line.
    """
    depth = tmp_path / "d.csv"
    write_csv(str(depth), _DEPTH)
    cfg = tmp_path / "cam.cfg"
    out = tmp_path / "out.ply"
    argv = ["gen-cloud", "--depth", str(depth), "--format", "csv", "--intrinsics", str(cfg),
            "--out", str(out), "--json"] + (["--naive-reciprocal"] if naive else [])
    value = st.floats() | st.sampled_from(_EDGE_FLOATS)

    @settings(FUZZ, max_examples=100)
    @given(value, value, value, value)
    def run(fx, fy, cx, cy):
        cfg.write_text(f"fx = {fx!r}\nfy = {fy!r}\ncx = {cx!r}\ncy = {cy!r}\n")
        out.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        if code == 0:
            assert stderr.getvalue() == ""
            assert np.isfinite(read_ply(str(out))).all()
            json.loads(stdout.getvalue(), parse_constant=_refuse_constant)
        else:
            assert code == 1
            [line] = stderr.getvalue().splitlines()
            assert line.startswith("gen-cloud: stage="), line

    run()


@st.composite
def pgm_files(draw, above):
    """A valid P5 header over drawn 8- or 16-bit samples, many at maxval; with
    ``above``, one sample is above maxval."""
    h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    maxval = draw(st.sampled_from([1, 255, 256, 65535]) | st.integers(1, 65535))
    top = 255 if maxval < 256 else 65535
    if above and maxval == top:  # leave the sample width room above maxval
        maxval -= 1
    samples = draw(st.lists(st.integers(0, maxval) | st.just(maxval),
                            min_size=h * w, max_size=h * w))
    if above:
        samples[draw(st.integers(0, h * w - 1))] = draw(st.integers(maxval + 1, top))
    raster = np.array(samples, dtype="u1" if top == 255 else ">u2").tobytes()
    return b"P5\n%d %d\n%d\n" % (w, h, maxval) + raster, maxval, np.reshape(samples, (h, w))


def test_pgm_values(tmp_path):
    """read_pgm on any samples behind a valid header returns v / maxval for
    each, or raises FileError naming the file for a sample above maxval.
    Rasters with and without such a sample each get a run of their own."""
    path = tmp_path / "values.pgm"
    reached = {"grid": 0, "above maxval": 0}

    for above in (False, True):
        @settings(FUZZ, max_examples=100)
        @given(pgm_files(above))
        def run(file):
            data, maxval, samples = file
            path.write_bytes(data)
            if samples.max() <= maxval:
                reached["grid"] += 1
                expected = [[int(s) / maxval for s in row] for row in samples]
                assert read_pgm(str(path)).tolist() == expected
            else:
                reached["above maxval"] += 1
                with pytest.raises(FileError) as exc:
                    read_pgm(str(path))
                assert str(exc.value) == f"{path}: PGM sample exceeds maxval {maxval}"

        run()
    assert reached["grid"] >= 50 and reached["above maxval"] >= 10, reached


_FINITE_CELLS = st.floats(allow_nan=False, allow_infinity=False).map(repr) \
    | st.sampled_from(["-0", " 1 ", "1.", ".5", "+2", "\t3"])
_NON_FINITE_CELLS = ["nan", "inf", "-inf", "1e309", "-1e309"]
_NOT_A_NUMBER_CELLS = ["1_0", "\uff11", "0x1", "1e", "1a", "1#2"]


def _cell_value(cell: str) -> float | None:
    """A cell as both text readers read it: ASCII, no ``_``, then ``float``."""
    try:
        return float(cell) if cell.isascii() and "_" not in cell else None
    except ValueError:
        return None


@st.composite
def csv_files(draw, widths, cells, bad):
    """Rows of drawn cells, as many a row as ``widths`` draws, with blank and
    whitespace-only lines between them; if ``bad`` names any cells, one cell
    is drawn from them.  Returns the text and the rows of cells."""
    columns = draw(widths)
    rows = draw(st.lists(st.lists(cells, min_size=columns, max_size=columns),
                         min_size=1, max_size=4))
    if bad:
        row = draw(st.integers(0, len(rows) - 1))
        rows[row][draw(st.integers(0, columns - 1))] = draw(st.sampled_from(bad))
    blank = st.lists(st.sampled_from(["", "  ", "\t", " \t "]), max_size=2)
    lines = draw(blank)
    for row in rows:
        lines += [",".join(row)] + draw(blank)
    return "\n".join(lines) + "\n", rows


def test_csv_values(tmp_path):
    """read_csv returns each cell as float() reads it, NaN and infinities
    included, skipping blank lines; a cell that is not a number raises
    FileError naming the file and the row.  Files with and without such a
    cell each get a run of their own."""
    path = tmp_path / "values.csv"
    reached = {"grid": 0, "not a number": 0}
    cells = _FINITE_CELLS | st.sampled_from(_NON_FINITE_CELLS)

    for bad_cells in ([], _NOT_A_NUMBER_CELLS):
        @settings(FUZZ, max_examples=100)
        @given(csv_files(st.integers(1, 4), cells, bad_cells))
        def run(file):
            text, rows = file
            path.write_text(text)
            values = [[_cell_value(cell) for cell in row] for row in rows]
            if all(v is not None for row in values for v in row):
                reached["grid"] += 1
                grid, expected = read_csv(str(path)), np.array(values)
                assert_array_equal(grid, expected)
                assert_array_equal(np.signbit(grid), np.signbit(expected))
            else:
                reached["not a number"] += 1
                [i] = [i for i, row in enumerate(values) if None in row]
                with pytest.raises(FileError) as exc:
                    read_csv(str(path))
                assert str(exc.value).startswith(
                    f"{path}: malformed CSV: row {i + 1} is not numeric: "), str(exc.value)

        run()
    assert reached["grid"] >= 50 and reached["not a number"] >= 10, reached


def test_actions_csv_values(tmp_path):
    """read_actions_csv returns the finite rows as float() reads them,
    skipping blank lines; a cell that is not a number, or not finite, raises
    FileError naming the file and the row.  Files with and without such a
    cell each get a run of their own."""
    path = tmp_path / "values-actions.csv"
    reached = {"actions": 0, "bad row": 0}

    for bad_cells in ([], _NON_FINITE_CELLS + _NOT_A_NUMBER_CELLS):
        @settings(FUZZ, max_examples=100)
        @given(csv_files(st.just(8), _FINITE_CELLS, bad_cells))
        def run(file):
            text, rows = file
            path.write_text(text)
            values = [[_cell_value(cell) for cell in row] for row in rows]
            bad = [(i, row) for i, row in enumerate(values)
                   if not all(v is not None and np.isfinite(v) for v in row)]
            if not bad:
                reached["actions"] += 1
                assert read_actions_csv(str(path)).tolist() == values
            else:
                reached["bad row"] += 1
                [(i, row)] = bad
                kind = "numeric" if None in row else "finite"
                with pytest.raises(FileError) as exc:
                    read_actions_csv(str(path))
                assert str(exc.value).startswith(f"{path}: row {i + 1} is not {kind}: "), \
                    str(exc.value)

        run()
    assert reached["actions"] >= 50 and reached["bad row"] >= 10, reached
