import contextlib
import io
import json
import os
import re
import shlex
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from conftest import run_cli
from pseudo3d import cli
from pseudo3d.cloud import cloud_from_depth, synth_wedge
from pseudo3d.camera import estimate_intrinsics_from_fov
from pseudo3d.depth import DepthKind, DepthMap, pipeline_relative_to_dr
from pseudo3d.depth_io import read_csv, write_csv, write_pfm
from pseudo3d.ply import read_ply


@pytest.fixture
def wedge_csv(tmp_path):
    path = tmp_path / "wedge.csv"
    write_csv(str(path), synth_wedge(6, 8, 2.0, 6.0).values)
    return str(path)


@pytest.fixture
def fov_intrinsics(intrinsics_file):
    return intrinsics_file("fov_x_deg = 60\nwidth = 8\nheight = 6\n")


@pytest.fixture
def explicit_intrinsics(intrinsics_file):
    """A camera with no image size, for grids other than the 8x6 wedge."""
    return intrinsics_file("fx = 4\nfy = 4\ncx = 1.5\ncy = 1\n")


class TestGenCloud:
    def test_wedge_matches_library_pipeline_within_float32(
        self, tmp_path, wedge_csv, fov_intrinsics
    ):
        out = str(tmp_path / "wedge.ply")
        proc = run_cli("gen-cloud", "--depth", wedge_csv, "--format", "csv",
                       "--intrinsics", fov_intrinsics, "--out", out)
        assert proc.returncode == 0, proc.stderr

        # independent reconstruction through the library
        depth = DepthMap(synth_wedge(6, 8, 2.0, 6.0).values, DepthKind.PREDICTED_RELATIVE)
        intr = estimate_intrinsics_from_fov(8, 6, 60.0)
        expected = cloud_from_depth(pipeline_relative_to_dr(depth), intr)
        assert_array_equal(read_ply(out), expected.astype(np.float32))

    def test_summary_reports_range_and_continuity(self, tmp_path, wedge_csv, fov_intrinsics):
        out = str(tmp_path / "w.ply")
        proc = run_cli("gen-cloud", "--depth", wedge_csv, "--format", "csv",
                       "--intrinsics", fov_intrinsics, "--out", out)
        fields = dict(kv.split("=", 1) for kv in proc.stdout.split())
        assert fields["width"] == "8"
        assert fields["height"] == "6"
        assert fields["points"] == "48"
        assert float(fields["dr_min"]) == 0.0
        assert float(fields["dr_max"]) == 1.0
        assert float(fields["mean_step"]) > 0.0
        assert float(fields["max_step"]) >= float(fields["mean_step"])

    def test_json_summary(self, tmp_path, wedge_csv, fov_intrinsics):
        out = str(tmp_path / "w.ply")
        proc = run_cli("gen-cloud", "--depth", wedge_csv, "--format", "csv",
                       "--intrinsics", fov_intrinsics, "--out", out, "--json")
        payload = json.loads(proc.stdout)
        assert payload["points"] == 48
        assert payload["out"] == out

    def test_naive_reciprocal_produces_distorted_cloud(
        self, tmp_path, wedge_csv, fov_intrinsics
    ):
        straight = str(tmp_path / "s.ply")
        naive = str(tmp_path / "n.ply")
        assert run_cli("gen-cloud", "--depth", wedge_csv, "--format", "csv",
                       "--intrinsics", fov_intrinsics, "--out", straight).returncode == 0
        assert run_cli("gen-cloud", "--depth", wedge_csv, "--format", "csv",
                       "--intrinsics", fov_intrinsics, "--naive-reciprocal",
                       "--out", naive).returncode == 0
        assert not np.array_equal(read_ply(straight), read_ply(naive))

    def test_constant_depth_fails_with_degenerate_diagnostic(
        self, tmp_path, explicit_intrinsics
    ):
        flat = tmp_path / "flat.csv"
        write_csv(str(flat), np.full((4, 4), 5.0))
        proc = run_cli("gen-cloud", "--depth", str(flat), "--format", "csv",
                       "--intrinsics", explicit_intrinsics, "--out", str(tmp_path / "o.ply"))
        assert proc.returncode == 1
        assert "degenerate depth" in proc.stderr
        assert "stage=normalize" in proc.stderr

    def test_overflowing_depth_range_fails_in_normalize_stage(
        self, tmp_path, explicit_intrinsics
    ):
        wide = tmp_path / "wide.csv"
        write_csv(str(wide), np.array([[-1e308, 1e308]]))
        proc = run_cli("gen-cloud", "--depth", str(wide), "--format", "csv",
                       "--intrinsics", explicit_intrinsics, "--out", str(tmp_path / "o.ply"))
        assert proc.returncode == 1
        assert "overflows float64" in proc.stderr
        assert "stage=normalize" in proc.stderr
        assert "Warning" not in proc.stderr

    # a tiny focal length puts points beyond float32 (1e-37) or beyond float64
    # (1e-320); at 1e-200 the points are finite (about 1e202) but the squares
    # of their grid steps overflow float64 in the continuity statistic
    @pytest.mark.parametrize("focal, stage, names_out", [
        ("1e-37", "export", True), ("1e-200", "export", True), ("1e-320", "backproject", False),
    ])
    def test_out_of_range_points_fail_with_one_line(
        self, tmp_path, intrinsics_file, focal, stage, names_out
    ):
        depth = tmp_path / "d.pfm"
        write_pfm(str(depth), np.random.default_rng(0).uniform(0.1, 1.0, (6, 8)))
        cfg = intrinsics_file(f"fx = {focal}\nfy = {focal}\ncx = -100\ncy = 2.5\n")
        out = tmp_path / "o.ply"
        proc = run_cli("gen-cloud", "--depth", str(depth), "--format", "pfm",
                       "--intrinsics", cfg, "--out", str(out))
        assert proc.returncode == 1
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        prefix = f"gen-cloud: stage={stage}: " + (f"{out}: " if names_out else "")
        assert line.startswith(prefix), line
        assert not out.exists()

    def test_grid_step_beyond_float64_fails_with_one_line(self, tmp_path, intrinsics_file):
        # the top row's points sit at about -1.25e308 and +1.25e308: finite, but
        # their difference is not, and continuity runs before export rejects them
        depth = tmp_path / "d.csv"
        depth.write_text("1,1\n5,5\n")
        cfg = intrinsics_file("fx = 4e-309\nfy = 1\ncx = 0.5\ncy = 0.5\n")
        out = tmp_path / "o.ply"
        proc = run_cli("gen-cloud", "--depth", str(depth), "--format", "csv",
                       "--intrinsics", cfg, "--out", str(out))
        assert proc.returncode == 1
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"gen-cloud: stage=export: {out}: 2 value(s) beyond float32"), line

    def test_missing_depth_file_names_read_stage(self, tmp_path, fov_intrinsics):
        proc = run_cli("gen-cloud", "--depth", str(tmp_path / "absent.csv"),
                       "--format", "csv", "--intrinsics", fov_intrinsics,
                       "--out", str(tmp_path / "o.ply"))
        assert proc.returncode == 1
        assert "stage=read" in proc.stderr

    @pytest.mark.parametrize("name, fmt, data", [
        ("inf.pfm", "pfm", b"Pf\n2 1\n-1.0\n" + struct.pack("<2f", 1.0, float("inf"))),
        ("nan.csv", "csv", b"1,2\nnan,4\n"),
    ], ids=["pfm-inf", "csv-nan"])
    def test_non_finite_depth_names_path(self, tmp_path, explicit_intrinsics, name, fmt, data):
        depth = tmp_path / name
        depth.write_bytes(data)
        proc = run_cli("gen-cloud", "--depth", str(depth), "--format", fmt,
                       "--intrinsics", explicit_intrinsics, "--out", str(tmp_path / "o.ply"))
        assert proc.returncode == 1
        assert proc.stderr == (f"gen-cloud: stage=read: {depth}: "
                               "depth grid contains NaN or infinite values\n")

    def test_bad_intrinsics_names_stage(self, tmp_path, wedge_csv, intrinsics_file):
        cfg = intrinsics_file("fx = 1\nwidth = 8\n")  # mixed modes
        proc = run_cli("gen-cloud", "--depth", wedge_csv, "--format", "csv",
                       "--intrinsics", cfg, "--out", str(tmp_path / "o.ply"))
        assert proc.returncode == 1
        assert "stage=intrinsics" in proc.stderr
        assert cfg in proc.stderr

    def test_fov_size_must_match_depth_grid(self, tmp_path, intrinsics_file):
        grid = tmp_path / "grid.csv"
        write_csv(str(grid), np.arange(1.0, 7.0).reshape(2, 3))  # 3 wide, 2 high
        cfg = intrinsics_file("fov_x_deg = 60\nwidth = 640\nheight = 480\n")
        out = tmp_path / "o.ply"
        proc = run_cli("gen-cloud", "--depth", str(grid), "--format", "csv",
                       "--intrinsics", cfg, "--out", str(out))
        assert proc.returncode == 1
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"gen-cloud: stage=intrinsics: {cfg}: ")
        assert "640x480" in line and "3x2" in line
        assert not out.exists()

    def test_nonpositive_input_fails_in_reciprocal_stage(
        self, tmp_path, explicit_intrinsics
    ):
        signed = tmp_path / "signed.csv"
        write_csv(str(signed), np.array([[1.0, -2.0], [3.0, 4.0]]))
        proc = run_cli("gen-cloud", "--depth", str(signed), "--format", "csv",
                       "--intrinsics", explicit_intrinsics, "--naive-reciprocal",
                       "--out", str(tmp_path / "o.ply"))
        assert proc.returncode == 1
        assert "stage=reciprocal" in proc.stderr

    def test_single_pixel_fails_in_continuity_stage(self, tmp_path, explicit_intrinsics):
        pixel = tmp_path / "pixel.csv"
        write_csv(str(pixel), np.array([[2.0]]))
        proc = run_cli("gen-cloud", "--depth", str(pixel), "--format", "csv",
                       "--intrinsics", explicit_intrinsics, "--naive-reciprocal",
                       "--out", str(tmp_path / "o.ply"))
        assert proc.returncode == 1
        assert proc.stderr.endswith(
            "stage=continuity: continuity needs at least two grid points\n")

    @pytest.mark.parametrize("depth, intrinsics, stage", [
        (b"1,2\n3,4\n", b"fov_x_deg = 60\nwidth = inf\nheight = 2\n", "intrinsics"),
        (b"1,2\n3,4\n", b"\xff\xfefov_x_deg = 60\n", "intrinsics"),
        (b"\xff\xfe1,2\n", b"fov_x_deg = 60\nwidth = 2\nheight = 2\n", "read"),
    ], ids=["infinite-width", "utf16-intrinsics", "utf16-depth"])
    def test_bad_input_bytes_name_stage_without_traceback(
        self, tmp_path, depth, intrinsics, stage
    ):
        (tmp_path / "d.csv").write_bytes(depth)
        (tmp_path / "i.cfg").write_bytes(intrinsics)
        proc = run_cli("gen-cloud", "--depth", str(tmp_path / "d.csv"), "--format", "csv",
                       "--intrinsics", str(tmp_path / "i.cfg"), "--out", str(tmp_path / "o.ply"))
        assert proc.returncode == 1
        assert f"stage={stage}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1

    def test_unwritable_output_names_export_stage(self, tmp_path, wedge_csv, fov_intrinsics):
        proc = run_cli("gen-cloud", "--depth", wedge_csv, "--format", "csv",
                       "--intrinsics", fov_intrinsics,
                       "--out", str(tmp_path / "no" / "such" / "dir.ply"))
        assert proc.returncode == 1
        assert "stage=export" in proc.stderr

    def test_missing_flags_exit_one(self):
        proc = run_cli("gen-cloud")
        assert proc.returncode == 1


_README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_gen_cloud_examples_run_as_shown(tmp_path, monkeypatch):
    """Each ``pseudo3d gen-cloud`` command in README's gen-cloud section, run
    on the files the section shows, prints exactly the block that follows it:
    a summary on stdout with exit 0, or one diagnostic on stderr with exit 1."""
    section = _README.read_text().split("### gen-cloud\n", 1)[1].split("\n### ", 1)[0]
    # a file is shown in full in the block after a line ending in `<name>`:
    for name, body in re.findall(r"`([\w.]+)`:\n\n```\n(.*?)```", section, re.DOTALL):
        (tmp_path / name).write_text(body)
    # ramp.pfm: ramp.csv's grid as write_pfm writes it, cut to its first 32 bytes
    write_pfm(str(tmp_path / "ramp.pfm"), read_csv(str(tmp_path / "ramp.csv")))
    with open(tmp_path / "ramp.pfm", "r+b") as fh:
        fh.truncate(32)
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"```(\w*)\n(.*?)```", section, re.DOTALL)
    examples = [(command, blocks[i + 1][1]) for i, (lang, command) in enumerate(blocks)
                if lang == "sh" and command.startswith("pseudo3d gen-cloud ")]
    assert len(examples) == 3, examples
    for command, shown in examples:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(shlex.split(command)[1:])
        expected = (1, "", shown) if shown.startswith("gen-cloud: ") else (0, shown, "")
        assert (code, stdout.getvalue(), stderr.getvalue()) == expected, command


def test_readme_verify_example_runs_as_shown():
    """README's ``pseudo3d verify --seed 7`` block shows the first lines and,
    after ``...``, the last lines of the report, exactly as they are printed."""
    section = _README.read_text().split("### verify\n", 1)[1].split("\n### ", 1)[0]
    command, shown = re.search(r"```sh\n(pseudo3d verify [^\n]*)\n```\n\n```\n(.*?)```",
                               section, re.DOTALL).groups()
    head, tail = shown.split("...\n")
    assert head.startswith("seed=7\nprop=affine ") and tail.startswith("prop=determinism ")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(shlex.split(command)[1:])
    report = stdout.getvalue()
    assert code == 0
    assert report.startswith(head), report
    assert report.endswith(tail), report


def test_gen_cloud_peak_memory_is_the_cloud_and_its_steps(tmp_path):
    """A 480x640 item holds the 7.4 MB cloud, the 4.9 MB continuity steps and
    one 1 MiB band at its peak (13.0 MiB measured); a whole-frame continuity
    diff and both depth grids kept to the end read 23.6 MiB."""
    depth, ply = str(tmp_path / "frame.pfm"), str(tmp_path / "frame.ply")
    write_pfm(depth, np.random.default_rng(4).uniform(0.5, 4.0, (480, 640)))
    cam = tmp_path / "cam.cfg"
    cam.write_text("fx = 500\nfy = 500\ncx = 319.5\ncy = 239.5\n")
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["gen-cloud", "--depth", depth, "--format", "pfm",
                             "--intrinsics", str(cam), "--out", ply])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 15 * 2**20, peak / 2**20


class TestParser:
    def test_fuse_bench_is_not_a_subcommand(self):
        proc = run_cli("fuse-bench", "--shape", "4x4x4")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: pseudo3d")
        assert "invalid choice" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestClosedStdout:
    # unbuffered, the write in the command fails; buffered, the flush after it
    @pytest.mark.parametrize("unbuffered", [True, False])
    @pytest.mark.parametrize("command", ["verify", "gen-cloud"])
    def test_exits_one_without_traceback(
        self, tmp_path, wedge_csv, fov_intrinsics, command, unbuffered
    ):
        argv = {
            "verify": ["verify", "--seed", "0", "--props", "files"],
            "gen-cloud": ["gen-cloud", "--depth", wedge_csv, "--format", "csv",
                          "--intrinsics", fov_intrinsics, "--out", str(tmp_path / "w.ply"),
                          "--json"],
        }[command]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to write_end now fails with EPIPE
        try:
            proc = subprocess.run([sys.executable, "-m", "pseudo3d", *argv], env=env,
                                  stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr


class TestVerify:
    def test_default_run_passes(self):
        proc = run_cli("verify", "--seed", "0")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.startswith("seed=0\n")
        assert proc.stdout.count("status=pass") == 9
        assert "summary total=9 passed=9 failed=0" in proc.stdout

    def test_props_filter_runs_single_property(self):
        proc = run_cli("verify", "--props", "gradcheck", "--seed", "0")
        assert proc.returncode == 0
        lines = [l for l in proc.stdout.splitlines() if l.startswith("prop=")]
        assert lines == [lines[0]]
        assert lines[0].startswith("prop=gradcheck status=pass")

    def test_props_accept_comma_separated_list(self):
        proc = run_cli("verify", "--props", "affine,scale", "--seed", "0")
        props = [l.split()[0] for l in proc.stdout.splitlines() if l.startswith("prop=")]
        assert props == ["prop=affine", "prop=scale"]

    def test_unknown_prop_is_input_error(self):
        proc = run_cli("verify", "--props", "entropy")
        assert proc.returncode == 1
        assert "unknown properties" in proc.stderr

    # used to run no property, print "summary total=0 passed=0 failed=0" and exit 0
    def test_empty_prop_selection_is_input_error(self):
        proc = run_cli("verify", "--props", ",")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("verify: stage=config: no property selected")

    def test_break_shift_fails_affine_only(self):
        proc = run_cli("verify", "--seed", "0", "--break-shift")
        assert proc.returncode == 2
        assert "prop=affine status=fail" in proc.stdout
        assert proc.stdout.count("status=fail") == 1

        plain = run_cli("verify", "--seed", "0")

        def other_props(stdout):
            return [l for l in stdout.splitlines()
                    if l.startswith("prop=") and not l.startswith("prop=affine ")]

        assert len(other_props(plain.stdout)) == 8
        assert other_props(proc.stdout) == other_props(plain.stdout)

    def test_reports_byte_identical_across_runs(self):
        a = run_cli("verify", "--seed", "33")
        b = run_cli("verify", "--seed", "33")
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0

    def test_json_mirror(self):
        proc = run_cli("verify", "--seed", "0", "--json")
        payload = json.loads(proc.stdout)
        assert payload["seed"] == 0
        assert payload["summary"]["failed"] == 0
        assert len(payload["properties"]) == 9

    def test_env_seed_used_when_flag_absent(self):
        env = {**os.environ, "PSEUDO3D_SEED": "5"}
        proc = run_cli("verify", "--props", "files", env=env)
        assert proc.stdout.startswith("seed=5\n")

    def test_seed_flag_overrides_env(self):
        env = {**os.environ, "PSEUDO3D_SEED": "5"}
        proc = run_cli("verify", "--props", "files", "--seed", "8", env=env)
        assert proc.stdout.startswith("seed=8\n")

    def test_garbage_env_seed_is_input_error(self):
        env = {**os.environ, "PSEUDO3D_SEED": "many"}
        proc = run_cli("verify", "--props", "files", env=env)
        assert proc.returncode == 1
        assert proc.stderr == "verify: stage=config: PSEUDO3D_SEED must be an integer, got 'many'\n"

    @pytest.mark.parametrize("flag, env_seed, message", [
        (["--seed", "-1"], None, "--seed must be a non-negative integer, got -1"),
        ([], "-1", "PSEUDO3D_SEED must be a non-negative integer, got '-1'"),
    ], ids=["flag", "env"])
    def test_negative_seed_names_its_source(self, flag, env_seed, message):
        env = {k: v for k, v in os.environ.items() if k != "PSEUDO3D_SEED"}
        if env_seed is not None:
            env["PSEUDO3D_SEED"] = env_seed
        proc = run_cli("verify", "--props", "files", *flag, env=env)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [f"verify: stage=config: {message}"]
