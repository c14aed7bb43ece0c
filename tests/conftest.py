"""Shared helpers for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

# pyproject.toml puts src/ on this process's path; the CLI tests' child
# processes inherit it through PYTHONPATH, so no install is needed
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def run_cli(*argv: str, env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    """Invoke the CLI as a real subprocess and capture everything."""
    return subprocess.run(
        [sys.executable, "-m", "pseudo3d", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture
def intrinsics_file(tmp_path):
    """Factory writing an intrinsics config file and returning its path."""

    def _write(text: str, name: str = "intrinsics.cfg") -> str:
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write
