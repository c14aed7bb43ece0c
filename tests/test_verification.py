"""The ``verify`` report bytes, pinned.

A report is a function of its seed alone, and a refactor of the checks must
not move a byte of it.  These digests assume the numpy and BLAS they were
taken with, as ``GOLDEN_SHA256`` in ``test_fusion.py`` does.
"""

import hashlib

import numpy as np
import pytest

from pseudo3d import verification
from pseudo3d.verification import ALL_PROPS, render_report, render_report_json, run_properties

# seed, break_shift -> sha256 of the text report, of the JSON report
REPORT_SHA256 = {
    (0, False): ("7dc3f3d108d244aff5ef8022e419c81db61df9bc3df901aa5a24c76f3738a8bf",
                 "8e9b14e222a6c77e84259ea6e56c06decd147b2bfc77bc2436ef3b166a00b70d"),
    (1, False): ("5c404d00b80188da245f3bdcf84a3b74dd697180d5f828fe65c74ccc6b08ad3c",
                 "1c8509ca8c80d9dfc8626dd9abfef02137723323686bb7085db67ce87d223bc1"),
    (7, False): ("c9d7b797306c77877b568b44d14ad25ccef895a35a4950b7baf9ff8c6474a677",
                 "668325bd1341573eefeed3a2424585d9e3af7d5f25f8ad1504226b3a4f77fb0b"),
    (11, False): ("77903ab76d4ef9fe372fce2620c6a59bb9910ec91f626f6fc1c4419a6f627f40",
                  "5ec7579f83ea8f023c6f6bfb4613c10038a8d967a8bcca5bb54df0cebe1c92a9"),
    (33, False): ("326830af7674d7b6896548003411fe7c919ba35b81dbb4131b18d012a70a974d",
                  "5afa308e261d94ec45d4e99f3b2d6bf26a004d707d67d85d4662c9c667134e7d"),
    (0, True): ("a2d272a3692d1088987623e47094b6eaaf6376638bf51be0c90bb149bbb2dbd4",
                "382779bd934a284470914bd1d3a6c123f08591dafa2bc166449963a1a1fb424b"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("seed, break_shift", list(REPORT_SHA256),
                         ids=[f"seed{s}{'-break-shift' if b else ''}" for s, b in REPORT_SHA256])
def test_report_bytes_are_pinned(seed, break_shift):
    results = run_properties(ALL_PROPS, seed, break_shift=break_shift)
    assert (_sha256(render_report(results, seed)),
            _sha256(render_report_json(results, seed))) == REPORT_SHA256[seed, break_shift]


def test_properties_run_in_report_order():
    assert ALL_PROPS == ("affine", "shift", "roundtrip", "scale", "gradcheck",
                         "fusion", "loss", "files", "determinism")
    assert [r.name for r in run_properties(["files", "affine"], 0)] == ["affine", "files"]


# Python's max(0.0, nan) is 0.0: both checks passed with max_dev=0.000000e+00
def test_roundtrip_fails_on_nan_points(monkeypatch):
    backproject = verification.backproject

    def nan_x(depth, intr):
        points = backproject(depth, intr)
        points[..., 0] = np.nan
        return points

    monkeypatch.setattr(verification, "backproject", nan_x)
    result = verification.check_roundtrip(0)
    assert not result.passed
    assert dict(result.details)["max_dev"] == "nan"


def test_affine_fails_on_nan_normalize(monkeypatch):
    monkeypatch.setattr(verification, "normalize", lambda d: np.full(np.shape(d), np.nan))
    result = verification.check_affine(0)
    assert not result.passed
    assert dict(result.details)["max_dev"] == "nan"
