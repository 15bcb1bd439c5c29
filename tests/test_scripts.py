"""Smoke tests of the scripts under scripts/."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_check_label_digests_first_seeds():
    """The grid class column still matches the pinned label digests."""
    r = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "check_label_digests.py"), "2"],
        capture_output=True, text=True, check=False)
    assert r.returncode == 0, r.stdout + r.stderr
    assert "label digests match for 2 seeds" in r.stdout
