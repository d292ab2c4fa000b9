"""The scripts under scripts/ run to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_bounds_gallery_validates_every_report():
    res = run_script("bounds_gallery.py")
    assert res.returncode == 0, res.stderr
    verdicts = [line.split()[1] for line in res.stdout.splitlines()]
    assert verdicts
    assert set(verdicts) == {"valid"}


@pytest.mark.parametrize("name", ["filtration_survey.py", "join_survey.py"])
def test_survey_script_runs(name):
    res = run_script(name)
    assert res.returncode == 0, res.stderr
    assert res.stdout
    assert res.stderr == ""
    assert "MISMATCH" not in res.stdout  # join_survey's verdict on a failed check
