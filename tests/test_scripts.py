"""The scripts under scripts/ run to completion against the package in src/."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
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


def test_bench_layers_writes_its_schema(tmp_path):
    out = tmp_path / "bench.json"
    out.write_text('{"parent": []}')  # runs under other labels stay
    res = run_script("bench_layers.py", "--case", "3", "3", "--repeats", "3", "--out", str(out))
    assert res.returncode == 0, res.stderr
    runs = json.loads(out.read_text())
    assert list(runs) == ["parent", "change"]
    (rec,) = runs["change"]
    assert set(rec) == {"case", "layer", "ns_median", "repeats", "counters"}
    assert (rec["case"], rec["layer"]) == ("reduced_homology(3, 3)", "joins")
    assert type(rec["ns_median"]) is int and rec["ns_median"] > 0
    assert type(rec["repeats"]) is int and rec["repeats"] >= 3
    # 9 + 27 + 27 faces; the 19 unit pivots of del_2 and the 8 of del_1
    # clear the rows facing them
    assert rec["counters"] == {
        "rows": 63, "rows_eliminated": 36, "rows_cleared": 27, "nonzeros": 144
    }
