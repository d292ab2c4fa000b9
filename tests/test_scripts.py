"""The scripts under scripts/, and the benchmark's self-check, run to
completion against the package in src/."""

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


def test_perfbench_selfcheck_passes():
    # The tracer patches names in src/ by string, so deleting one it
    # patches or reaches fails here.
    res = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.splitlines()[-1].endswith(", 0 failures")


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
    module = "instantiate(tensor(trunc:z3:3,trunc:z2:1))"
    report = "circle_product_dimension(2, z3)"
    kunneth = "kunneth_pieces(circle:9, trunc:z3xz3:3)"
    truncation = "truncated_ring_module(circle_truncation(292), 292)"
    quotients = "lattice_quotient(ideal_powers(z2xz3xz5), 0-2)"
    image = "ideal_image(ideal_power(R, 3), tensor(circle:9,trunc:z3xz3:3))"
    grouped = "cli(rokhlin product-z2 2 z3xz3 --json)"
    snf = "cli(linalg snf seeded-8x8.json --json)"
    top = "cli(validate report.json)"
    refused = "cli(rep ideal-powers z2 --max-power 1000000000)"
    res = run_script(
        "bench_layers.py",
        "--case", "reduced_homology(3, 3)",
        "--case", "boundary_matrices(3, 3)",
        "--case", "check_boundaries(3, 3)",
        "--case", module,
        "--case", report,
        "--case", "regular_class_check(z3xz3)",
        "--case", kunneth,
        "--case", truncation,
        "--case", quotients,
        "--case", image,
        "--case", grouped,
        "--case", snf,
        "--case", top,
        "--case", refused,
        "--repeats", "3",
        "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    runs = json.loads(out.read_text())
    assert list(runs) == ["parent", "change"]
    (homology, boundaries, check, instantiate, built, regular, tensor, truncated, quotient,
     imaged, grouped_cli, snf_cli, top_cli, refused_cli) = runs["change"]
    for rec in runs["change"]:
        assert set(rec) == {"case", "layer", "ns_median", "ns_q1", "ns_q3", "repeats", "counters"}
        assert all(type(rec[k]) is int for k in ("ns_median", "ns_q1", "ns_q3"))
        assert 0 < rec["ns_q1"] <= rec["ns_median"] <= rec["ns_q3"]
        assert type(rec["repeats"]) is int and rec["repeats"] >= 3
    assert (homology["case"], homology["layer"]) == ("reduced_homology(3, 3)", "joins")
    # 9 + 27 + 27 faces; the 19 unit pivots of del_2 and the 8 of del_1
    # clear the rows facing them
    assert homology["counters"] == {
        "rows": 63, "rows_eliminated": 36, "rows_cleared": 27, "nonzeros": 144
    }
    assert (boundaries["case"], boundaries["layer"]) == ("boundary_matrices(3, 3)", "joins")
    # 27 edges of 2 vertices and 27 triangles of 3
    assert boundaries["counters"] == {"rows": 54, "nonzeros": 135}
    assert (check["case"], check["layer"]) == ("check_boundaries(3, 3)", "joins")
    # each edge meets the augmentation at 2 vertices of 1 entry, each
    # triangle its 3 edges of 2 entries: 27 * 2 + 27 * 6
    assert check["counters"] == {"rows_checked": 54, "multiply_adds": 216}
    assert (instantiate["case"], instantiate["layer"]) == (module, "kmodules")
    # z3 x z2 is generated by the indices of chi x 1 and 1 x chi, and the
    # module has the 3 x 2 generators of the two truncations
    assert instantiate["counters"] == {"rank": 6, "generators": 2, "module_generators": 6}
    assert (built["case"], built["layer"]) == (report, "reports")
    # the circle:3 and trunc:z3:1 modules, the left factor's I(circle:3)^2
    # and the stability check's full I^2 over the rank-9 product ring
    assert built["counters"] == {"walks": 4, "max_walk_rank": 9}
    assert (regular["case"], regular["layer"]) == ("regular_class_check(z3xz3)", "fusion")
    # the 8 rows of the augmentation ideal, times each of the 2 generators
    # in its closure check and times the regular class
    assert regular["counters"] == {"products": 24}
    assert (tensor["case"], tensor["layer"]) == (kunneth, "kmodules")
    # circle:9 x z3xz3 is generated by lam x 1, 1 x (chi, 1) and 1 x (1, chi)
    assert tensor["counters"] == {"rank": 81, "generators": 3, "module_generators": 81}
    assert (truncated["case"], truncated["layer"]) == (truncation, "kmodules")
    assert truncated["counters"] == {"rank": 292, "generators": 1, "module_generators": 292}
    assert (quotient["case"], quotient["layer"]) == (quotients, "fusion")
    # I^0, I^1 and I^2 of the rank-30 ring
    assert quotient["counters"] == {"levels": 3, "max_level_rank": 30}
    assert (imaged["case"], imaged["layer"]) == (image, "kmodules")
    assert imaged["counters"] == {
        "rank": 81, "generators": 3, "module_generators": 81, "ideal_rank": 78
    }
    # one parser reads each request; the refused one is a README example
    # whose error goes to stderr
    assert (grouped_cli["case"], grouped_cli["layer"]) == (grouped, "cli")
    assert grouped_cli["counters"] == {"parse_known_args": 1, "bytes_written": 1816, "exit_code": 0}
    assert snf_cli["counters"]["parse_known_args"] == 1
    assert snf_cli["counters"]["exit_code"] == 0
    assert top_cli["counters"] == {"parse_known_args": 1, "bytes_written": 6, "exit_code": 0}
    assert refused_cli["counters"] == {"parse_known_args": 1, "bytes_written": 96, "exit_code": 2}


def test_bench_layers_alternates_rounds_of_two_trees(tmp_path):
    # this tree stands in for the parent checkout
    out = tmp_path / "bench.json"
    res = run_script(
        "bench_layers.py", "--parent", str(ROOT), "--rounds", "3", "--case", "reduced_homology(3, 3)",
        "--repeats", "3", "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    runs = json.loads(out.read_text())
    assert list(runs) == ["parent-1", "change-1", "change-2", "parent-2", "parent-3", "change-3"]
    assert all([rec["case"] for rec in run] == ["reduced_homology(3, 3)"] for run in runs.values())
    res = run_script("bench_layers.py", "--rounds", "2", "--out", str(out))
    assert res.returncode == 2
    assert "only with --parent" in res.stderr


def test_bench_layers_times_the_import_in_fresh_interpreters(tmp_path):
    out = tmp_path / "bench.json"
    res = run_script(
        "bench_layers.py", "--case", "import(equik, equik.cli)", "--repeats", "3", "--out", str(out)
    )
    assert res.returncode == 0, res.stderr
    (record,) = json.loads(out.read_text())["change"]
    assert set(record) == {
        "case", "layer", "ns_median", "ns_q1", "ns_q3", "repeats", "counters", "self_us"
    }
    assert (record["case"], record["layer"]) == ("import(equik, equik.cli)", "import")
    assert record["repeats"] == 11  # at least 11 interpreters, whatever --repeats says
    assert 0 < record["ns_q1"] <= record["ns_median"] <= record["ns_q3"]
    # the package, its eight submodules, and the stdlib modules they need
    assert record["counters"]["modules_loaded"] > 9
    package = {f"equik.{p.stem}" for p in (ROOT / "src" / "equik").glob("*.py")} - {"equik.__init__"}
    assert set(record["self_us"]) == package | {"equik"}
    assert all(type(us) is int and us >= 0 for us in record["self_us"].values())
