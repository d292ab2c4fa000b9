"""CLI behavior: wiring, exit codes, determinism, JSON round trips.

Commands run in-process through main(argv) so the tests stay fast; the
console entry point uses the same function.
"""

import argparse
import contextlib
import copy
import functools
import gc
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import equik.cli as cli
from equik.cli import main
from equik.intmat import load_matrix, matrix_from_json_dict
from equik.reports import CONSTRUCTIONS, report_from_json_dict, report_to_json_dict, validate
from test_reports import gallery_reports
from dense_algebra import det, mul
import cli_oracle

DATA = Path(__file__).parent / "data"
README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rokhlin_z2_text(capsys):
    code, out, err = run(capsys, "rokhlin", "z2", "2")
    assert code == 0
    assert out == "lower 2 (witness Z_2), upper 6 (join k=7)\n"
    assert err == ""


def test_rokhlin_circle_text(capsys):
    code, out, _ = run(capsys, "rokhlin", "circle", "3")
    assert code == 0
    assert out == "lower 3 (witness Z), upper 3 (join k=4)\n"


def test_join_ktheory_text(capsys):
    code, out, _ = run(capsys, "join", "ktheory", "3", "2")
    assert code == 0
    assert out == "K0 rank 1, K1 rank 4; oracle: consistent\n"


def test_join_ktheory_skips_oracle_when_large(capsys):
    code, out, _ = run(capsys, "join", "ktheory", "9", "6")
    assert code == 0
    assert out.endswith("oracle: skipped\n")


def test_join_homology_text(capsys):
    code, out, _ = run(capsys, "join", "homology", "3", "2")
    assert code == 0
    assert out == "H~0: 0\nH~1: Z^4\n"


def test_group_tensor_text(capsys):
    code, out, _ = run(capsys, "group", "tensor", "Z_4", "Z_6")
    assert code == 0
    assert out == "Z_2\n"


def test_rep_lambda_admits_the_orders_its_ring_did(capsys):
    # No ring is built, but the p^3 units cyclic_ring(p) charged still are:
    # 583^3 fits the budget and 585^3 does not (584 is even).
    code, out, _ = run(capsys, "rep", "lambda", "583")
    assert code == 0
    assert out.startswith("coefficients: -583 169653 ")
    code, out, err = run(capsys, "rep", "lambda", "585")
    assert (code, out) == (2, "")
    assert err == (
        "error: work budget exceeded: a rank-585 ring needs 200201625 units, over 200000000\n"
    )


def test_rep_lambda_text(capsys):
    code, out, _ = run(capsys, "rep", "lambda", "3")
    assert code == 0
    assert "coefficients: -3 3" in out
    assert "lambda^3 = -3*lambda^1 + 3*lambda^2" in out


def test_rep_ideal_powers(capsys):
    code, out, _ = run(capsys, "rep", "ideal-powers", "z3", "--max-power", "2")
    assert code == 0
    assert out == "I^0/I^1: Z\nI^1/I^2: Z_3\n"


def test_model_inspection(capsys):
    code, out, _ = run(capsys, "model", "trunc-z2:3")
    assert code == 0
    assert "group: Z ⊕ Z_4" in out
    assert "max nonvanishing ideal power: 2" in out


@pytest.mark.parametrize("side", ["left", "right"])
def test_model_nested_past_the_recursion_limit_exits_2(side, capsys):
    # 1000 tensor( levels: the budget would refuse the ring after about 9,
    # but parse and instantiate take a frame per level first
    text = "trunc-z2:1"
    for _ in range(1000):
        text = f"tensor({text},trunc-z2:1)" if side == "left" else f"tensor(trunc-z2:1,{text})"
    assert run(capsys, "model", text) == (2, "", "error: model descriptor nests too deeply\n")


def test_model_with_huge_power_on_zero_ideal(capsys):
    code, out, _ = run(capsys, "model", "trunc:z1:1000000000000")
    assert code == 0
    assert out == (
        "model: trunc:z1:1000000000000\nring rank: 1\ngroup: Z\n"
        "max nonvanishing ideal power: 0\n"
    )


def test_model_with_huge_power_on_nonzero_ideal_fails_fast(capsys):
    # z2's ideal powers all have rank 1, so after I^2 every one of the
    # 10^12 - 2 levels left costs at least the 32 units of that level;
    # the walk refuses there instead of walking levels of growing entries.
    started = time.perf_counter()
    code, out, err = run(capsys, "model", "trunc:z2:1000000000000")
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert out == ""
    assert err == (
        "error: work budget exceeded: the ideal power walk of a rank-2 ring needs "
        "31999999999968 units, over 200000000\n"
    )


def test_rep_ideal_powers_with_huge_max_power_fails_fast(capsys):
    # The command charges the levels it prints, 500 units each, before
    # any ideal power is formed.
    started = time.perf_counter()
    code, out, err = run(capsys, "rep", "ideal-powers", "z2", "--max-power", "1000000000")
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert out == ""
    assert err == (
        "error: work budget exceeded: 1000000000 printed levels needs 500000000000 "
        "units, over 200000000\n"
    )


def test_rep_ideal_powers_on_a_zero_ideal_with_huge_max_power_fails_fast(capsys):
    # z1's augmentation ideal is zero, so the walk charges nothing; the
    # printed levels past the first zero power are charged on their own.
    started = time.perf_counter()
    code, out, err = run(capsys, "rep", "ideal-powers", "z1", "--max-power", "1000000000")
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert out == ""
    assert err == (
        "error: work budget exceeded: 1000000000 printed levels needs 500000000000 "
        "units, over 200000000\n"
    )


def test_rep_ideal_powers_zero_tail(capsys):
    code, out, _ = run(capsys, "rep", "ideal-powers", "circle:2", "--max-power", "4")
    assert code == 0
    assert out == "I^0/I^1: Z\nI^1/I^2: Z\nI^2/I^3: 0\nI^3/I^4: 0\n"
    code, out, _ = run(capsys, "rep", "ideal-powers", "z1", "--max-power", "3", "--json")
    assert code == 0
    groups = [q["group"] for q in json.loads(out)["quotients"]]
    assert groups == [{"free_rank": "1", "torsion": []}] + [
        {"free_rank": "0", "torsion": []}
    ] * 2


def test_snf_blowup_matrix_has_small_transforms(capsys):
    # Classical pivoting gave this 11x9 matrix transform entries of about
    # 24k bits, too long to print as decimal strings.
    path = DATA / "snf_blowup.json"
    a = load_matrix(path)
    code, out, _ = run(capsys, "linalg", "snf", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    u, d, v = (matrix_from_json_dict(payload[key]) for key in ("U", "D", "V"))
    assert mul(mul(u, a), v) == d
    assert abs(det(u)) == abs(det(v)) == 1
    assert d.to_rows() == [[int(i == j) for j in range(9)] for i in range(11)]
    assert payload["invariant_factors"] == ["1"] * 9
    assert max(abs(e).bit_length() for e in u.entries + v.entries) <= 64
    code, out, _ = run(capsys, "linalg", "snf", str(path))
    assert code == 0
    assert out.splitlines()[0] == "invariant factors: " + " ".join(["1"] * 9)


def test_snf_text_of_the_readme_matrix(tmp_path, capsys):
    mfile = tmp_path / "matrix.json"
    mfile.write_text(json.dumps(
        {"rows": "2", "cols": "3", "entries": ["2", "4", "4", "6", "6", "12"]}
    ))
    code, out, _ = run(capsys, "linalg", "snf", str(mfile))
    assert code == 0
    assert out == "invariant factors: 2 6\nD:\n2 0 0\n0 6 0\n"


def test_determinism_byte_identical(capsys):
    _, first, _ = run(capsys, "rokhlin", "z6-collapse", "1")
    _, second, _ = run(capsys, "rokhlin", "z6-collapse", "1")
    assert first == second
    _, third, _ = run(capsys, "join", "homology", "2", "3")
    _, fourth, _ = run(capsys, "join", "homology", "2", "3")
    assert third == fourth


def test_exit_code_for_bad_input(capsys):
    code, out, err = run(capsys, "rokhlin", "product-z2", "2", "z2")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_exit_code_for_unsupported(capsys):
    code, _, err = run(capsys, "rep", "ring", "q8")
    assert code == 3
    assert "unsupported:" in err
    code, _, err = run(capsys, "rep", "lambda", "4")
    assert code == 3
    code, _, err = run(capsys, "rokhlin", "commutative", "so3", "2")
    assert code == 3


def test_linalg_commands(tmp_path, capsys):
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps(
        {"rows": "2", "cols": "2", "entries": ["2", "4", "6", "8"]}
    ))
    code, out, _ = run(capsys, "linalg", "snf", str(mfile))
    assert code == 0
    assert out.splitlines()[0] == "invariant factors: 2 4"
    code, out, _ = run(capsys, "linalg", "hnf", str(mfile), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == "2"
    assert payload["H"]["entries"] == ["2", "0", "0", "4"]


@pytest.mark.parametrize(
    "rows, transform",
    [
        ([[1, 2], [2, 4], [3, 6]], [[0, 2, -1], [1, 1, -1], [0, 3, -2]]),
        ([[2, 4, 4], [6, 6, 12], [8, 10, 16]], [[0, -1, 1], [0, -4, 3], [1, 1, -1]]),
    ],
)
def test_hnf_json_transform_is_canonical(tmp_path, capsys, rows, transform):
    # On a matrix with a left kernel, the transform is the right block of
    # the row Hermite form of [A | I]: its rows facing zero rows of H are
    # the Hermite basis of the kernel, and the others are reduced
    # against them.
    mfile = tmp_path / "m.json"
    m, n = len(rows), len(rows[0])
    entries = [str(e) for row in rows for e in row]
    mfile.write_text(json.dumps({"rows": str(m), "cols": str(n), "entries": entries}))
    code, out, _ = run(capsys, "linalg", "hnf", str(mfile), "--json")
    assert code == 0
    got = json.loads(out)["transform"]
    assert got["rows"] == got["cols"] == str(len(rows))
    assert got["entries"] == [str(e) for row in transform for e in row]


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "linalg", "snf", "/no/such/file.json")
    assert code == 2
    assert "error:" in err


def test_json_report_revalidates(tmp_path, capsys):
    code, out, _ = run(capsys, "rokhlin", "product-z2", "2", "z5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lower"] == "2"
    assert payload["upper"] == "6"
    assert validate(report_from_json_dict(payload))
    rfile = tmp_path / "report.json"
    rfile.write_text(out)
    code, out, _ = run(capsys, "validate", str(rfile))
    assert code == 0
    assert out == "valid\n"


def test_validate_flags_forged_file(tmp_path, capsys):
    code, out, _ = run(capsys, "rokhlin", "z2", "2", "--json")
    payload = json.loads(out)
    payload["lower"] = "5"
    for cert in payload["certificates"]:
        if cert["role"] == "lower":
            cert["power"] = "5"
    rfile = tmp_path / "forged.json"
    rfile.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "validate", str(rfile))
    assert code == 1
    assert out == "invalid\n"


def test_validate_bad_json_is_input_error(tmp_path, capsys):
    rfile = tmp_path / "broken.json"
    rfile.write_text("{not json")
    code, _, err = run(capsys, "validate", str(rfile))
    assert code == 2


def test_meta_goes_to_stderr(capsys):
    code, out, err = run(capsys, "rokhlin", "z2", "1", "--meta")
    assert code == 0
    assert (out, "") == run(capsys, "rokhlin", "z2", "1")[1:]
    assert err.endswith("\n") and err.count("\n") == 1  # one JSON line
    meta = json.loads(err)
    assert meta["command"] == "rokhlin"
    assert type(meta["elapsed_ns"]) is int and meta["elapsed_ns"] >= 0


def test_commutative_text(capsys):
    code, out, _ = run(capsys, "rokhlin", "commutative", "z2", "4")
    assert code == 0
    assert out == "dim 3, ind 4\n"


def test_finite_existence_text(capsys):
    code, out, _ = run(capsys, "rokhlin", "finite", "z5", "2")
    assert code == 0
    assert out.startswith("existence-only:")


def test_tensor_rule_cli(capsys):
    code, out, _ = run(capsys, "rokhlin", "tensor-rule", "sum", "1", "4", "2", "6")
    assert code == 0
    assert out == "lower 0, upper 10 (rule sum)\n"
    code, out, _ = run(
        capsys, "rokhlin", "tensor-rule", "min", "0", "infinity", "0", "0"
    )
    assert code == 0
    assert out == "lower 0, upper 0 (rule min)\n"
    code, _, err = run(capsys, "rokhlin", "tensor-rule", "absorb", "0", "4", "0", "1")
    assert code == 2


# (rule, l1, u1, l2, u2, the upper these inputs used to give): an input
# bound needs 0 <= lower <= upper.
INCOHERENT_RULE_INPUTS = (
    ("sum", "1", "3", "2", "-1", "2"),
    ("sum", "-1", "3", "2", "5", "8"),
    ("min", "4", "2", "0", "0", "0"),
)


@pytest.mark.parametrize("case", INCOHERENT_RULE_INPUTS, ids=" ".join)
def test_tensor_rule_rejects_incoherent_input_bounds(case, capsys):
    code, out, err = run(capsys, "rokhlin", "tensor-rule", *case[:5])
    assert (code, out) == (2, "")
    assert _one_line_error(err)


@pytest.mark.parametrize("case", INCOHERENT_RULE_INPUTS, ids=" ".join)
def test_validate_rejects_a_rule_report_with_incoherent_inputs(case, tmp_path, capsys):
    rule, l1, u1, l2, u2, upper = case
    # A coherent report edited into the one these inputs used to build.
    code, out, _ = run(capsys, "rokhlin", "tensor-rule", rule, "0", "7", "0", "9", "--json")
    assert code == 0
    doc = json.loads(out)
    doc["upper"] = upper
    doc["certificates"][0]["inputs"] = [
        {"lower": l1, "upper": u1},
        {"lower": l2, "upper": u2},
    ]
    rfile = tmp_path / "report.json"
    rfile.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(rfile))
    assert (code, out) == (1, "invalid\n")


@pytest.mark.parametrize(
    "argv", [("tensor", "Z_0", "Z_4"), ("tor", "Z_-4", "Z_4"), ("tensor", "Z_4", "Z^2 + Z_0")]
)
def test_group_literal_with_cyclic_order_below_one_exits_2(argv, capsys):
    code, out, err = run(capsys, "group", *argv)
    assert (code, out) == (2, "")
    assert _one_line_error(err)


def test_join_ktheory_with_huge_k_exits_2(capsys):
    # 3^10000 has 4772 digits: refused before the power is formed.
    code, out, err = run(capsys, "join", "ktheory", "4", "10000")
    assert (code, out) == (2, "")
    assert _one_line_error(err)


@pytest.mark.parametrize(
    "n,expected", [("2", "K0 rank 1, K1 rank 1"), ("1", "K0 rank 1, K1 rank 0")]
)
def test_join_ktheory_on_at_most_two_points_admits_any_k(n, expected, capsys):
    code, out, _ = run(capsys, "join", "ktheory", n, "1000000")
    assert (code, out) == (0, f"{expected}; oracle: skipped\n")


# A cyclic group tag is z<d> with d >= 1 in decimal, with no sign,
# space, underscore or leading zero.
NON_CANONICAL_CYCLIC_TAGS = ("z+3", "z 3", "z3_0", "z03")


@pytest.mark.parametrize("tag", NON_CANONICAL_CYCLIC_TAGS)
def test_commutative_with_a_non_canonical_cyclic_tag_exits_2(tag, capsys):
    code, out, err = run(capsys, "rokhlin", "commutative", tag, "2")
    assert (code, out) == (2, "")
    assert _one_line_error(err)


def test_trivial_group_has_index_one_only_at_one_copy(capsys):
    # Every action of the trivial group has dimension 0, and its k-fold
    # join is a simplex, of index 1: "dim k-1, ind k" is false for k >= 2.
    assert run(capsys, "rokhlin", "commutative", "z1", "1") == (0, "dim 0, ind 1\n", "")
    for k in ("2", "3", "7"):
        code, out, err = run(capsys, "rokhlin", "commutative", "z1", k)
        assert (code, out) == (2, "")
        assert _one_line_error(err) and "trivial group" in err


@pytest.mark.parametrize("tag", ["z1", "z1xz1", "z1xz1xz1"])
def test_finite_refuses_the_trivial_group(tag, capsys):
    # the dimension is 0, so "finite and exceeds n" is false
    code, out, err = run(capsys, "rokhlin", "finite", tag, "2")
    assert (code, out) == (2, "")
    assert _one_line_error(err) and "trivial group" in err


@pytest.mark.parametrize("tag", ["z2xz3", "z1xz1", "s1xz2", "z2xs1"])
def test_commutative_with_a_product_tag_is_unsupported(tag, capsys):
    code, out, err = run(capsys, "rokhlin", "commutative", tag, "2")
    assert (code, out) == (3, "")
    assert err.startswith("unsupported:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,group",
    [
        (("commutative", "z3", "3"), "z1"),
        (("finite", "z5", "2"), "z1"),
        (("finite", "z5", "2"), "z1xz1"),
    ],
)
def test_validate_rejects_a_trivial_group_report(argv, group, tmp_path, capsys):
    code, out, _ = run(capsys, "rokhlin", *argv, "--json")
    assert code == 0
    doc = json.loads(out.replace(f'"{argv[1]}"', f'"{group}"'))
    assert doc["parameters"]["group"] == group
    rfile = tmp_path / "report.json"
    rfile.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(rfile))
    assert (code, out) == (1, "invalid\n")
    assert "rejects them" in err and "trivial group" in err


@pytest.mark.parametrize("tag", NON_CANONICAL_CYCLIC_TAGS)
def test_validate_rejects_a_commutative_report_with_a_non_canonical_tag(
    tag, tmp_path, capsys
):
    code, out, _ = run(capsys, "rokhlin", "commutative", "z3", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    doc["parameters"]["group"] = tag
    for cert in doc["certificates"]:
        cert["group"] = tag
    rfile = tmp_path / "report.json"
    rfile.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(rfile))
    assert (code, out) == (1, "invalid\n")


RING_TAG_REQUESTS = {
    "rep ideal-powers": ("rep", "ideal-powers", "{}"),
    "rokhlin finite": ("rokhlin", "finite", "{}", "1"),
    "product-z2": ("rokhlin", "product-z2", "1", "{}"),
    "circle-product": ("rokhlin", "circle-product", "1", "{}"),
}


@pytest.mark.parametrize("tag", NON_CANONICAL_CYCLIC_TAGS + ("z3xz03",))
@pytest.mark.parametrize("request_name", sorted(RING_TAG_REQUESTS))
def test_ring_tag_with_a_non_canonical_cyclic_part_exits_2(request_name, tag, capsys):
    argv = [a.format(tag) for a in RING_TAG_REQUESTS[request_name]]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert _one_line_error(err)


# Tags are read exactly as written: an upper-case or space-padded tag no
# longer resolves to z3 but is an unknown ring, as any tag that does not
# start with z is.
@pytest.mark.parametrize("tag", ["Z3", " z3", "z3xZ3"])
@pytest.mark.parametrize("request_name", sorted(RING_TAG_REQUESTS))
def test_ring_tag_not_starting_with_z_exits_3(request_name, tag, capsys):
    argv = [a.format(tag) for a in RING_TAG_REQUESTS[request_name]]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("unsupported:") and err.count("\n") == 1


@pytest.mark.parametrize("order", ["+3", " 3", "03", "0", "3_0", "x", ""])
def test_non_canonical_circle_order_exits_2(order, capsys):
    code, out, err = run(capsys, "rep", "ring", f"circle:{order}")
    assert (code, out) == (2, "")
    assert _one_line_error(err)


@pytest.mark.parametrize("tag", NON_CANONICAL_CYCLIC_TAGS)
def test_validate_rejects_a_product_z2_report_with_a_non_canonical_tag(
    tag, tmp_path, capsys
):
    code, out, _ = run(capsys, "rokhlin", "product-z2", "1", "z3", "--json")
    assert code == 0
    doc = json.loads(out)
    doc["parameters"]["group"] = tag
    (cert,) = [c for c in doc["certificates"] if c["kind"] == "annihilator"]
    cert["ring"] = f"z2x{tag}"
    cert["model"]["right"]["ring"] = tag
    rfile = tmp_path / "report.json"
    rfile.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(rfile))
    assert (code, out) == (1, "invalid\n")


def test_circle_product_8_on_z3xz3_text(capsys):
    # The bytes printed when each ideal power was formed from products
    # with every Z-basis row of the augmentation ideal.
    code, out, err = run(capsys, "rokhlin", "circle-product", "8", "z3xz3")
    assert (code, out, err) == (0, "lower 8 (witness Z), upper 8 (rule absorb)\n", "")


def test_group_literal_of_order_one_is_trivial(capsys):
    code, out, _ = run(capsys, "group", "tensor", "Z_1", "Z_4")
    assert (code, out) == (0, "0\n")


def test_z6_collapse_text(capsys):
    code, out, _ = run(capsys, "rokhlin", "z6-collapse", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "factor 1: lower 2 (witness Z_2), upper 6 (join k=7)"
    assert lines[1] == "factor 2: lower 2 (witness Z_3), upper infinity"
    assert lines[2] == "product: lower 0, upper 0 (rule min)"
    assert lines[3].startswith("finding:")


def test_mv_delta_text(capsys):
    code, out, _ = run(capsys, "join", "mv-delta", "3", "4")
    assert code == 0
    assert out == "map shape: 7 x 12\nkernel rank: 1\ncokernel: Z^6\n"


SAMPLE_ARGUMENTS = {
    "z2": ("1",),
    "circle": ("2",),
    "product-z2": ("1", "z3"),
    "circle-product": ("1", "z2"),
    "z6-collapse": ("0",),
    "commutative": ("z3", "3"),
    "finite": ("z5", "1"),
    "tensor-rule": ("sum", "0", "infinity", "1", "2"),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_every_construction_built_by_the_cli_validates(name, tmp_path, capsys):
    command = CONSTRUCTIONS[name].command
    code, out, _ = run(capsys, "rokhlin", command, *SAMPLE_ARGUMENTS[command], "--json")
    assert code == 0
    assert json.loads(out)["construction"] == name
    rfile = tmp_path / "report.json"
    rfile.write_text(out)
    code, out, _ = run(capsys, "validate", str(rfile))
    assert (code, out) == (0, "valid\n")


def _cut_upper(doc):
    doc["upper"] = "2"
    next(c for c in doc["certificates"] if c["role"] == "upper")["copies"] = "3"


FORGED_FILES = {
    "upper-cut-with-matching-join-copies": (("z2", "2"), _cut_upper),
    "unknown-construction-name": (
        ("z2", "2"),
        lambda doc: doc.update(construction="z7-af"),
    ),
    "existence-only-with-rejected-parameters": (
        ("finite", "z5", "2"),
        lambda doc: doc.update(parameters={"group": "q9", "n": "-7"}),
    ),
    "collapse-factor-parameter-edited": (
        ("z6-collapse", "1"),
        lambda doc: doc["factors"][0]["parameters"].update(m="99"),
    ),
    "weakened-lower-bound-is-not-what-the-construction-builds": (
        ("z2", "2"),
        lambda doc: doc.update(lower="1"),
    ),
}


@pytest.mark.parametrize("name", sorted(FORGED_FILES))
def test_validate_rejects_report_its_construction_does_not_build(name, tmp_path, capsys):
    argv, change = FORGED_FILES[name]
    _, out, _ = run(capsys, "rokhlin", *argv, "--json")
    doc = json.loads(out)
    change(doc)
    rfile = tmp_path / "forged.json"
    rfile.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(rfile))
    assert (code, out) == (1, "invalid\n")


def _one_line_error(err):
    return err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "change",
    [
        lambda doc: doc.update(lower="abc"),
        lambda doc: next(
            c for c in doc["certificates"] if c["role"] == "lower"
        ).pop("power"),
        lambda doc: doc.update(certificates=5),
    ],
    ids=["bad-integer", "lower-certificate-without-power", "certificates-not-a-list"],
)
def test_malformed_report_file_exits_2(change, tmp_path, capsys):
    _, out, _ = run(capsys, "rokhlin", "z2", "2", "--json")
    doc = json.loads(out)
    change(doc)
    rfile = tmp_path / "malformed.json"
    rfile.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(rfile))
    assert code == 2
    assert out == ""
    assert _one_line_error(err)


def _lower(doc):
    return next(c for c in doc["certificates"] if c["role"] == "lower")


def _upper(doc):
    return next(c for c in doc["certificates"] if c["role"] == "upper")


# Integers that int() reads but that are not canonical decimal text, one
# per field of the z2 report for m=2.
NON_CANONICAL_INTEGERS = {
    "lower": (lambda doc: doc.update(lower="+2"), "report.lower"),
    "upper": (lambda doc: doc.update(upper=" 6"), "report.upper"),
    "witness-power": (
        lambda doc: _lower(doc).update(power="0_2"),
        "report.certificates[0].power",
    ),
    "torsion": (
        lambda doc: _lower(doc)["nonzero_group"].update(torsion=["+2"]),
        "report.certificates[0].nonzero_group.torsion[0]",
    ),
    "copies": (
        lambda doc: _upper(doc).update(copies="7 "),
        "report.certificates[1].copies",
    ),
}


@pytest.mark.parametrize("field", sorted(NON_CANONICAL_INTEGERS))
def test_non_canonical_integer_in_report_file_exits_2(field, tmp_path, capsys):
    change, path = NON_CANONICAL_INTEGERS[field]
    _, out, _ = run(capsys, "rokhlin", "z2", "2", "--json")
    doc = json.loads(out)
    change(doc)
    rfile = tmp_path / "forged.json"
    rfile.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(rfile))
    assert (code, out) == (2, "")
    assert _one_line_error(err)
    assert err.startswith(f"error: {path}: ")


def test_extra_key_in_report_file_is_invalid_and_named(tmp_path, capsys):
    _, out, _ = run(capsys, "rokhlin", "z2", "2", "--json")
    doc = json.loads(out)
    doc["verified_by"] = "someone"
    rfile = tmp_path / "forged.json"
    rfile.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(rfile))
    assert (code, out) == (1, "invalid\n")
    assert err == "invalid: report: unexpected key 'verified_by'\n"
    code, out, err = run(capsys, "validate", str(rfile), "--json")
    assert (code, json.loads(out)) == (1, {"valid": False})
    assert err == "invalid: report: unexpected key 'verified_by'\n"


def test_validate_names_the_first_difference_on_stderr(tmp_path, capsys):
    _, out, _ = run(capsys, "rokhlin", "z2", "2", "--json")
    doc = json.loads(out)
    _upper(doc)["copies"] = "3"
    rfile = tmp_path / "forged.json"
    rfile.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(rfile))
    assert (code, out) == (1, "invalid\n")
    assert err == "invalid: report.certificates[1].copies: expected '7', found '3'\n"


@functools.cache
def _gallery_trees():
    """The JSON tree of every report scripts/bounds_gallery.py builds."""
    return [report_to_json_dict(report) for _, report in gallery_reports()]


def _slots(node):
    """(container, key, value) for every node below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield node, key, value
        if isinstance(value, (dict, list)):
            yield from _slots(value)


# Small replacement leaves: integers stay small so a rebuild stays cheap.
LEAVES = st.one_of(
    st.integers(-1, 9).map(str),
    st.sampled_from(["+2", " 6", "0_2", "7 ", "03", "infinity", "inf", ""]),
    st.text("abxz-:\n", max_size=3),
)
OTHER_TYPES = (None, True, 3, 2.5, "x", [], {})


@st.composite
def mutated_reports(draw):
    """A gallery tree and a copy with one leaf changed, one key dropped,
    one key added or one node's JSON type changed."""
    tree = draw(st.sampled_from(_gallery_trees()))
    doc = copy.deepcopy(tree)
    slots = list(_slots(doc))
    edit = draw(st.sampled_from(["leaf", "drop", "add", "type"]))
    if edit == "leaf":
        container, key, _ = draw(st.sampled_from([s for s in slots if isinstance(s[2], str)]))
        container[key] = draw(LEAVES)
    elif edit == "drop":
        container, key, _ = draw(st.sampled_from([s for s in slots if isinstance(s[0], dict)]))
        del container[key]
    elif edit == "add":
        objects = [doc] + [s[2] for s in slots if isinstance(s[2], dict)]
        node = draw(st.sampled_from(objects))
        node[draw(st.text("abxz-\n", min_size=1, max_size=3).filter(lambda k: k not in node))] = (
            draw(LEAVES)
        )
    else:
        container, key, value = draw(st.sampled_from([(None, None, doc)] + slots))
        other = draw(st.sampled_from([v for v in OTHER_TYPES if type(v) is not type(value)]))
        if container is None:
            doc = other
        else:
            container[key] = other
    return tree, doc


@pytest.fixture(scope="module")
def mutation_file(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations") / "report.json"


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=mutated_reports())
def test_validate_rejects_every_mutated_gallery_report(case, mutation_file):
    tree, doc = case
    mutation_file.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["validate", str(mutation_file)])
    if doc == tree:
        assert (code, out.getvalue(), err.getvalue()) == (0, "valid\n", "")
        return
    assert code in (1, 2)
    assert out.getvalue() == ("invalid\n" if code == 1 else "")
    err = err.getvalue()
    assert err.startswith("invalid: " if code == 1 else "error: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_report_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    rfile = tmp_path / "latin1.json"
    rfile.write_bytes(b'{"construction": "\xff"}')
    code, out, err = run(capsys, "validate", str(rfile))
    assert code == 2
    assert out == ""
    assert _one_line_error(err)


def test_non_decimal_upper_argument_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rokhlin", "tensor-rule", "sum", "0", "abc", "0", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument u1" in err and "Traceback" not in err


@pytest.mark.parametrize("text", ["+5", "abc"])
def test_malformed_upper_bound_names_its_public_parser(text, capsys):
    code, out, err = _request(capsys, ("rokhlin", "tensor-rule", "sum", "1", "3", "2", text))
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        f"equik rokhlin tensor-rule: error: argument u2: invalid upper_bound value: '{text}'"
    )


def test_non_decimal_circle_ring_order_exits_2(capsys):
    code, out, err = run(capsys, "rep", "ring", "circle:x")
    assert code == 2
    assert out == ""
    assert _one_line_error(err)


@pytest.mark.parametrize(
    "argv", [("linalg", "snf"), ("rep", "ring")], ids=["matrix", "fusion"]
)
def test_input_file_that_is_not_utf8_exits_2(argv, tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert _one_line_error(err)
    assert err.startswith("error: cannot parse")


PARSER_REQUESTS = (
    ("join", "homology", "2", "3"),
    ("rep", "-h"),
    ("join", "homology", "2"),  # argparse error: missing k
)


def _request(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # -h and argparse errors exit from parse_args
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_prints_what_a_fresh_one_prints(monkeypatch, capsys):
    fresh = []
    for argv in PARSER_REQUESTS:
        cli._parser.cache_clear()
        fresh.append(_request(capsys, argv))
    assert [code for code, _, _ in fresh] == [0, 0, 2]
    assert fresh[2][2].startswith("usage: equik join homology")
    builds = []
    real_build = cli.build_parser

    def counting_build():
        builds.append(1)
        return real_build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    again = [_request(capsys, argv) for _ in range(3) for argv in PARSER_REQUESTS]
    assert again == fresh * 3
    assert len(builds) == 1


# What every parser's --help printed before the subcommands were built
# from one table, at 80 columns.
HELP = json.loads((DATA / "help.json").read_text(encoding="utf-8"))


def test_help_covers_every_parser():
    names = [" ".join(filter(None, (group, name))) for group, name, *_ in cli.COMMANDS]
    assert sorted(HELP) == sorted(["", *cli.GROUPS, *names])
    assert len(HELP) == 27


@pytest.mark.parametrize("command", sorted(HELP), ids=lambda c: c or "equik")
def test_help_text_is_byte_identical(command, monkeypatch, capsys):
    if command == "rokhlin" and sys.version_info >= (3, 13):
        pytest.skip("argparse 3.13 wraps this usage line differently")
    monkeypatch.setenv("COLUMNS", "80")
    assert _request(capsys, [*command.split(), "--help"]) == (0, HELP[command], "")


# Numbers that int() or a strip read before, now refused by errors.decimal.
NON_CANONICAL_ARGUMENTS = (
    ("group", "tensor", "Z^1_0", "Z_4"),  # ten copies of Z_4 before
    ("group", "tensor", "Z^ 2", "Z_4"),
    ("group", "tensor", "Z_{{4", "Z_4"),
    ("group", "tensor", "Z_٣", "Z_4"),
    ("rokhlin", "z2", "٢"),
    ("rokhlin", "tensor-rule", "sum", "1", "3", "2", "+5"),
    ("rokhlin", "tensor-rule", "sum", "1", "3", "2", "inf"),
    ("join", "homology", "2", "03"),
    ("rep", "ideal-powers", "z2", "--max-power", "0_2"),
)


@pytest.mark.parametrize("argv", NON_CANONICAL_ARGUMENTS, ids=" ".join)
def test_non_canonical_number_argument_exits_2(argv, capsys):
    code, out, err = _request(capsys, argv)
    assert (code, out) == (2, "")
    assert err.strip().count("\n") <= 2 and "Traceback" not in err


def readme_transcripts():
    """(command, expected lines) for each "$ equik" line of the README;
    the expected lines run up to the next blank line or fence."""
    lines = README.read_text(encoding="utf-8").splitlines()
    out = []
    for i, line in enumerate(lines):
        if line.startswith("$ equik "):
            expected = []
            for follow in lines[i + 1 :]:
                if not follow or follow.startswith("```"):
                    break
                expected.append(follow)
            out.append((line[len("$ equik ") :], expected))
    return out


TRANSCRIPTS = readme_transcripts()


def test_readme_transcripts_are_found():
    assert len(TRANSCRIPTS) >= 12


@pytest.mark.parametrize("command,expected", TRANSCRIPTS, ids=[c for c, _ in TRANSCRIPTS])
def test_readme_transcript(command, expected, tmp_path, monkeypatch, capsys):
    # matrix.json is the example of the README's File formats section;
    # report.json is what rokhlin z2 2 --json writes.
    monkeypatch.chdir(tmp_path)
    text = README.read_text(encoding="utf-8")
    example = text.split("Integer matrices are JSON", 1)[1].split("```json\n", 1)[1]
    Path("matrix.json").write_text(example.split("```", 1)[0], encoding="utf-8")
    assert main(["rokhlin", "z2", "2", "--json"]) == 0
    Path("report.json").write_text(capsys.readouterr().out, encoding="utf-8")
    code, out, err = run(capsys, *shlex.split(command))
    if expected[0].startswith("error:"):
        # the lines after the message are the README's note on it
        assert (code, out, err) == (2, "", expected[0] + "\n")
    else:
        assert (code, out, err) == (0, "\n".join(expected) + "\n", "")


# main reads a well-formed request straight from its subcommand parser's
# actions; cli_oracle's nested parse of the whole tree, with json.dumps
# output, is the oracle.


@pytest.fixture
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def test_dispatch_corpus_covers_every_command():
    names = [" ".join(filter(None, (group, name))) for group, name, *_ in cli.COMMANDS]
    assert list(cli_oracle.VALID) == names
    with cli_oracle.workdir():
        codes = [cli_oracle.outcome(main, [*words.split(), *args])[0]
                 for words, args in cli_oracle.VALID.items()]
    assert codes == [0] * len(names)


def test_dispatch_matches_the_nested_parse_on_the_corpus(columns):
    with cli_oracle.workdir():
        assert cli_oracle.differences(cli_oracle.CORPUS) == []


_INSERTED = st.one_of(
    st.sampled_from([["--json"], ["--meta"], ["--max-power", "2"]]),
    st.sampled_from(cli_oracle.TOKENS).map(lambda word: [word]),
)


@st.composite
def edited_argv(draw):
    """A corpus argv with a few corpus words deleted, or corpus words,
    --json, --meta or --max-power 2 inserted, at any position."""
    argv = list(draw(st.sampled_from(cli_oracle.CORPUS)))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(argv)))
        if argv and at < len(argv) and draw(st.booleans()):
            del argv[at]
        else:
            argv[at:at] = draw(_INSERTED)
    return argv


@settings(max_examples=150, deadline=None)
@given(st.one_of(edited_argv(), st.lists(st.sampled_from(cli_oracle.TOKENS), max_size=6)))
def test_dispatch_matches_the_nested_parse_on_drawn_argv(argv):
    with cli_oracle.workdir():
        assert cli_oracle.differences([argv]) == []


def test_dispatch_reads_each_request_with_one_parser(monkeypatch, capsys):
    calls = []
    real = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        calls.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    # a well-formed request is read from its subcommand parser's actions,
    # with no parse
    for argv, progs in (
        (["rokhlin", "product-z2", "2", "z3", "--json"], []),
        (["model", "trunc-z2:3"], []),
        (["rep", "ideal-powers", "--max-power", "2", "z3", "--meta"], []),
        # leftover words: the nested parse prints the usage error
        (["rokhlin", "z2", "2", "3"], ["equik", "equik rokhlin", "equik rokhlin z2"]),
    ):
        calls.clear()
        _request(capsys, argv)
        assert calls == progs


_text = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\n\t\x00\x1f\x7f\u2028\ufeff')))
_json_trees = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _text),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.lists(_text, max_size=4),
        st.dictionaries(_text, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_json_trees)
def test_json_writer_matches_json_dumps(tree):
    assert cli._json_text(tree) == json.dumps(tree, indent=2)


def test_json_writer_matches_json_dumps_on_every_gallery_report():
    for _, report in gallery_reports():
        tree = report_to_json_dict(report)
        assert cli._json_text(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize("command", [c for c, e in TRANSCRIPTS if not e[0].startswith("error:")])
def test_json_writer_matches_json_dumps_on_every_readme_example(command):
    with cli_oracle.workdir():
        code, out, err = cli_oracle.outcome(main, [*shlex.split(command), "--json"])
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_json_requests_leave_no_cyclic_garbage():
    # json.dumps(indent=2) left about 33 objects in cycles per call
    argv = ["rokhlin", "z2", "2", "--json"]
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)  # builds the parser
        gc.disable()
        try:
            gc.collect()
            for _ in range(10):
                main(argv)
            garbage = gc.collect()
        finally:
            gc.enable()
    assert garbage == 0


# Run as `python -I -m equik.cli` does: -I ignores PYTHONPATH, so the
# runner puts src/ on sys.path itself and runs equik.cli as __main__.
FRESH_RUNNER = (
    "import runpy, sys; sys.path.insert(0, sys.argv.pop(1)); "
    "runpy.run_module('equik.cli', run_name='__main__', alter_sys=True)"
)
SRC = str(Path(cli.__file__).resolve().parent.parent)


def _fresh_argvs():
    readme = [shlex.split(command) for command, _ in TRANSCRIPTS]
    json_examples = [[*argv, "--json"] for argv, (_, expected) in zip(readme, TRANSCRIPTS)
                     if not expected[0].startswith("error:")]
    return [*readme, *json_examples, ["rokhlin", "--help"], ["rokhlin", "z2"]]


@pytest.mark.parametrize("argv", _fresh_argvs(), ids=" ".join)
def test_fresh_process_prints_what_main_prints(argv, columns):
    with cli_oracle.workdir() as tmp:
        expected = cli_oracle.outcome(main, argv)
        res = subprocess.run(
            [sys.executable, "-I", "-c", FRESH_RUNNER, SRC, *argv],
            cwd=tmp, capture_output=True, timeout=60, env={**os.environ, "COLUMNS": "80"},
        )
    assert (res.returncode, res.stdout.decode(), res.stderr.decode()) == expected
