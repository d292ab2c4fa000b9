"""CLI behavior: wiring, exit codes, determinism, JSON round trips.

Commands run in-process through main(argv) so the tests stay fast; the
console entry point uses the same function.
"""

import json
import time

import pytest

import equik.cli as cli
from equik.cli import main
from equik.reports import CONSTRUCTIONS, report_from_json_dict, validate


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


def test_model_with_huge_power_on_zero_ideal(capsys):
    code, out, _ = run(capsys, "model", "trunc:z1:1000000000000")
    assert code == 0
    assert out == (
        "model: trunc:z1:1000000000000\nring rank: 1\ngroup: Z\n"
        "max nonvanishing ideal power: 0\n"
    )


def test_model_with_huge_power_on_nonzero_ideal_fails_fast(capsys):
    # z2's ideal powers all have rank 1, so 10^12 of them need 10^12 - 1
    # products; the cap refuses that at the first power instead of
    # walking 200,000 levels of growing entries first.
    started = time.perf_counter()
    code, out, err = run(capsys, "model", "trunc:z2:1000000000000")
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert out == ""
    assert err == "error: ideal power product cap exceeded (200000 vectors)\n"


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
    assert "meta:" not in out
    assert "meta: command=rokhlin" in err


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
        monkeypatch.setattr(cli, "_parser_cache", (None, None))
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
