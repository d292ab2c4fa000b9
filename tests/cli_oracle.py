"""The CLI's nested argparse route, kept as the oracle of cli.main.

oracle_main(argv) reads argv with build_parser().parse_args, as main did
before it read a subcommand's words straight from that subcommand
parser's actions, and prints --json output with json.dumps(payload,
indent=2).  CORPUS is a fixed set of 98 requests: every COMMANDS row with
valid arguments, help at each level, flags between and around
positionals, and argv that argparse refuses or reads in unusual ways.

Run as a script, with the package on the path, it compares the two
routes on the corpus and exits 1 on any difference; it needs neither
pytest nor hypothesis:

    PYTHONPATH=src python3 tests/cli_oracle.py
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile

from equik import cli
from equik.errors import EquikError, UnsupportedError

MATRIX = '{"rows": "2", "cols": "3", "entries": ["2", "4", "4", "6", "6", "12"]}'

# Valid arguments of each COMMANDS row, keyed by its words.
VALID = {
    "linalg snf": ["matrix.json"],
    "linalg hnf": ["matrix.json"],
    "group tensor": ["Z_4", "Z_6"],
    "group tor": ["Z^2+Z_4", "Z_6"],
    "rep ring": ["z2xz3"],
    "rep ideal-powers": ["z3", "--max-power", "2"],
    "rep lambda": ["5"],
    "rep regular": ["z3xz3"],
    "join ktheory": ["3", "2"],
    "join homology": ["3", "2"],
    "join mv-delta": ["3", "4"],
    "rokhlin z2": ["2"],
    "rokhlin circle": ["3"],
    "rokhlin product-z2": ["2", "z3xz3"],
    "rokhlin circle-product": ["2", "z3"],
    "rokhlin z6-collapse": ["1"],
    "rokhlin commutative": ["z2", "4"],
    "rokhlin finite": ["z5", "2"],
    "rokhlin tensor-rule": ["min", "0", "infinity", "0", "0"],
    "model": ["trunc-z2:3"],
    "validate": ["report.json"],
}

CORPUS = (
    *([*words.split(), *args] for words, args in VALID.items()),
    *([*words.split(), *args, "--json"] for words, args in VALID.items()),
    ["rokhlin", "z2", "2", "--meta"],
    ["--json", "model", "trunc-z2:3", "--meta"],
    # flags before and between positionals, repeated, and together
    ["rokhlin", "product-z2", "--json", "2", "z3xz3"],
    ["rep", "ideal-powers", "--max-power", "2", "z3"],
    ["rokhlin", "z2", "2", "--json", "--json"],
    ["rep", "ideal-powers", "z3", "--max-power", "2", "--max-power", "3"],
    ["rokhlin", "z2", "2", "--meta", "--json"],
    # help at the top, group and subcommand levels
    *([*words, flag] for words in ([], ["rokhlin"], ["rep", "lambda"], ["validate"])
      for flag in ("-h", "--help")),
    ["rokhlin", "-h", "z2"],
    ["rokhlin", "z2", "2", "-h"],
    # leftover, missing and malformed arguments
    ["rokhlin", "z2", "2", "3"],
    ["model", "trunc-z2:3", "extra"],
    ["rokhlin", "z2", "2", "--bogus"],
    ["rokhlin", "z2"],
    ["join", "homology", "2"],
    ["rokhlin"],
    ["model"],
    ["rokhlin", "z2", "x"],
    ["rep", "ideal-powers", "z3", "--max-power"],
    ["rep", "ideal-powers", "z3", "--max-power", "--json"],
    ["rokhlin", "z2", ""],
    ["group", "tensor", "-Z_4", "Z_6"],
    ["rep", "ideal-powers", "z3", "--max-power", "x"],
    ["rokhlin", "tensor-rule", "bogus", "1", "3", "2", "5"],
    ["rokhlin", "tensor-rule", "sum", "1", "3", "2", "+5"],
    ["validate", "missing.json"],
    ["rokhlin", "commutative", "z2xz3", "2"],
    # --, abbreviations and = forms
    ["rokhlin", "z2", "--", "2"],
    ["--", "rokhlin", "z2", "2"],
    ["rokhlin", "--", "z2", "2"],
    ["rokhlin", "z2", "2", "--"],
    ["rokhlin", "z2", "--", "-h"],
    ["rokhlin", "z2", "2", "--js"],
    ["rokhlin", "z2", "2", "--me"],
    ["rep", "ideal-powers", "z3", "--m", "2"],
    ["rep", "ideal-powers", "z3", "--max-power=3"],
    ["rep", "ideal-powers", "z3", "--max=2", "--json"],
    ["rokhlin", "z2", "2", "--json=1"],
    # negative numbers
    ["rokhlin", "z2", "-2"],
    ["join", "homology", "-1", "2"],
    ["rep", "ideal-powers", "z3", "--max-power", "-1"],
    ["rep", "lambda", "-3"],
    # an unknown group or name, an option before the command, no argv
    ["bogus", "z2", "2"],
    ["rokhlin", "bogus", "2"],
    ["linalg", "z2", "2"],
    ["rokhlin", "validate", "report.json"],
    ["--json", "rokhlin", "z2", "2"],
    ["-h", "rokhlin", "z2", "2"],
    [],
)

# Every word of the corpus, for argv drawn from them.
TOKENS = sorted({word for argv in CORPUS for word in argv})


def oracle_main(argv) -> int:
    """main as it was: one nested parse of the whole tree, json.dumps output."""
    args = cli.build_parser().parse_args(argv)
    try:
        payload, lines, code = args.func(args)
    except UnsupportedError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 3
    except (EquikError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)
    if args.meta:
        print(json.dumps({"command": args.command, "elapsed_ns": 0}), file=sys.stderr)
    return code


def outcome(entry, argv) -> tuple:
    """(exit code, stdout, stderr) of entry(argv), with --meta's time as 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = entry(list(argv))
        except SystemExit as exc:  # help and usage errors exit from argparse
            code = exc.code
    return code, out.getvalue(), re.sub(r'"elapsed_ns": \d+', '"elapsed_ns": 0', err.getvalue())


@contextlib.contextmanager
def workdir():
    """A temporary working directory holding matrix.json and report.json,
    the files the corpus names."""
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open("matrix.json", "w", encoding="utf-8") as fh:
                fh.write(MATRIX)
            _, report, _ = outcome(oracle_main, ["rokhlin", "z2", "2", "--json"])
            with open("report.json", "w", encoding="utf-8") as fh:
                fh.write(report)
            yield tmp
        finally:
            os.chdir(old)


def differences(argvs) -> list:
    """(argv, main's outcome, the oracle's) for each argv they differ on."""
    found = []
    for argv in argvs:
        got, want = outcome(cli.main, argv), outcome(oracle_main, argv)
        if got != want:
            found.append((argv, got, want))
    return found


def main() -> int:
    with workdir():
        found = differences(CORPUS)
    for argv, got, want in found:
        print(f"differs: {argv}: main {got!r}, oracle {want!r}")
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"python {version}: {len(CORPUS)} argv, {len(found)} differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
