"""The work budget: requests of unbounded size are refused before the work.

Each request below once hung, died with MemoryError, or was refused only
after seconds of work.  Now each exits 2 with one `work budget exceeded`
line, and the work it would have done is replaced by a function that
fails, so a refusal that came after that work would show.
"""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import equik.abgroups as abgroups
import equik.fusion as fusion
import equik.intmat as intmat
import equik.joins as joins
from equik.abgroups import FgAbelianGroup
from equik.cli import main
from equik.errors import RANK_BITS_CAP, CapExceededError

ROOT = Path(__file__).resolve().parent.parent


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def refused(what, units):
    return f"error: work budget exceeded: {what} needs {units} units, over 200000000\n"


def unreachable(*args, **kwargs):
    raise AssertionError("the guarded work started before the budget check")


_chain = abgroups._chain


def chain_of_at_most_one(torsion):
    """abgroups._chain for the literals' own chains; more is the guarded work."""
    return _chain(torsion) if len(torsion) <= 1 else unreachable()


# (request, (module, name[, stand-in]) of the guarded work or None, stderr)
REFUSALS = [
    (
        "rokhlin circle 2000",
        (fusion, "BasedRing"),
        refused("a rank-2001 ring", 8012006001),
    ),
    ("rep ring circle:3000", (fusion, "BasedRing"), refused("a rank-3000 ring", 27000000000)),
    ("model circle:5000", (fusion, "BasedRing"), refused("a rank-5000 ring", 125000000000)),
    (
        "group tensor Z^100000000000 Z_2",
        (abgroups, "_chain", chain_of_at_most_one),
        refused("100000000000 torsion summands", "more than 2^77"),
    ),
    (
        "rokhlin circle 100000",
        (fusion, "BasedRing"),
        refused("a rank-100001 ring", 1000030000300001),
    ),
    (
        "rep lambda 100001",
        (fusion, "term_product"),
        refused("a rank-100001 ring", 1000030000300001),
    ),
    (
        "rep regular z100000",
        (fusion, "BasedRing"),
        refused("a rank-100000 ring", 1000000000000000),
    ),
    (
        "join mv-delta 100000 100000",
        (joins, "SparseMatrix"),
        refused("a 200000 x 10000000000 comparison map", 2500000000000),
    ),
    (
        # The walk refuses once the z2 powers' rank has stopped falling
        # and the levels left, each at least as costly, cannot fit.
        "rokhlin product-z2 100000 z3",
        None,
        refused("the ideal power walk of a rank-2 ring", 200673248),
    ),
]


@pytest.mark.parametrize("request_text,work,stderr", REFUSALS, ids=[r[0] for r in REFUSALS])
def test_request_is_refused_before_its_work(request_text, work, stderr, monkeypatch):
    if work is not None:
        monkeypatch.setattr(*work[:2], work[2] if len(work) > 2 else unreachable)
    started = time.perf_counter()
    code, out, err = run(*request_text.split())
    assert time.perf_counter() - started < 1.0
    assert (code, out, err) == (2, "", stderr)


@pytest.mark.parametrize("op,form", [("snf", "Smith"), ("hnf", "Hermite")])
def test_linalg_refuses_transforms_over_the_budget(op, form, tmp_path, monkeypatch):
    # 10^12 rows and no columns pass the entry count, and the m x m
    # transform alone would exhaust memory.
    path = tmp_path / "matrix.json"
    path.write_text('{"rows": "1000000000000", "cols": "0", "entries": []}', encoding="utf-8")
    monkeypatch.setattr(intmat.IntMatrix, "identity", unreachable)
    started = time.perf_counter()
    code, out, err = run("linalg", op, str(path))
    assert time.perf_counter() - started < 1.0
    what = f"the {form} form of a 1000000000000x0 matrix"
    assert (code, out, err) == (2, "", refused(what, "more than 2^79"))


def test_refusals_hold_in_a_fresh_process_under_2_gb():
    # Three requests that ended in MemoryError, each in a fresh process
    # with a 2 GB address-space limit and a 10 s timeout.
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    rows = ("rokhlin circle 100000", "rep lambda 100001", "join mv-delta 100000 100000")
    for request_text in rows:
        res = subprocess.run(
            [sys.executable, "-m", "equik.cli", *request_text.split()],
            capture_output=True,
            text=True,
            timeout=10,
            preexec_fn=limit,
            env=env,
        )
        assert res.returncode == 2, (request_text, res.stderr)
        assert res.stderr.startswith("error: work budget exceeded: ")
        assert res.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "construction,parameters",
    [
        ("z2-af", {"m": "1000000000000"}),
        ("circle-ah", {"d": "1000000000000"}),
        ("product-z2", {"m": "1000000000000", "group": "z3"}),
        ("circle-product", {"d": "1000000000000", "group": "z2"}),
        ("z6-collapse", {"d": "1000000000000"}),
        ("finite-af", {"group": "z2", "n": "1000000000000"}),
    ],
)
def test_validate_refuses_a_huge_rebuild(construction, parameters, tmp_path):
    # validate rebuilds a report from its parameters, so it meets the same budget.
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"construction": construction, "parameters": parameters}))
    started = time.perf_counter()
    code, out, err = run("validate", str(path))
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: work budget exceeded: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "request_text,stdout,seconds",
    [
        ("rokhlin circle 100", "lower 100 (witness Z), upper 100 (join k=101)\n", 5.0),
        ("rokhlin commutative z2 30000000", "dim 29999999, ind 30000000\n", 0.5),
        ("join ktheory 3 6", "K0 rank 1, K1 rank 64; oracle: consistent\n", 2.0),
    ],
)
def test_requests_admitted_by_the_budget(request_text, stdout, seconds):
    # circle 100 walks 100 levels of 101 - k products each, about 8 * 10^6
    # units; the commutative request skips its sphere cross-check at once;
    # the 4095 faces of ktheory 3 6 have 18432 boundary nonzeros.
    started = time.perf_counter()
    assert run(*request_text.split()) == (0, stdout, "")
    assert time.perf_counter() - started < seconds


def test_torsion_invariants_over_the_output_bound_are_refused():
    FgAbelianGroup(0, (2**RANK_BITS_CAP - 1,))
    with pytest.raises(CapExceededError, match="^output bound exceeded: "):
        FgAbelianGroup(0, (2**RANK_BITS_CAP,))


def test_model_with_over_long_torsion_exits_2_with_one_line():
    # trunc:z3:2600 has 2059-bit torsion invariants; it printed them
    # before, and under PYTHONINTMAXSTRDIGITS=640 trunc:z3:3000 died in
    # str() with a traceback.
    code, out, err = run("model", "trunc:z3:2600")
    assert (code, out) == (2, "")
    assert err == "error: output bound exceeded: a torsion invariant of 2059 bits, over 2000\n"
