"""Task lists for the three benchmark workloads.

A task is one CLI request, issued in-process as ``equik.cli.main(argv)``.
Each workload's list is generated from the seed before timing starts and
is then issued once per pass, in the same order, by one closed-loop
client.  The seed sets the order and varies inputs in ways that keep the
total work about the same, so that a percentile lands on the same kind
of task for every seed.

Workloads:

* ``joins`` -- join homology over a fixed (n, k) grid, plus ``join
  ktheory`` cases where the homology oracle runs and ``join mv-delta``
  maps whose orientation the seed picks.  Dense +-1 boundary matrices, HNF with a full
  transform, then SNF.  No representation rings.
* ``lattice`` -- ideal-power filtrations of cyclic and product rings,
  lambda expansions, regular-class checks, and ``linalg snf``/``hnf`` on
  seeded random matrices and on one fixed matrix whose Smith transforms
  blow up.  Hermite/Smith reduction with growing entries
  and the ring-axiom check in ``ring_from_tag``.  No joins.
* ``certify`` -- every README example, then every ``rokhlin``
  construction built with ``--json``, written to a file and validated,
  then four forged reports.  Many small matrices, module-axiom checks and
  the per-request CLI cost; both the write and the read side of reports.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

WORKLOADS = ("joins", "lattice", "certify")


@dataclass(frozen=True)
class Task:
    """One request.

    ``key`` names the request independently of file locations and of the
    seed's work directory.  ``expect`` says how its output is checked:

    * ``digest`` -- exit code and stdout must match the digest recorded
      in ``expected.json``;
    * ``valid`` -- exit 0 and ``valid``;
    * ``forged`` -- exit 1 and ``invalid``;
    * ``matrix`` -- exit 0, a JSON decomposition that satisfies its
      defining identities, and the same bytes on every pass.

    ``writes`` names a file that receives the task's stdout after it
    completes (a report that the next task validates).  ``defect`` names
    a known defect of the program that makes this task fail; such a
    failure still counts as a failed task.
    """

    key: str
    argv: tuple
    expect: str
    writes: str | None = None
    defect: str | None = None


def _digest(*argv) -> Task:
    return Task(" ".join(argv), argv, "digest")


# -- joins -----------------------------------------------------------------

HOMOLOGY_GRID = ((2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (4, 3), (4, 4), (5, 3), (6, 3))

# The ktheory oracle computes homology of the (n+1)^k - 1 faces, and its
# cost climbs steeply past about a hundred faces (1727 faces, n=11 and
# k=3, cost over 300 times as much as 120 faces, n=10 and k=2), so the
# ktheory cases stop at this many faces.
KTHEORY_MAX_FACES = 127
MV_DELTA_MAX = 20
MV_DELTA_CASES = 20


def ktheory_cases() -> list:
    """(n, k) with k >= 2 where the oracle runs, up to the face limit."""
    return [
        (n, k)
        for n in range(1, KTHEORY_MAX_FACES + 1)
        for k in range(2, 8)
        if (n + 1) ** k - 1 <= KTHEORY_MAX_FACES
    ]


def mv_delta_pairs() -> list:
    """Twenty unordered pairs l <= n <= 20 spread over the map sizes.

    The (l+n) x (l*n) comparison map's cost grows with (l+n)*l*n; the
    pairs are the middle ones of twenty equal slices of that order.
    """
    pairs = sorted(
        ((l, n) for l in range(1, MV_DELTA_MAX + 1) for n in range(l, MV_DELTA_MAX + 1)),
        key=lambda p: ((p[0] + p[1]) * p[0] * p[1], p),
    )
    size = len(pairs)
    return [
        pairs[(size * s // MV_DELTA_CASES + size * (s + 1) // MV_DELTA_CASES) // 2]
        for s in range(MV_DELTA_CASES)
    ]


def _joins(rng):
    """Fixed cases in seeded order; the seed also orients each mv-delta
    pair, (l, n) or (n, l), which changes the map but hardly its cost.
    """
    tasks = [_digest("join", "homology", str(n), str(k)) for n, k in HOMOLOGY_GRID]
    tasks += [_digest("join", "ktheory", str(n), str(k)) for n, k in ktheory_cases()]
    for pair in mv_delta_pairs():
        l, n = pair if rng.random() < 0.5 else pair[::-1]
        tasks.append(_digest("join", "mv-delta", str(l), str(n)))
    rng.shuffle(tasks)
    return tasks


# -- lattice ---------------------------------------------------------------

IDEAL_POWER_CASES = tuple((f"z{n}", 3) for n in range(8, 25)) + (
    ("z3xz3", 5),
    ("z2xz3", 6),
    ("z2xz3xz5", 2),
)
LAMBDA_ORDERS = tuple(range(7, 32, 2))
REGULAR_RINGS = ("z24", "z3xz3", "z2xz3xz5")
MATRIX_ENTRY = 9
HNF_SIZES = tuple(range(2, 13))
# Smith form transforms grow fast with the shape: over 200k random
# matrices up to 8x8 the largest transform entry had 3080 bits, while
# 10x10 and larger ones reach tens of thousands of bits and single tasks
# run for minutes.  The seeded SNF shapes stop at 8; SNF_BLOWUP keeps
# the growth in the workload as one fixed task.
SNF_SIZES = tuple(range(2, 9))

# An 11x9 matrix whose SNF transforms reach about 24k bits, more than the
# 4300 decimal digits Python converts to a string, so ``linalg snf
# --json`` raises instead of printing.
SNF_BLOWUP = (
    (3, 3, -2, -2, 1, 1, -9, 8, 8),
    (-3, -7, -8, 6, 8, 9, -9, 1, 1),
    (2, -6, 8, -4, 7, 2, 9, -7, -2),
    (-6, -9, 4, -9, -4, 3, -6, -4, -4),
    (-4, -6, -6, 6, 6, -3, 4, 9, -6),
    (-7, 6, 7, 3, 8, -7, 9, 0, 3),
    (5, 4, -1, -4, -8, -2, -5, 0, -8),
    (7, -2, -8, 4, -1, -2, 2, 3, 9),
    (-2, 3, 6, 9, 8, 7, 0, 7, 2),
    (1, -3, 9, 7, 9, 3, 7, 7, 0),
    (3, -1, 9, -1, 6, 0, 0, -8, 6),
)


def lattice_fixed_tasks() -> list:
    tasks = [
        _digest("rep", "ideal-powers", ring, "--max-power", str(power))
        for ring, power in IDEAL_POWER_CASES
    ]
    tasks += [_digest("rep", "lambda", str(p)) for p in LAMBDA_ORDERS]
    tasks += [_digest("rep", "regular", r) for r in REGULAR_RINGS]
    return tasks


def write_matrix(path, rows) -> None:
    entries = [str(e) for row in rows for e in row]
    doc = {"rows": str(len(rows)), "cols": str(len(rows[0])), "entries": entries}
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def _lattice(rng, workdir):
    """Fixed ring cases, the SNF blow-up, and seeded matrices.

    For HNF every size from 2 to 12 appears three times as a row count
    and three times as a column count, for SNF every size from 2 to 8
    five times; the seed pairs them and draws the entries.  With these
    about 105 tasks the 90th latency percentile falls among the
    200-300 ms ring cases rather than between two sparse ones.
    """
    workdir = Path(workdir)
    tasks = lattice_fixed_tasks()
    path = workdir / "snf-blowup.json"
    write_matrix(path, SNF_BLOWUP)
    matrices = {"linalg snf blowup": SNF_BLOWUP}
    tasks.append(
        Task(
            "linalg snf blowup",
            ("linalg", "snf", str(path), "--json"),
            "matrix",
            defect="SNF transform entries outgrow the int-to-str limit",
        )
    )
    for op, sizes, copies in (("hnf", HNF_SIZES, 3), ("snf", SNF_SIZES, 5)):
        cols_list = list(sizes) * copies
        rng.shuffle(cols_list)
        for i, (r, c) in enumerate(zip(list(sizes) * copies, cols_list)):
            rows = [[rng.randint(-MATRIX_ENTRY, MATRIX_ENTRY) for _ in range(c)] for _ in range(r)]
            key = f"linalg {op} m{i:02d}"
            path = workdir / f"{op}{i:02d}.json"
            write_matrix(path, rows)
            matrices[key] = rows
            tasks.append(Task(key, ("linalg", op, str(path), "--json"), "matrix"))
    rng.shuffle(tasks)
    return tasks, matrices


# -- certify ---------------------------------------------------------------

README_MATRIX = [[2, 4, 4], [6, 6, 12]]

README_EXAMPLES = (
    ("rokhlin", "z2", "2"),
    ("rokhlin", "commutative", "z2", "4"),
    ("rokhlin", "z6-collapse", "1"),
    ("join", "ktheory", "3", "2"),
    ("join", "mv-delta", "3", "4"),
    ("rep", "ideal-powers", "z3", "--max-power", "2"),
    ("rep", "lambda", "5"),
    ("group", "tensor", "Z_4", "Z_6"),
    ("model", "trunc-z2:3"),
)

CONSTRUCTIONS = (
    *(("z2", str(m)) for m in range(1, 5)),
    *(("circle", str(d)) for d in range(0, 5)),
    *(("product-z2", str(m), g) for g in ("z3", "z5", "z3xz3") for m in (1, 2)),
    *(("circle-product", str(d), g) for g in ("z2", "z3") for d in (1, 2)),
    *(("z6-collapse", str(d)) for d in range(0, 3)),
    *(("commutative", g, str(k)) for g in ("z2", "z3", "s1") for k in range(1, 7)),
    *(("finite", g, str(n)) for g in ("z2", "z5") for n in (1, 2)),
    ("tensor-rule", "sum", "1", "3", "2", "infinity"),
    ("tensor-rule", "min", "1", "3", "2", "5"),
    ("tensor-rule", "absorb", "2", "5", "0", "0"),
    ("tensor-rule", "sum", "0", "infinity", "4", "7"),
)

# The z2 report for m=2 is the base that every forgery edits.
FORGERY_BASE = ("rokhlin", "z2", "2", "--json")

# Forgeries that ``validate`` accepts: it checks only that an upper
# certificate's copies match the upper bound, and it does not know the
# construction names.
ACCEPTED_FORGERIES = {
    "upper-cut": "validate does not tie the join certificate to the parameters",
    "made-up-name": "validate accepts unknown construction names",
}


def forge(base: dict) -> dict:
    """Four reports that ``validate`` must reject (exit 1).

    * ``upper-cut`` -- upper bound cut from 6 to 2, with the join
      certificate edited to copies=3 so the pieces agree;
    * ``made-up-name`` -- a construction name no builder has;
    * ``lower-too-high`` -- lower bound 3 with a power-2 witness;
    * ``wrong-witness`` -- the witness group Z_4 in place of Z_2.
    """

    def edited(change):
        doc = copy.deepcopy(base)
        change(doc)
        return doc

    def cert(doc, role):
        return next(c for c in doc["certificates"] if c["role"] == role)

    def upper_cut(doc):
        doc["upper"] = "2"
        cert(doc, "upper")["copies"] = "3"

    def made_up_name(doc):
        doc["construction"] = "z7-af"

    def lower_too_high(doc):
        doc["lower"] = "3"

    def wrong_witness(doc):
        cert(doc, "lower")["nonzero_group"] = {"free_rank": "0", "torsion": ["4"]}

    return {
        "upper-cut": edited(upper_cut),
        "made-up-name": edited(made_up_name),
        "lower-too-high": edited(lower_too_high),
        "wrong-witness": edited(wrong_witness),
    }


def _readme_digest_tasks(workdir) -> list:
    matrix = Path(workdir) / "matrix.json"
    write_matrix(matrix, README_MATRIX)
    tasks = [_digest(*argv) for argv in README_EXAMPLES]
    tasks.append(Task("linalg snf readme-matrix", ("linalg", "snf", str(matrix)), "digest"))
    return tasks


def _certify(rng, workdir, base_report: dict):
    """README examples, then constructions, then forgeries, each block
    in seeded order.  A construction's build and validate stay adjacent.
    """
    workdir = Path(workdir)
    report = workdir / "report.json"
    report.write_text(json.dumps(base_report, indent=2) + "\n", encoding="utf-8")

    readme = _readme_digest_tasks(workdir)
    readme.append(Task("validate readme-report", ("validate", str(report)), "valid"))
    rng.shuffle(readme)

    builds = []
    for i, c in enumerate(CONSTRUCTIONS):
        path = str(workdir / f"built{i:02d}.json")
        built = replace(_digest("rokhlin", *c, "--json"), writes=path)
        builds.append((built, Task(f"validate {built.key}", ("validate", path), "valid")))
    rng.shuffle(builds)

    forged = []
    for name, doc in forge(base_report).items():
        path = workdir / f"forged-{name}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        forged.append(
            Task(
                f"validate forged {name}",
                ("validate", str(path)),
                "forged",
                defect=ACCEPTED_FORGERIES.get(name),
            )
        )
    rng.shuffle(forged)

    return readme + [t for pair in builds for t in pair] + forged


def build(workload: str, seed: int, workdir, base_report=None):
    """Return (tasks, matrices) for one workload and seed.

    ``matrices`` maps the key of each seeded matrix task to the matrix it
    decomposes; only ``lattice`` has any.  ``certify`` needs the base
    report that the forgeries edit.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "joins":
        return _joins(rng), {}
    if workload == "lattice":
        return _lattice(rng, workdir)
    if workload == "certify":
        return _certify(rng, workdir, base_report), {}
    raise ValueError(f"unknown workload {workload!r}")


def recordable_tasks(workdir) -> list:
    """Every digest-checked task any seed can issue, for ``record.py``."""
    tasks = [_digest("join", "homology", str(n), str(k)) for n, k in HOMOLOGY_GRID]
    tasks += [_digest("join", "ktheory", str(n), str(k)) for n, k in ktheory_cases()]
    for l, n in mv_delta_pairs():
        tasks += [_digest("join", "mv-delta", str(l), str(n)), _digest("join", "mv-delta", str(n), str(l))]
    tasks += lattice_fixed_tasks() + _readme_digest_tasks(workdir)
    return tasks + [_digest("rokhlin", *c, "--json") for c in CONSTRUCTIONS]
