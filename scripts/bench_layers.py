#!/usr/bin/env python3
"""Time equik's layers, intmat to reports, case by case, with counters.

Each case is one library call timed in integer nanoseconds (the median
and the quartiles of the repeats, and the median of the repeats scaled
to nominal machine speed by perfbench/reference.py's routine, run just
before and just after each repeat as perfbench/run.py runs it around a
task), but the first:
- import: `import equik, equik.cli` from the tree this script imports,
  timed inside each of 11 fresh `python -I` interpreters, counting the
  modules it loads; 11 more run under `-X importtime`, and the record's
  self_us holds each equik module's median self time in microseconds;
- intmat: hnf, snf, kernel_basis and hermite_rows on seeded 8 x 8 and
  12 x 12 matrices and on 6 x 10 and 10 x 6 matrices of rank 4, so with
  both kernels nonzero, each built untimed, counting the rank (for
  kernel_basis and hermite_rows, the rows given) and the largest entry
  bit length of the output;
- joins: reduced_homology on the join complexes of the benchmark's
  `join homology` grid plus five larger ones, counting the rows the
  boundaries hold in total, the critical cells coreduction leaves, the
  rows of those handed to the sparse elimination, and the boundary
  nonzeros, augmentation included; the counters are read from the maps
  handed to check_boundaries, coreduce and the Smith reader joins calls,
  wrapped in the warm-up call.  On the grid and the
  first three larger joins, boundary_matrices, counting the boundary rows
  and nonzeros, and check_boundaries on the boundaries and the
  augmentation, counting the rows checked and the multiply-adds their
  products take; mayer_vietoris_delta at (20, 20), (1, 2000) and
  (300, 300), counting the kernel rank, the cokernel's free rank, and
  the rows and nonzeros handed to joins.smith_invariants;
- abgroups: cokernel of a seeded sparse 100 x 100 matrix (each entry
  nonzero with chance 0.1, then in [-3, 3]), built untimed, counting the
  free rank and the torsion summands;
- fusion: cyclic_ring(24), ring_from_tag on z24 and z2xz3xz5,
  circle_truncation at orders 291 (the largest `rokhlin circle` admits),
  400 and 800, and ring_product of circle_truncation(9) and z3xz3 (the
  factors built untimed), each a ring built with its generators found,
  counting the rank and the generators; regular_class_check on the
  rings of the benchmark's `rep regular` (built untimed), and
  lambda_expansion(31), counting the ring products each forms, with
  fusion._row_times wrapped in the warm-up call; lattice_quotient of
  the levels 0-2 of ideal_powers(z2xz3xz5) (built untimed), counting
  the levels and their largest rank; ideal_power of z2xz3xz5 at 3 and of
  circle_truncation(292) at 291, the rings built untimed, counting the
  ring products the walk forms and the power's rank;
- kmodules: ModelDescriptor.instantiate on two tensor models, each
  module built; kunneth_pieces on the two halves of two
  more tensor models, the halves built untimed;
  truncated_ring_module on circle_truncation(292) and on z3xz3 at
  order 3, the rings built untimed; and ideal_image of I^3 on
  tensor(circle:9,trunc:z3xz3:3), both built untimed; each counting
  the ring's rank and generators and the module's generators, and the
  image the ideal's rank;
- reports: four report builders, counting the ideal-power walks their
  modules and witnesses make and the largest ring rank walked, with
  ideal_power wrapped in the warm-up call;
- cli: cli.main in process, stdout and stderr captured, on each "$ equik"
  example of the README, on `rokhlin product-z2 2 z3xz3 --json`, on
  `linalg snf --json` of a seeded 8 x 8 matrix and on `linalg hnf
  --json` of the 10 x 6 matrix of rank 4 of the intmat cases, counting the
  ArgumentParser.parse_known_args calls of one request, the bytes it
  writes and its exit code, with the method wrapped in the warm-up call.
The work budget is lifted for every case but the cli ones, in this
process only: circle_truncation(800) is over it.

The run is stored under its label in the output file, beside the runs
already there under other labels, so a parent tree and a change can
share one file.  With --parent DIR, the script runs itself --rounds
times on DIR/src and on the equik it imports, each in a fresh process,
alternating which goes first, and stores round i under parent-i and
<label>-i:

    PYTHONPATH=src python3 scripts/bench_layers.py --label change --out BENCH_<n>.json
    PYTHONPATH=src python3 scripts/bench_layers.py --case "ring_from_tag(z24)" --out bench.json
    PYTHONPATH=src python3 scripts/bench_layers.py --parent ../parent --rounds 3 --out BENCH_<n>.json
"""

import argparse
import contextlib
import functools
import gc
import io
import itertools
import json
import os
import random
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import equik
import equik.cli
from equik import abgroups, errors, fusion, intmat, joins, kmodules, reports

# perfbench/reference.py, the routine that gauges the machine's speed of
# the moment, imported from its own directory as perfbench/run.py does.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import reference  # noqa: E402

# (set size n, copies k): the join homology grid of the joins workload,
# then the 7-fold join of 2 points and the 5-fold joins of 3 and 9 points.
JOIN_CASES = (
    (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (4, 3), (4, 4), (5, 3), (6, 3),
    (2, 7), (3, 5), (9, 5),
)
# (l, n) of the mayer_vietoris_delta cases, whose homology is read on the
# complete bipartite graph K_(l,n): two squares and the star K_(1,2000).
DELTA_CASES = ((20, 20), (1, 2000), (300, 300))
# Joins timed by reduced_homology alone: the 7-fold join of 4 points and
# the 9-fold join of 3, both within the work budget.
HOMOLOGY_CASES = JOIN_CASES + ((4, 7), (3, 9))
# (builder, arguments): reports built from the product, circle-product,
# collapse and circle constructions.
REPORT_CASES = (
    ("product_z2_bounds", (2, "z3xz3")),
    ("circle_product_dimension", (2, "z3")),
    ("z6_collapse_report", (1,)),
    ("circle_ah_dimension", (20,)),
)
# The "$ equik" examples of the README, then a grouped --json request,
# the Smith form of a seeded 8 x 8 matrix with entries in [-9, 9], and
# the Hermite form of a tall matrix with a left kernel, the costliest
# shape of the benchmark's hnf tasks.
README = Path(__file__).resolve().parent.parent / "README.md"
# The source tree of the equik this script imports.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(equik.__file__)))
CLI_REQUESTS = (
    *(
        line[len("$ equik "):]
        for line in README.read_text(encoding="utf-8").splitlines()
        if line.startswith("$ equik ")
    ),
    "rokhlin product-z2 2 z3xz3 --json",
    "linalg snf seeded-8x8.json --json",
    "linalg hnf seeded-10x6.json --json",
)
MATRIX_SEED = 24
# (rows, cols, rank) of the seeded matrices of the intmat cases; a rank
# below min(rows, cols) makes the matrix a product of rows x rank and
# rank x cols factors, so that both of its kernels are nonzero.
MATRIX_CASES = ((8, 8, 8), (12, 12, 12), (6, 10, 4), (10, 6, 4))
# (ring, its builder, n) of the ideal_power cases: a power of the rank-30
# ring, and the deepest power of the largest circle truncation that
# `rokhlin circle` walks.
POWER_CASES = (
    ("ring_from_tag(z2xz3xz5)", lambda: fusion.ring_from_tag("z2xz3xz5"), 3),
    ("circle_truncation(292)", lambda: fusion.circle_truncation(292), 291),
)
MIN_REPEATS = 3
CASE_SECONDS = 2.0  # repeats stop after this long, once MIN_REPEATS ran
IMPORT_CASE = "import(equik, equik.cli)"
IMPORT_RUNS = 11  # fresh interpreters timed, and as many under -X importtime
# Run as `python -I -c IMPORT_PROBE SRC`: prints the nanoseconds the import
# takes and the number of modules it loads.  time and sys are built in.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); before = len(sys.modules); "
    "t0 = time.perf_counter_ns(); import equik, equik.cli; "
    "print(time.perf_counter_ns() - t0, len(sys.modules) - before)"
)


def time_case(call, max_repeats: int) -> tuple:
    """Nanoseconds of each call, at least MIN_REPEATS of them, at most
    max_repeats, and no new one after CASE_SECONDS; and the same times
    scaled to nominal machine speed by the reference runs just before
    and just after each call, as perfbench/run.py scales a task."""
    samples, gauge = [], []
    started = time.perf_counter_ns()
    while len(samples) < max_repeats:
        gc.collect()
        gauge.append(reference.time_ns())
        t0 = time.perf_counter_ns()
        call()
        samples.append(time.perf_counter_ns() - t0)
        spent = time.perf_counter_ns() - started
        if len(samples) >= MIN_REPEATS and spent > CASE_SECONDS * 1e9:
            break
    gauge.append(reference.time_ns())
    return samples, [ns * reference.scale(gauge[i : i + 2]) for i, ns in enumerate(samples)]


def timing_fields(samples, scaled) -> dict:
    """The median and quartiles of the raw times, and the scaled median."""
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {
        "ns_median": int(median),
        "ns_q1": int(q1),
        "ns_q3": int(q3),
        "ns_median_scaled": int(statistics.median(scaled)),
        "repeats": len(samples),
    }


def smith_counters(call) -> tuple:
    """The result of the call, and the rows and nonzeros it hands to
    joins.smith_invariants."""
    handed = []

    def counting(rows, real=joins.smith_invariants):
        handed.append((len(rows), sum(len(row) for row in rows)))
        return real(rows)

    with mock.patch.object(joins, "smith_invariants", counting):
        result = call()
    return result, {
        "rows_eliminated": sum(rows for rows, _ in handed),
        "nonzeros_eliminated": sum(nonzeros for _, nonzeros in handed),
    }


def count_case(jc) -> dict:
    """Rows, critical cells, eliminated rows and nonzeros of one
    reduced_homology call, read from the maps handed to its steps.  A
    tree with no joins.coreduce (an older parent) counts every row as a
    critical cell.  The rows eliminated are those handed to
    joins.smith_invariants."""
    seen = {}

    def checking(maps, real=joins.check_boundaries):
        seen["rows"] = seen["critical_cells"] = sum(m.rows for m in maps)
        seen["nonzeros"] = sum(len(row) for m in maps for row in m.data)
        return real(maps)

    def coreducing(maps, real=getattr(joins, "coreduce", None)):
        kept = real(maps)
        seen["critical_cells"] = sum(m.rows for m in kept)
        return kept

    with contextlib.ExitStack() as patches:
        patches.enter_context(mock.patch.object(joins, "check_boundaries", checking))
        if hasattr(joins, "coreduce"):
            patches.enter_context(mock.patch.object(joins, "coreduce", coreducing))
        _, handed = smith_counters(lambda: joins.reduced_homology(jc))
    return {
        "rows": seen["rows"],
        "critical_cells": seen["critical_cells"],
        "rows_eliminated": handed["rows_eliminated"],
        "nonzeros": seen["nonzeros"],
    }


def delta_case(l, n):
    """mayer_vietoris_delta(l, n), counting its kernel rank and its
    cokernel's free rank, and the rows and nonzeros it hands to
    joins.smith_invariants."""

    def call():
        return joins.mayer_vietoris_delta(l, n)

    def counters():
        rep, handed = smith_counters(call)
        return {"kernel_rank": rep.kernel_rank, "cokernel_rank": rep.cokernel.free_rank, **handed}

    return call, counters


def cokernel_case(size, density):
    """abgroups.cokernel of a seeded size x size matrix, built untimed,
    each entry nonzero with the given chance and then in [-3, 3] less 0,
    counting the free rank and torsion summands of the group."""
    rng = random.Random(f"{MATRIX_SEED}:cokernel:{size}:{density}")
    rows = [
        [rng.choice((-3, -2, -1, 1, 2, 3)) if rng.random() < density else 0 for _ in range(size)]
        for _ in range(size)
    ]
    return from_result(
        lambda: abgroups.cokernel(rows, size),
        lambda g: {"free_rank": g.free_rank, "torsion": len(g.torsion)},
    )


def from_result(call, counters) -> tuple:
    """A case whose counters are read off the result of the call itself."""
    return call, lambda: counters(call())


def ring_counters(ring) -> dict:
    return {"rank": ring.rank, "generators": len(ring.generators)}


def product_ring_case(left, right):
    """ring_product of two rings built untimed."""
    return from_result(lambda: fusion.ring_product(left, right), ring_counters)


def product_counters(call) -> dict:
    """Ring products one call forms: calls of fusion._row_times."""
    calls = []
    real = fusion._row_times

    def counting(*args):
        calls.append(1)
        return real(*args)

    with mock.patch.object(fusion, "_row_times", counting):
        call()
    return {"products": len(calls)}


def product_case(call):
    return call, lambda: product_counters(call)


def module_counters(mod) -> dict:
    return {**ring_counters(mod.ring), "module_generators": mod.generators}


def kunneth_case(left, right):
    halves = [kmodules.ModelDescriptor.parse(text).instantiate() for text in (left, right)]
    return from_result(
        lambda: kmodules.kunneth_pieces(*halves), lambda pieces: module_counters(pieces[0])
    )


def quotient_case(tag, last):
    """lattice_quotient of each ideal power I^k over I^(k+1), k < last, of
    the ring the tag names; the ring and the powers are built untimed."""
    ring = fusion.ring_from_tag(tag)
    levels = list(itertools.islice(fusion.ideal_powers(ring, last=last), last + 1))
    pairs = list(zip(levels, levels[1:]))

    def call():
        return [fusion.lattice_quotient(ring, outer, inner) for outer, inner in pairs]

    return from_result(
        call, lambda _: {"levels": len(levels), "max_level_rank": max(level.rank for level in levels)}
    )


def image_case(text, n):
    """ideal_image of I^n on the module the descriptor names, both built untimed."""
    mod = kmodules.ModelDescriptor.parse(text).instantiate()
    lattice = fusion.ideal_power(mod.ring, n)
    return from_result(
        lambda: kmodules.ideal_image(lattice, mod),
        lambda _: {**module_counters(mod), "ideal_rank": lattice.rank},
    )


def truncation_case(ring, n):
    return from_result(lambda: kmodules.truncated_ring_module(ring, n), module_counters)


def walk_counters(call) -> dict:
    """Ideal-power walks one call makes and the largest ring rank walked."""
    ranks = []

    def counting(ring, n, real=fusion.ideal_power):
        ranks.append(ring.rank)
        return real(ring, n)

    with mock.patch.object(kmodules, "ideal_power", counting):
        with mock.patch.object(reports, "ideal_power", counting):
            call()
    return {"walks": len(ranks), "max_walk_rank": max(ranks, default=0)}


def report_case(builder, args):
    def call():
        return getattr(reports, builder)(*args)

    return call, lambda: walk_counters(call)


def seeded_matrix(m, n, rank) -> intmat.IntMatrix:
    """The m x n matrix of MATRIX_CASES: entries in [-9, 9] at full rank,
    else the product of factors with entries in [-3, 3]."""
    rng = random.Random(f"{MATRIX_SEED}:{m}x{n}:{rank}")
    if rank == min(m, n):
        return intmat.IntMatrix(m, n, tuple([rng.randint(-9, 9) for _ in range(m * n)]))
    left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(m)]
    right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rank)]
    return intmat.IntMatrix.from_rows(
        [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left], cols=n
    )


def matrix_shape(m, n, rank) -> str:
    return f"{m}x{n}" + ("" if rank == min(m, n) else f", rank {rank}")


# name -> (the call on a matrix and its rows, the rank or the number of
# rows it gives and the entries it gives, read off its result)
MATRIX_CALLS = {
    "hnf": (
        lambda a, rows: intmat.hnf(a),
        lambda res: (res.rank, res.H.entries + res.transform.entries),
    ),
    "snf": (
        lambda a, rows: intmat.snf(a),
        lambda res: (len(res.invariant_factors()), res.U.entries + res.D.entries + res.V.entries),
    ),
    "kernel_basis": (lambda a, rows: intmat.kernel_basis(a), lambda res: (res.rows, res.entries)),
    "hermite_rows": (
        lambda a, rows: intmat.hermite_rows(rows, a.cols),
        lambda res: (len(res), [e for row in res for e in row]),
    ),
}


def matrix_case(name, m, n, rank):
    """A MATRIX_CALLS call on seeded_matrix(m, n, rank), built untimed,
    counting the rank or rows it gives and their largest entry bit length."""
    a = seeded_matrix(m, n, rank)
    rows = a.to_rows()
    call, read = MATRIX_CALLS[name]

    def counters(res):
        count, entries = read(res)
        return {"rank": count, "max_bits": max((abs(e).bit_length() for e in entries), default=0)}

    return from_result(lambda: call(a, rows), counters)


def power_case(build, n):
    """ideal_power of the ring build() gives, built untimed, counting the
    ring products its walk forms and the power's rank."""
    ring = build()

    def call():
        return fusion.ideal_power(ring, n)

    return call, lambda: {**product_counters(call), "power_rank": call().rank}


def homology_case(n, k):
    jc = joins.build_join_complex(n, k)
    return lambda: joins.reduced_homology(jc), lambda: count_case(jc)


def boundary_counters(chain) -> dict:
    return {
        "rows": sum(m.rows for m in chain.boundaries),
        "nonzeros": sum(len(row) for m in chain.boundaries for row in m.data),
    }


def boundary_case(n, k):
    jc = joins.build_join_complex(n, k)
    return from_result(lambda: joins.boundary_matrices(jc), boundary_counters)


def check_case(n, k):
    chain = joins.boundary_matrices(joins.build_join_complex(n, k))
    n_vert = chain.face_counts[0]
    maps = (joins.SparseMatrix(n_vert, 1, ({0: 1},) * n_vert),) + chain.boundaries
    counted = {
        "rows_checked": sum(m.rows for m in maps[1:]),
        "multiply_adds": sum(
            len(lower.data[a]) for lower, m in zip(maps, maps[1:]) for row in m.data for a in row
        ),
    }
    return from_result(lambda: joins.check_boundaries(maps), lambda _: counted)


@functools.lru_cache(maxsize=1)
def cli_workdir() -> tempfile.TemporaryDirectory:
    """A directory holding the files the CLI requests name: the README's
    matrix.json, report.json as `rokhlin z2 2 --json` writes it, the
    seeded 8 x 8 matrix and the 10 x 6 one of rank 4; it is removed
    when the interpreter exits."""
    tmp = tempfile.TemporaryDirectory(prefix="bench_layers_")
    work = Path(tmp.name)
    readme = README.read_text(encoding="utf-8")
    example = readme.split("Integer matrices are JSON", 1)[1].split("```json\n", 1)[1]
    (work / "matrix.json").write_text(example.split("```", 1)[0], encoding="utf-8")
    report = cli_request(["rokhlin", "z2", "2", "--json"])[1]
    (work / "report.json").write_text(report, encoding="utf-8")
    rng = random.Random(MATRIX_SEED)
    entries = [str(rng.randint(-9, 9)) for _ in range(64)]
    (work / "seeded-8x8.json").write_text(
        json.dumps({"rows": "8", "cols": "8", "entries": entries}), encoding="utf-8"
    )
    (work / "seeded-10x6.json").write_text(
        json.dumps(intmat.matrix_to_json_dict(seeded_matrix(10, 6, 4))), encoding="utf-8"
    )
    return tmp


def cli_request(argv) -> tuple:
    """Exit code, stdout and stderr of one in-process request."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = equik.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_case(request):
    """cli.main on the request, its file names resolved in cli_workdir()."""
    work = Path(cli_workdir().name)
    argv = [str(work / w) if (work / w).is_file() else w for w in shlex.split(request)]

    def counters():
        calls = []
        real = argparse.ArgumentParser.parse_known_args

        def counting(self, *args, **kwargs):
            calls.append(1)
            return real(self, *args, **kwargs)

        with mock.patch.object(argparse.ArgumentParser, "parse_known_args", counting):
            code, out, err = cli_request(argv)
        written = len(out.encode("utf-8")) + len(err.encode("utf-8"))
        return {"parse_known_args": len(calls), "bytes_written": written, "exit_code": code}

    return lambda: cli_request(argv), counters


def fresh_import(*flags):
    """One fresh interpreter running IMPORT_PROBE on this script's equik tree."""
    return subprocess.run(
        [sys.executable, "-I", *flags, "-c", IMPORT_PROBE, SRC],
        capture_output=True, text=True, timeout=60, check=True,
    )


def import_record() -> dict:
    """The import case: IMPORT_RUNS timed imports, then each equik
    module's median self time over IMPORT_RUNS runs of -X importtime."""
    runs, gauge = [], []
    for _ in range(IMPORT_RUNS):
        gauge.append(reference.time_ns())
        runs.append(fresh_import().stdout.split())
    gauge.append(reference.time_ns())
    samples = [int(ns) for ns, _ in runs]
    scaled = [ns * reference.scale(gauge[i : i + 2]) for i, ns in enumerate(samples)]
    self_us = {}
    for _ in range(IMPORT_RUNS):
        for line in fresh_import("-X", "importtime").stderr.splitlines():
            # "import time: <self us> | <cumulative us> | <indented module>"
            fields = [field.strip() for field in line.split("|")]
            if len(fields) == 3 and fields[2].startswith("equik"):
                self_us.setdefault(fields[2], []).append(int(fields[0].split(":")[1]))
    return {
        "case": IMPORT_CASE,
        "layer": "import",
        **timing_fields(samples, scaled),
        "counters": {"modules_loaded": int(runs[0][1])},
        "self_us": {name: int(statistics.median(us)) for name, us in sorted(self_us.items())},
    }


# case name -> (layer, setup); setup runs untimed and returns the timed
# call and the counted call, which makes the call once and gives its
# counters; the counted call is the case's warm-up.
CASES = {
    **{
        f"{name}({matrix_shape(*shape)})": (
            "intmat",
            lambda name=name, shape=shape: matrix_case(name, *shape),
        )
        for shape in MATRIX_CASES
        for name in MATRIX_CALLS
    },
    **{
        f"reduced_homology({n}, {k})": ("joins", lambda n=n, k=k: homology_case(n, k))
        for n, k in HOMOLOGY_CASES
    },
    **{
        f"{name}({n}, {k})": ("joins", lambda case=case, n=n, k=k: case(n, k))
        for name, case in (("boundary_matrices", boundary_case), ("check_boundaries", check_case))
        for n, k in JOIN_CASES
    },
    **{
        f"mayer_vietoris_delta({l}, {n})": ("joins", lambda l=l, n=n: delta_case(l, n))
        for l, n in DELTA_CASES
    },
    "cokernel(100x100, density 0.1)": ("abgroups", lambda: cokernel_case(100, 0.1)),
    **{
        f"ring_from_tag({tag})": (
            "fusion",
            lambda tag=tag: from_result(lambda: fusion.ring_from_tag(tag), ring_counters),
        )
        for tag in ("z24", "z2xz3xz5")
    },
    "cyclic_ring(24)": (
        "fusion",
        lambda: from_result(lambda: fusion.cyclic_ring(24), ring_counters),
    ),
    **{
        f"circle_truncation({n})": (
            "fusion",
            lambda n=n: from_result(lambda: fusion.circle_truncation(n), ring_counters),
        )
        for n in (291, 400, 800)
    },
    "ring_product(circle_truncation(9), ring_from_tag(z3xz3))": (
        "fusion",
        lambda: product_ring_case(fusion.circle_truncation(9), fusion.ring_from_tag("z3xz3")),
    ),
    **{
        f"regular_class_check({tag})": (
            "fusion",
            lambda tag=tag: product_case(
                lambda ring=fusion.ring_from_tag(tag): fusion.regular_class_check(ring)
            ),
        )
        for tag in ("z24", "z3xz3", "z2xz3xz5")
    },
    "lambda_expansion(31)": ("fusion", lambda: product_case(lambda: fusion.lambda_expansion(31))),
    **{
        f"instantiate({text})": (
            "kmodules",
            lambda text=text: from_result(
                kmodules.ModelDescriptor.parse(text).instantiate, module_counters
            ),
        )
        for text in ("tensor(trunc-z2:3,trunc:z3xz3:1)", "tensor(trunc:z3:3,trunc:z2:1)")
    },
    **{
        f"kunneth_pieces({a}, {b})": ("kmodules", lambda a=a, b=b: kunneth_case(a, b))
        for a, b in (("circle:21", "trunc:z3xz3:1"), ("circle:9", "trunc:z3xz3:3"))
    },
    "truncated_ring_module(circle_truncation(292), 292)": (
        "kmodules",
        lambda: truncation_case(fusion.circle_truncation(292), 292),
    ),
    "truncated_ring_module(ring_from_tag(z3xz3), 3)": (
        "kmodules",
        lambda: truncation_case(fusion.ring_from_tag("z3xz3"), 3),
    ),
    **{
        f"ideal_power({ring}, {n})": ("fusion", lambda build=build, n=n: power_case(build, n))
        for ring, build, n in POWER_CASES
    },
    "lattice_quotient(ideal_powers(z2xz3xz5), 0-2)": (
        "fusion",
        lambda: quotient_case("z2xz3xz5", 2),
    ),
    "ideal_image(ideal_power(R, 3), tensor(circle:9,trunc:z3xz3:3))": (
        "kmodules",
        lambda: image_case("tensor(circle:9,trunc:z3xz3:3)", 3),
    ),
    **{
        f"{builder}({', '.join(map(str, args))})": (
            "reports",
            lambda builder=builder, args=args: report_case(builder, args),
        )
        for builder, args in REPORT_CASES
    },
    **{
        f"cli({request})": ("cli", lambda request=request: cli_case(request))
        for request in CLI_REQUESTS
    },
}


def run(names, max_repeats: int) -> list:
    records = []
    for name in names:
        if name == IMPORT_CASE:
            records.append(import_record())
            continue
        layer, setup = CASES[name]
        # cli requests keep the budget: a README example is refused by it
        budget = errors.WORK_BUDGET if layer == "cli" else 10**15
        with mock.patch.object(errors, "WORK_BUDGET", budget):
            call, count = setup()
            counted = count()  # the counted call is the warm-up, untimed
            samples, scaled = time_case(call, max_repeats)
        records.append(
            {"case": name, "layer": layer, **timing_fields(samples, scaled), "counters": counted}
        )
    return records


def run_rounds(cfg) -> None:
    """Run this script cfg.rounds times on each tree, each run in a fresh
    process, the parent first in odd rounds and the change first in even."""
    trees = {
        "parent": os.path.join(os.path.abspath(cfg.parent), "src"),
        cfg.label: SRC,
    }
    passed = ["--out", cfg.out, "--repeats", str(cfg.repeats)]
    for name in cfg.case or ():
        passed += ["--case", name]
    for i in range(1, cfg.rounds + 1):
        for side in list(trees)[:: 1 if i % 2 else -1]:
            print(f"round {i}: {side} ({trees[side]})", flush=True)
            subprocess.run(
                [sys.executable, os.path.abspath(__file__), *passed, "--label", f"{side}-{i}"],
                env=dict(os.environ, PYTHONPATH=trees[side]), check=True,
            )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--label", default="change", help="key of this run in the file")
    parser.add_argument(
        "--case", action="append", choices=[IMPORT_CASE, *CASES], metavar="NAME",
        help="time only this case, named as in the output (repeatable; default: every case)",
    )
    parser.add_argument("--repeats", type=int, default=21, help="most timed calls per library case")
    parser.add_argument(
        "--parent", metavar="DIR",
        help="a checkout of the parent commit: run it and this tree in alternating rounds",
    )
    parser.add_argument("--rounds", type=int, default=1, help="runs per tree with --parent")
    cfg = parser.parse_args()
    if cfg.repeats < MIN_REPEATS:
        parser.error(f"--repeats must be at least {MIN_REPEATS}")
    if cfg.rounds < 1 or (cfg.rounds > 1 and cfg.parent is None):
        parser.error("--rounds must be at least 1, and above 1 only with --parent")
    if cfg.parent is not None:
        if cfg.label == "parent":
            parser.error("--label parent would mix the two trees' rounds")
        run_rounds(cfg)
        return
    cases = cfg.case or [IMPORT_CASE, *CASES]
    runs = {}
    if os.path.exists(cfg.out):
        with open(cfg.out, encoding="utf-8") as fh:
            runs = json.load(fh)
    runs[cfg.label] = run(cases, cfg.repeats)
    with open(cfg.out, "w", encoding="utf-8") as fh:
        json.dump(runs, fh, indent=1)
        fh.write("\n")
    for rec in runs[cfg.label]:
        print(
            "%-50s %12d ns (%d-%d), %d ns scaled  %s"
            % (
                rec["case"], rec["ns_median"], rec["ns_q1"], rec["ns_q3"],
                rec["ns_median_scaled"], rec["counters"],
            )
        )

if __name__ == "__main__":
    main()
