#!/usr/bin/env python3
"""Time the joins, fusion, kmodules and reports layers case by case, with counters.

Each case is one library call timed in integer nanoseconds (the median
and the quartiles of the repeats), but the first:
- import: `import equik, equik.cli` from the tree this script imports,
  timed inside each of 11 fresh `python -I` interpreters, counting the
  modules it loads; 11 more run under `-X importtime`, and the record's
  self_us holds each equik module's median self time in microseconds;
- joins: reduced_homology on the join complexes of the benchmark's
  `join homology` grid plus three larger ones, counting the rows the
  boundaries hold in total, the rows handed to the sparse elimination,
  the rows cleared before it and the boundary nonzeros, augmentation
  included; these counters come from one more call, made before the
  timed ones with the elimination wrapped.  On the same grid,
  boundary_matrices, counting the boundary rows and nonzeros, and
  check_boundaries on the boundaries and the augmentation, counting the
  rows checked and the multiply-adds their products take;
- fusion: ring_from_tag on z24 and z2xz3xz5 and circle_truncation at
  orders 400 and 800, each a ring built and fully checked, counting the
  rank and the generators the check finds; regular_class_check on the
  rings of the benchmark's `rep regular` (built untimed), and
  lambda_expansion(31), counting the ring products each forms (the
  augmentation ideal's closure check included), from one more call made
  with fusion._row_times wrapped; lattice_quotient of the levels 0-2 of
  ideal_powers(z2xz3xz5) (built untimed), counting the levels and their
  largest rank;
- kmodules: ModelDescriptor.instantiate on two tensor models, each
  module built and checked; kunneth_pieces on the two halves of two
  more tensor models, the halves built untimed;
  truncated_ring_module on circle_truncation(292), the ring built
  untimed; and ideal_image of I^3 on tensor(circle:9,trunc:z3xz3:3),
  both built untimed; each counting the ring's rank and generators and
  the module's generators, and the image the ideal's rank;
- reports: four report builders, counting the ideal-power walks their
  modules and witnesses make and the largest ring rank walked; these
  counters come from one more call, made with ideal_power wrapped.
The work budget is lifted for the whole run, in this process only:
circle_truncation(800) is over it.

The run is stored under its label in the output file, beside the runs
already there under other labels, so a parent tree and a change can
share one file:

    PYTHONPATH=src python3 scripts/bench_layers.py --label change --out BENCH_<n>.json
    PYTHONPATH=src python3 scripts/bench_layers.py --case "ring_from_tag(z24)" --out bench.json
"""

import argparse
import gc
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from unittest import mock

import equik
from equik import errors, fusion, joins, kmodules, reports

# (set size n, copies k): the join homology grid of the joins workload,
# then the 7-fold join of 2 points and the 5-fold joins of 3 and 9 points.
JOIN_CASES = (
    (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (4, 3), (4, 4), (5, 3), (6, 3),
    (2, 7), (3, 5), (9, 5),
)
# (builder, arguments): reports built from the product, circle-product,
# collapse and circle constructions.
REPORT_CASES = (
    ("product_z2_bounds", (2, "z3xz3")),
    ("circle_product_dimension", (2, "z3")),
    ("z6_collapse_report", (1,)),
    ("circle_ah_dimension", (20,)),
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


def time_case(call, max_repeats: int) -> list:
    """Nanoseconds of each call, at least MIN_REPEATS of them, at most
    max_repeats, and no new one after CASE_SECONDS."""
    samples = []
    started = time.perf_counter_ns()
    while len(samples) < max_repeats:
        gc.collect()
        t0 = time.perf_counter_ns()
        call()
        samples.append(time.perf_counter_ns() - t0)
        spent = time.perf_counter_ns() - started
        if len(samples) >= MIN_REPEATS and spent > CASE_SECONDS * 1e9:
            break
    return samples


def count_case(jc) -> dict:
    """Rows, eliminated rows, cleared rows and nonzeros of one call."""
    inner = joins.smith_pivots
    eliminated = []

    def counting(rows):
        eliminated.append(len(rows))
        return inner(rows)

    with mock.patch.object(joins, "smith_pivots", counting):
        joins.reduced_homology(jc)
    chain = joins.boundary_matrices(jc)
    rows = sum(chain.face_counts)
    nonzeros = chain.face_counts[0] + sum(
        len(row) for m in chain.boundaries for row in m.data
    )
    return {
        "rows": rows,
        "rows_eliminated": sum(eliminated),
        "rows_cleared": rows - sum(eliminated),
        "nonzeros": nonzeros,
    }


def ring_counters(ring) -> dict:
    return {"rank": ring.rank, "generators": len(ring.generators)}


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
    return call, lambda _: product_counters(call)


def module_counters(mod) -> dict:
    return {**ring_counters(mod.ring), "module_generators": mod.generators}


def kunneth_case(left, right):
    halves = [kmodules.ModelDescriptor.parse(text).instantiate() for text in (left, right)]
    return lambda: kmodules.kunneth_pieces(*halves), lambda pieces: module_counters(pieces[0])


def quotient_case(tag, last):
    """lattice_quotient of each ideal power I^k over I^(k+1), k < last, of
    the ring the tag names; the ring and the powers are built untimed."""
    ring = fusion.ring_from_tag(tag)
    levels = list(itertools.islice(fusion.ideal_powers(ring, last=last), last + 1))
    pairs = list(zip(levels, levels[1:]))

    def call():
        return [fusion.lattice_quotient(ring, outer, inner) for outer, inner in pairs]

    return call, lambda _: {"levels": len(levels), "max_level_rank": max(level.rank for level in levels)}


def image_case(text, n):
    """ideal_image of I^n on the module the descriptor names, both built untimed."""
    mod = kmodules.ModelDescriptor.parse(text).instantiate()
    lattice = fusion.ideal_power(mod.ring, n)
    return (
        lambda: kmodules.ideal_image(lattice, mod),
        lambda _: {**module_counters(mod), "ideal_rank": lattice.rank},
    )


def truncation_case(n):
    ring = fusion.circle_truncation(n)
    return lambda: kmodules.truncated_ring_module(ring, n), module_counters


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

    return call, lambda _: walk_counters(call)


def homology_case(n, k):
    jc = joins.build_join_complex(n, k)
    return lambda: joins.reduced_homology(jc), lambda _: count_case(jc)


def boundary_counters(chain) -> dict:
    return {
        "rows": sum(m.rows for m in chain.boundaries),
        "nonzeros": sum(len(row) for m in chain.boundaries for row in m.data),
    }


def boundary_case(n, k):
    jc = joins.build_join_complex(n, k)
    return lambda: joins.boundary_matrices(jc), boundary_counters


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
    return lambda: joins.check_boundaries(maps), lambda _: counted


def fresh_import(*flags):
    """One fresh interpreter running IMPORT_PROBE on this script's equik tree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(equik.__file__)))
    return subprocess.run(
        [sys.executable, "-I", *flags, "-c", IMPORT_PROBE, src],
        capture_output=True, text=True, timeout=60, check=True,
    )


def import_record() -> dict:
    """The import case: IMPORT_RUNS timed imports, then each equik
    module's median self time over IMPORT_RUNS runs of -X importtime."""
    runs = [fresh_import().stdout.split() for _ in range(IMPORT_RUNS)]
    samples = [int(ns) for ns, _ in runs]
    self_us = {}
    for _ in range(IMPORT_RUNS):
        for line in fresh_import("-X", "importtime").stderr.splitlines():
            # "import time: <self us> | <cumulative us> | <indented module>"
            fields = [field.strip() for field in line.split("|")]
            if len(fields) == 3 and fields[2].startswith("equik"):
                self_us.setdefault(fields[2], []).append(int(fields[0].split(":")[1]))
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {
        "case": IMPORT_CASE,
        "layer": "import",
        "ns_median": int(median),
        "ns_q1": int(q1),
        "ns_q3": int(q3),
        "repeats": len(samples),
        "counters": {"modules_loaded": int(runs[0][1])},
        "self_us": {name: int(statistics.median(us)) for name, us in sorted(self_us.items())},
    }


# case name -> (layer, setup); setup runs untimed and returns the timed
# call and the function that gives the counters of the call's result.
CASES = {
    **{
        f"reduced_homology({n}, {k})": ("joins", lambda n=n, k=k: homology_case(n, k))
        for n, k in JOIN_CASES
    },
    **{
        f"{name}({n}, {k})": ("joins", lambda case=case, n=n, k=k: case(n, k))
        for name, case in (("boundary_matrices", boundary_case), ("check_boundaries", check_case))
        for n, k in JOIN_CASES
    },
    **{
        f"ring_from_tag({tag})": (
            "fusion",
            lambda tag=tag: (lambda: fusion.ring_from_tag(tag), ring_counters),
        )
        for tag in ("z24", "z2xz3xz5")
    },
    **{
        f"circle_truncation({n})": (
            "fusion",
            lambda n=n: (lambda: fusion.circle_truncation(n), ring_counters),
        )
        for n in (400, 800)
    },
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
            lambda text=text: (kmodules.ModelDescriptor.parse(text).instantiate, module_counters),
        )
        for text in ("tensor(trunc-z2:3,trunc:z3xz3:1)", "tensor(trunc:z3:3,trunc:z2:1)")
    },
    **{
        f"kunneth_pieces({a}, {b})": ("kmodules", lambda a=a, b=b: kunneth_case(a, b))
        for a, b in (("circle:21", "trunc:z3xz3:1"), ("circle:9", "trunc:z3xz3:3"))
    },
    "truncated_ring_module(circle_truncation(292), 292)": ("kmodules", lambda: truncation_case(292)),
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
}


def run(names, max_repeats: int) -> list:
    records = []
    with mock.patch.object(errors, "WORK_BUDGET", 10**15):
        for name in names:
            if name == IMPORT_CASE:
                records.append(import_record())
                continue
            layer, setup = CASES[name]
            call, counters = setup()
            counted = counters(call())  # the warm-up, untimed
            samples = time_case(call, max_repeats)
            q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
            records.append(
                {
                    "case": name,
                    "layer": layer,
                    "ns_median": int(median),
                    "ns_q1": int(q1),
                    "ns_q3": int(q3),
                    "repeats": len(samples),
                    "counters": counted,
                }
            )
    return records


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--label", default="change", help="key of this run in the file")
    parser.add_argument(
        "--case", action="append", choices=[IMPORT_CASE, *CASES], metavar="NAME",
        help="time only this case, named as in the output (repeatable; default: every case)",
    )
    parser.add_argument("--repeats", type=int, default=21, help="most timed calls per library case")
    cfg = parser.parse_args()
    if cfg.repeats < MIN_REPEATS:
        parser.error(f"--repeats must be at least {MIN_REPEATS}")
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
            "%-50s %12d ns (%d-%d)  %s"
            % (rec["case"], rec["ns_median"], rec["ns_q1"], rec["ns_q3"], rec["counters"])
        )


if __name__ == "__main__":
    main()
