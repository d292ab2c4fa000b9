#!/usr/bin/env python3
"""Time the joins layer's homology case by case and record its counters.

Times joins.reduced_homology on the join complexes of the benchmark's
`join homology` grid plus three larger ones, in integer nanoseconds
(the median of the repeats), and counts for each complex the rows the
boundaries hold in total, the rows handed to the sparse elimination,
the rows cleared before it and the boundary nonzeros, augmentation
included.  The counters come from one more call, made after the timed
ones with the elimination wrapped.

The run is stored under its label in the output file, beside the runs
already there under other labels, so a parent tree and a change can
share one file:

    PYTHONPATH=src python3 scripts/bench_layers.py --label change --out BENCH_<n>.json
    PYTHONPATH=src python3 scripts/bench_layers.py --case 3 3 --repeats 3 --out bench.json
"""

import argparse
import gc
import json
import os
import statistics
import time
from unittest import mock

from equik import joins

# (set size n, copies k): the join homology grid of the joins workload,
# then the 7-fold join of 2 points and the 5-fold joins of 3 and 9 points.
CASES = (
    (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (4, 3), (4, 4), (5, 3), (6, 3),
    (2, 7), (3, 5), (9, 5),
)
MIN_REPEATS = 3
CASE_SECONDS = 2.0  # repeats stop after this long, once MIN_REPEATS ran


def time_case(jc, max_repeats: int) -> list:
    """Nanoseconds of each reduced_homology call, at least MIN_REPEATS
    of them, at most max_repeats, and no new one after CASE_SECONDS."""
    samples = []
    started = time.perf_counter_ns()
    while len(samples) < max_repeats:
        gc.collect()
        t0 = time.perf_counter_ns()
        joins.reduced_homology(jc)
        samples.append(time.perf_counter_ns() - t0)
        spent = time.perf_counter_ns() - started
        if len(samples) >= MIN_REPEATS and spent > CASE_SECONDS * 1e9:
            break
    return samples


def count_case(jc) -> dict:
    """Rows, eliminated rows, cleared rows and nonzeros of one call."""
    # Trees without the top-down sweep call smith_invariants per map.
    name = "smith_pivots" if hasattr(joins, "smith_pivots") else "smith_invariants"
    inner = getattr(joins, name)
    eliminated = []

    def counting(rows):
        eliminated.append(len(rows))
        return inner(rows)

    with mock.patch.object(joins, name, counting):
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


def run(cases, max_repeats: int) -> list:
    records = []
    for n, k in cases:
        jc = joins.build_join_complex(n, k)
        joins.reduced_homology(jc)  # warm-up, untimed
        samples = time_case(jc, max_repeats)
        records.append(
            {
                "case": f"reduced_homology({n}, {k})",
                "layer": "joins",
                "ns_median": int(statistics.median(samples)),
                "repeats": len(samples),
                "counters": count_case(jc),
            }
        )
    return records


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--label", default="change", help="key of this run in the file")
    parser.add_argument(
        "--case", nargs=2, type=int, action="append", metavar=("N", "K"),
        help="time only the n-point k-fold join (repeatable; default: every case)",
    )
    parser.add_argument("--repeats", type=int, default=21, help="most timed calls per case")
    cfg = parser.parse_args()
    if cfg.repeats < MIN_REPEATS:
        parser.error(f"--repeats must be at least {MIN_REPEATS}")
    cases = [tuple(c) for c in cfg.case] if cfg.case else CASES
    runs = {}
    if os.path.exists(cfg.out):
        with open(cfg.out, encoding="utf-8") as fh:
            runs = json.load(fh)
    runs[cfg.label] = run(cases, cfg.repeats)
    with open(cfg.out, "w", encoding="utf-8") as fh:
        json.dump(runs, fh, indent=1)
        fh.write("\n")
    for rec in runs[cfg.label]:
        print("%-26s %12d ns  %s" % (rec["case"], rec["ns_median"], rec["counters"]))


if __name__ == "__main__":
    main()
