#!/usr/bin/env python3
"""Sweep join complexes and compare closed-form K-theory with homology.

Builds the complete multipartite complex for every (set size, copies)
pair in the grid, computes its reduced homology over Z, and checks the
closed-form rank pair against the Betti numbers.  Pairs whose complex
does not fit the work budget only report the formula.

    python3 scripts/join_survey.py --max-size 4 --max-copies 5
"""

import argparse
import time

from equik.errors import CapExceededError
from equik.joins import (
    join_k_theory_formula,
    mayer_vietoris_delta,
    oracle_consistency,
)


def ktheory_grid(cfg: argparse.Namespace) -> None:
    print("set size  copies  K0    K1    faces   homology check   time")
    for n in range(1, cfg.max_size + 1):
        for k in range(1, cfg.max_copies + 1):
            k0, k1 = join_k_theory_formula(n, k)
            faces = (n + 1) ** k - 1
            start = time.monotonic()
            try:
                check = oracle_consistency(n, k)
            except CapExceededError:
                print("%8d  %6d  %-4d  %-4d  %-6d  (skipped)" % (n, k, k0, k1, faces))
                continue
            elapsed = time.monotonic() - start
            verdict = "consistent" if check.consistent else "MISMATCH"
            print(
                "%8d  %6d  %-4d  %-4d  %-6d  %-14s  %.3fs"
                % (n, k, k0, k1, faces, verdict, elapsed)
            )


def mv_table(cfg: argparse.Namespace) -> None:
    """Connecting-map ranks for the two-part gluing, all small sizes."""
    print()
    print("parts l   size n   kernel rank   cokernel")
    for l in range(1, cfg.max_size + 1):
        for n in range(1, cfg.max_size + 1):
            rep = mayer_vietoris_delta(l, n)
            print(
                "%7d  %7d  %11d   %s"
                % (l, n, rep.kernel_rank, rep.cokernel.render())
            )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-size", type=int, default=4)
    parser.add_argument("--max-copies", type=int, default=5)
    cfg = parser.parse_args()
    ktheory_grid(cfg)
    mv_table(cfg)


if __name__ == "__main__":
    main()
