#!/usr/bin/env python3
"""Survey the augmentation-ideal filtration of small representation rings.

For each ring in the sweep, prints the quotient I^m / I^(m+1) for m up
to a configurable depth, the lattice content of each power (the gcd of
all entries, which for the order-2 ring doubles at every step), and
whether the regular class dies in the first quotient.

Run from the repository root:

    python3 scripts/filtration_survey.py --max-power 5
"""

import argparse
from dataclasses import dataclass
from itertools import islice

from equik.fusion import (
    cyclic_ring,
    ideal_powers,
    lambda_expansion,
    lattice_quotient,
    regular_class_check,
    ring_product,
)


@dataclass
class SurveyConfig:
    max_power: int = 4
    cyclic_orders: tuple = (2, 3, 4, 5, 6, 7)
    lambda_orders: tuple = (3, 5, 7)


def ring_sweep(cfg: SurveyConfig):
    for n in cfg.cyclic_orders:
        yield f"cyclic order {n}", cyclic_ring(n)
    yield "product 2 x 3", ring_product(cyclic_ring(2), cyclic_ring(3))


def survey_ring(label: str, ring, cfg: SurveyConfig) -> None:
    print(f"== {label} (rank {ring.rank})")
    powers = list(islice(ideal_powers(ring), cfg.max_power + 2))
    for m in range(cfg.max_power + 1):
        quot = lattice_quotient(ring, powers[m], powers[m + 1])
        content = powers[m].content()
        print(
            "  I^%d/I^%d = %-12s rank %d  content %d"
            % (m, m + 1, quot.render(), powers[m].rank, content)
        )
    _, annihilated = regular_class_check(ring)
    verdict = "annihilated" if annihilated else "SURVIVES"
    print(f"  regular class under I: {verdict}")


def lambda_table(cfg: SurveyConfig) -> None:
    print("== lambda-power expansions")
    for p in cfg.lambda_orders:
        coeffs = lambda_expansion(p)
        terms = " + ".join(
            f"({c})*lambda^{j}" for j, c in enumerate(coeffs, start=1)
        )
        print(f"  lambda^{p} = {terms}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-power", type=int, default=4)
    args = parser.parse_args()
    cfg = SurveyConfig(max_power=args.max_power)
    for label, ring in ring_sweep(cfg):
        survey_ring(label, ring, cfg)
        print()
    lambda_table(cfg)


if __name__ == "__main__":
    main()
