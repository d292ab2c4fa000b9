#!/usr/bin/env python3
"""Emit every kind of dimension-bound report, validate it, and show it.

One line per report: construction, parameters, the validator's verdict,
and the report's text lines (reports.report_lines) joined by "; ".
With --out DIR each report is also written as a JSON file named after
its construction and parameters, so the gallery doubles as a corpus
generator for the `equik validate` command.

    python3 scripts/bounds_gallery.py --out /tmp/reports
"""

import argparse
import json
from dataclasses import dataclass
from pathlib import Path

from equik.reports import (
    circle_ah_dimension,
    circle_product_dimension,
    commutative_dimension,
    finite_af_bounds,
    product_z2_bounds,
    report_lines,
    report_to_json_dict,
    validate,
    z2_af_bounds,
    z6_collapse_report,
)


@dataclass
class GalleryConfig:
    max_m: int = 4
    max_d: int = 4
    max_copies: int = 5
    out_dir: Path | None = None


def gallery(cfg: GalleryConfig):
    for m in range(1, cfg.max_m + 1):
        yield f"z2-af-{m}", z2_af_bounds(m)
    for d in range(0, cfg.max_d + 1):
        yield f"circle-ah-{d}", circle_ah_dimension(d)
    for m in (1, 2):
        for tag in ("z3", "z5"):
            yield f"product-z2-{m}-{tag}", product_z2_bounds(m, tag)
    yield "circle-product-2-z3", circle_product_dimension(2, "z3")
    for d in (0, 1, 2):
        yield f"z6-collapse-{d}", z6_collapse_report(d)
    for tag in ("z2", "z3", "s1"):
        for k in range(1, cfg.max_copies + 1):
            yield f"commutative-{tag}-{k}", commutative_dimension(tag, k)
    yield "finite-af-z2-3", finite_af_bounds("z2", 3)
    yield "finite-af-z5-2", finite_af_bounds("z5", 2)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-m", type=int, default=4)
    parser.add_argument("--max-d", type=int, default=4)
    parser.add_argument("--max-copies", type=int, default=5)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    cfg = GalleryConfig(args.max_m, args.max_d, args.max_copies, args.out)
    if cfg.out_dir is not None:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    bad = 0
    for name, report in gallery(cfg):
        ok = validate(report)
        bad += not ok
        verdict = "valid" if ok else "INVALID"
        print("%-24s %-9s %s" % (name, verdict, "; ".join(report_lines(report))))
        if cfg.out_dir is not None:
            path = cfg.out_dir / f"{name}.json"
            path.write_text(
                json.dumps(report_to_json_dict(report), indent=2) + "\n"
            )
    if bad:
        raise SystemExit(f"{bad} report(s) failed validation")


if __name__ == "__main__":
    main()
