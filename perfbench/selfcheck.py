"""Self-tests for the benchmark's tracer.

Usage, from the repository root:

    python3 perfbench/selfcheck.py

Checks that

* every listed function is wrapped in every equik namespace that binds
  it, and that uninstalling restores the originals;
* the wrapped functions return results equal to the unwrapped ones;
* traced CLI output is byte-for-byte the untraced output;
* every span's self time lies between zero and its duration, and every
  listed span name was recorded at least once.

Exits 0 when all checks pass and 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import tracer as tracing
import workloads

CHEAP_NS = 50_000_000


def library_calls():
    """Calls that reach every traced function, each returning comparable data."""
    import equik.abgroups as ab
    import equik.fusion as fu
    import equik.intmat as im
    import equik.joins as jo
    import equik.kmodules as km
    import equik.reports as rp

    def matrix():
        return im.IntMatrix.from_rows([[2, 4, 4], [6, 6, 12], [1, -3, 5]])

    def module_group():
        mod = km.ModelDescriptor.parse("trunc-z2:3").instantiate()
        return mod.underlying_group(), km.max_nonvanishing_power(mod)

    def lattice():
        ring = fu.ring_from_tag("z2xz3")
        return fu.lattice_quotient(ring, fu.ideal_power(ring, 1), fu.ideal_power(ring, 2))

    def report_roundtrip():
        rep = rp.product_z2_bounds(1, "z3")
        back = rp.report_from_json_dict(rp.report_to_json_dict(rep))
        return rp.report_to_json_dict(back), rp.validate(back)

    return {
        "hnf": lambda: im.hnf(matrix()),
        "snf": lambda: im.snf(matrix()),
        "hermite_rows": lambda: im.hermite_rows([(2, 4), (6, 6), (1, 1)], 2),
        "hermite_solve": lambda: im.hermite_solve([(1, 0), (0, 2)], (3, 4)),
        "kernel_basis": lambda: im.kernel_basis(matrix().transpose()),
        "normalize": lambda: ab.normalize(ab.Presentation(3, matrix())),
        "lattice": lattice,
        "circle": lambda: fu.circle_ideal_image(4, 2),
        "mixed": lambda: fu.ring_product(fu.circle_truncation(2), fu.cyclic_ring(2)).mul_vec(
            (1, 2, 0, 1, 1, 0), (0, 1, 1, 0, 2, 1)
        ),
        "homology": lambda: jo.reduced_homology(jo.build_join_complex(2, 3)),
        "mv_delta": lambda: jo.mayer_vietoris_delta(3, 4),
        "oracle": lambda: jo.oracle_consistency(2, 3),
        "module": module_group,
        "kunneth": lambda: rp.report_to_json_dict(rp.circle_product_dimension(1, "z2")),
        "report": report_roundtrip,
        "collapse": lambda: rp.validate(rp.z6_collapse_report(1)),
    }


def cli_tasks(cli, workdir) -> list:
    """Every workload's requests for seed 0."""
    base = json.loads(run.issue(cli, workloads.FORGERY_BASE)[2])
    tasks = []
    for name in workloads.WORKLOADS:
        tasks += workloads.build(name, 0, workdir, base)[0]
    return tasks


def main() -> int:
    cli = run.import_equik()
    failures = []

    def check(ok, what):
        if not ok:
            failures.append(what)

    tr = tracing.Tracer()
    calls = library_calls()
    plain = {name: fn() for name, fn in calls.items()}
    tr.install()
    try:
        check(not tr.unwrapped_bindings(), f"unwrapped: {tr.unwrapped_bindings()}")
        traced = {name: fn() for name, fn in calls.items()}
    finally:
        tr.uninstall()
    for name in calls:
        check(plain[name] == traced[name], f"{name}: traced result differs")
    leftover = [
        f"{mod.__name__}.{attr}"
        for mod in tracing.equik_modules()
        for attr, value in vars(mod).items()
        if getattr(value, "__wrapped_by_tracer__", False)
    ]
    check(not leftover, f"wrappers left after uninstall: {leftover}")

    run.OUT_DIR.mkdir(exist_ok=True)
    workdir = run.OUT_DIR / "selfcheck"
    workdir.mkdir(exist_ok=True)
    try:
        tasks = cli_tasks(cli, workdir)
        untraced = run.run_gauged_pass(cli, tasks, [])
        # Trace the requests that took under CHEAP_NS untraced, to keep
        # the check short; their reports were written by the pass above.
        cheap = [i for i, (latency, _, _) in enumerate(untraced) if latency < CHEAP_NS]
        tr.install()
        try:
            traced_out = run.run_gauged_pass(cli, [tasks[i] for i in cheap], [])
        finally:
            tr.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for i, out in zip(cheap, traced_out):
        check(untraced[i][1:] == out[1:], f"{tasks[i].key}: traced stdout or exit code differs")

    check(tr.self_time_violations() == 0, "a span's self time is outside [0, duration]")
    seen = {tr.names[s[2]] for s in tr.spans}
    for layer, name, *_ in tracing.TARGETS:
        check((layer, name) in seen, f"{layer}.{name} was never recorded")

    for failure in failures:
        print(f"FAIL {failure}")
    print(f"selfcheck: {len(calls)} library calls, {len(cheap)} traced CLI tasks, "
          f"{len(tr.spans)} spans, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
