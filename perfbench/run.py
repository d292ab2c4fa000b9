"""Benchmark for the equik command line tool.

Usage, from the repository root:

    python3 perfbench/run.py --workload joins --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Each task is one CLI request, issued in-process through
``equik.cli.main(argv)`` with stdout and stderr captured, by one
closed-loop client (one process, no threads).  ``equik`` is imported from
``src/`` next to this directory, and the run refuses any other copy.

The task list is generated from the seed before timing starts and is
issued in whole passes until ``--seconds`` is about used up, so every
seed's run covers its tasks equally often.  Outputs are checked after
timing: recorded digests for fixed tasks, the defining identities for
seeded matrices, and exit 1 for forged reports.

Every time the run reports is scaled to nominal machine speed: a fixed
reference routine (``reference.py``) runs before each task, and each
task's latency is scaled by the routine's nominal time over its mean time
in a window around the task.  Measured times are printed alongside.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` issues each
task twice per pass, traced and untraced back to back, and prints the
per-layer metrics of the traced runs, each the median over passes, plus
the tracing overhead: traced against untraced time over the same tasks.  Human-readable lines come first; the last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import reference
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"

# Import probes run between passes, so that their median spans the run
# like the other metrics; short runs add probes at the end up to this many.
SETUP_SAMPLES = 5
# A run issues at least this many tasks, so that at least ten latency
# samples lie beyond the 90th percentile.
MIN_SAMPLES = 110
# A task's latency is scaled by the mean reference time over this many
# reference runs on each side of it.
GAUGE_REACH = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

_SETUP_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import equik, equik.cli
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import reference
gauge = [reference.time_ns() for _ in range(int(sys.argv[3]))]
print(t1 - t0, reference.scale(gauge), equik.__file__)
"""


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, wrong equik)."""


def _inside(path, root: Path) -> bool:
    try:
        Path(path).resolve().relative_to(root.resolve())
    except ValueError:
        return False
    return True


def import_equik():
    """Import ``equik.cli`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "equik" / "__init__.py").is_file():
        raise BenchError(f"no equik source tree under {SRC}")
    sys.path.insert(0, str(SRC))
    import equik
    import equik.cli

    if not _inside(equik.__file__, SRC):
        raise BenchError(f"equik was imported from {equik.__file__}, not from {SRC}")
    return equik.cli


def probe_setup() -> tuple:
    """Seconds to import equik and equik.cli in a fresh interpreter, and
    the reference scale measured in that interpreter right after."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _SETUP_PROBE, str(SRC), str(HERE), str(2 * GAUGE_REACH)],
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    if proc.returncode != 0:
        raise BenchError(f"import probe failed: {proc.stderr.strip()}")
    seconds, scale, path = proc.stdout.split(maxsplit=2)
    if not _inside(path.strip(), SRC):
        raise BenchError(f"import probe loaded equik from {path.strip()}")
    return float(seconds), float(scale)


def issue(cli, argv):
    """One request; returns (latency ns, exit code or None if it raised, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter_ns()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # as the interpreter maps it to an exit status
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a task that raises is a failed task
            code = None
        t1 = time.perf_counter_ns()
    return t1 - t0, code, out.getvalue()


def digest(code, stdout: str) -> str:
    return f"{code}:{hashlib.sha256(stdout.encode('utf-8')).hexdigest()[:32]}"


def _issue_task(cli, task):
    latency, code, out = issue(cli, task.argv)
    if task.writes:
        Path(task.writes).write_text(out, encoding="utf-8")
    return latency, code, out


def run_gauged_pass(cli, tasks, gauge):
    """Issue every task once, each right after a run of the reference
    routine, whose time is appended to ``gauge``.

    Returns [(latency ns, exit code, stdout)].
    """
    outcomes = []
    for task in tasks:
        gauge.append(reference.time_ns())
        outcomes.append(_issue_task(cli, task))
    return outcomes


def scaled_latencies(latencies, gauge):
    """Each latency scaled to nominal speed by the reference runs around it.

    ``gauge[i]`` ran just before task ``i`` and ``gauge[i + 1]`` just
    after it; the window holds ``GAUGE_REACH`` runs on each side.
    """
    return [
        latency * reference.scale(gauge[max(0, i + 1 - GAUGE_REACH) : i + 1 + GAUGE_REACH])
        for i, latency in enumerate(latencies)
    ]


def run_traced_pass(cli, tasks, tr):
    """Issue every task twice back to back, once traced and once not.

    The order alternates from task to task, so that the two runs of a
    task see the same machine and, on average, the same cache state.
    Returns (untraced outcomes, traced outcomes).
    """
    plain, traced = [], []
    for i, task in enumerate(tasks):
        for use_trace in (False, True) if i % 2 == 0 else (True, False):
            if not use_trace:
                plain.append(_issue_task(cli, task))
                continue
            tr.task = i
            tr.install()
            try:
                traced.append(_issue_task(cli, task))
            finally:
                tr.uninstall()
    return plain, traced


class Judge:
    """Checks every outcome after timing and tallies failures.

    A task fails when it raises, exits with the wrong code, or prints
    other output than expected.  ``correct`` turns false when a digest is
    missing or any task fails other than through the known defect it
    names; those failures count as failed tasks, so the defects show in
    the failure ratio.
    """

    def __init__(self, tasks, matrices, expected):
        self.tasks = tasks
        self.matrices = matrices
        self.expected = expected
        self.first = {}  # task index -> stdout of a matrix task's first run
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems = {}  # task key -> first problem seen

    def _problem(self, task, code, out, i):
        if code is None:
            return "raised an exception"
        if task.expect == "digest":
            want = self.expected.get(task.key)
            if want is None:
                self.correct = False
                return "no recorded digest"
            return None if digest(code, out) == want else f"got {digest(code, out)}, want {want}"
        if task.expect == "valid":
            return None if (code, out) == (0, "valid\n") else f"exit {code}, {out.strip()!r}"
        if task.expect == "forged":
            return None if (code, out) == (1, "invalid\n") else f"exit {code}, {out.strip()!r}"
        if task.expect == "matrix":
            if code != 0:
                return f"exit {code}"
            first = self.first.setdefault(i, out)
            return None if out == first else "output differs between passes"
        raise ValueError(task.expect)

    def add_pass(self, outcomes):
        for i, (task, (_, code, out)) in enumerate(zip(self.tasks, outcomes)):
            self.attempted += 1
            problem = self._problem(task, code, out, i)
            if problem:
                self._fail(task, problem)

    def check_matrices(self, passes: int):
        """Identity checks on each seeded decomposition, once per task."""
        for i, out in self.first.items():
            task = self.tasks[i]
            check = checks.check_snf if task.argv[1] == "snf" else checks.check_hnf
            try:
                problems = check(self.matrices[task.key], out)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"unreadable output: {exc}"]
            if problems:
                self._fail(task, "; ".join(problems), passes)

    def _fail(self, task, problem, count=1):
        self.failed += count
        if task.defect:
            problem += f" (known defect: {task.defect})"
        self.problems.setdefault(task.key, problem)
        if not task.defect:
            self.correct = False


def percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def base_report(cli, expected) -> dict:
    """The z2 m=2 report the forgeries edit, checked against its digest."""
    _, code, out = issue(cli, workloads.FORGERY_BASE)
    key = " ".join(workloads.FORGERY_BASE)
    if digest(code, out) != expected.get(key):
        raise BenchError(f"{key} does not match its recorded digest")
    return json.loads(out)


def run_workload(cli, args) -> dict:
    # Unmeasured, so that every measured import reads compiled bytecode
    # as a user's installed copy would.
    probe_setup()
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        base = base_report(cli, expected) if args.workload == "certify" else None
        tasks, matrices = workloads.build(args.workload, args.seed, workdir, base)
        return measure(cli, args, tasks, matrices, expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(cli, args, tasks, matrices, expected) -> dict:
    judge = Judge(tasks, matrices, expected)
    setup = []  # (import seconds, scale), one probe after each untraced pass
    tr = tracing.Tracer() if args.trace else None
    latencies, gauge = [], []  # untraced runs: latency ns per task, reference ns
    spans, overheads = [], []  # traced runs: span range and overhead per pass
    start = time.perf_counter_ns()
    while True:
        if tr is None:
            outcomes = run_gauged_pass(cli, tasks, gauge)
            latencies += [o[0] for o in outcomes]
            judge.add_pass(outcomes)
            setup.append(probe_setup())
        else:
            lo = len(tr.spans)
            plain, traced = run_traced_pass(cli, tasks, tr)
            spans.append((lo, len(tr.spans)))
            overheads.append(sum(o[0] for o in traced) / sum(o[0] for o in plain) * 100 - 100)
            judge.add_pass(plain)
            judge.add_pass(traced)
        # Stop at the whole pass nearest the budget.
        passes = max(len(latencies) // len(tasks), len(spans))
        elapsed = time.perf_counter_ns() - start
        enough = tr is not None or len(latencies) >= MIN_SAMPLES
        if enough and elapsed * (passes + 0.5) / passes >= args.seconds * 1e9:
            break
    judge.check_matrices(passes * (2 if tr else 1))

    n = len(tasks)
    if tr is None:
        gauge.append(reference.time_ns())
        setup += [probe_setup() for _ in range(SETUP_SAMPLES - len(setup))]
        scaled = scaled_latencies(latencies, gauge)
        lat, raw = sorted(x / 1e6 for x in scaled), sorted(x / 1e6 for x in latencies)

        def per_s(values):  # tasks per second of each pass, median over passes
            return statistics.median(n / (sum(values[i : i + n]) / 1e9) for i in range(0, len(values), n))

        metrics = {
            "setup_s": statistics.median(s * k for s, k in setup),
            "tasks_per_s": per_s(scaled),
            "latency_p50_ms": percentile(lat, 50),
            "latency_p90_ms": percentile(lat, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": (judge.attempted - judge.failed) / judge.attempted,
        }
        units = END_TO_END_UNITS
        notes = {
            "setup_s": f"median of {len(setup)} fresh interpreters; "
            f"measured {statistics.median(s for s, _ in setup):.4f}",
            "tasks_per_s": f"median of {passes} passes of {n} tasks; measured {per_s(latencies):.4f}",
            "latency_p50_ms": f"{len(lat)} samples; measured {percentile(raw, 50):.4f}",
            "latency_p90_ms": f"{len(lat)} samples, "
            f"{sum(x > metrics['latency_p90_ms'] for x in lat)} above; measured {percentile(raw, 90):.4f}",
        }
    else:
        per_pass = [tr.summarize(lo, hi) for lo, hi in spans]
        metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        metrics["trace.overhead_pct"] = statistics.median(overheads)
        units = tracing.metric_units()
        metrics = {k: metrics[k] for k in units}
        notes = {"trace.overhead_pct": f"median of {passes} passes, each task run both ways"}
        if tr.self_time_violations():
            judge.correct = False
            judge.problems["tracer"] = "a span's self time lies outside [0, duration]"
        tr.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.json.gz")

    print(
        f"workload {args.workload} seed {args.seed}: {passes} passes "
        f"of {n} tasks, {judge.failed} of {judge.attempted} failed "
        f"(error_ratio {judge.failed / judge.attempted:.6f}), "
        f"{(time.perf_counter_ns() - start) / 1e9:.1f} s"
        + (f", machine at {statistics.median(gauge) / reference.NOMINAL_NS:.2f}x nominal time" if gauge else "")
    )
    for key, value in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key:48s} {value:14.4f} {units[key]}{note}")
    for key, problem in judge.problems.items():
        print(f"failed: {key}: {problem}", file=sys.stderr)
    return {
        "correct": judge.correct,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in its own fresh interpreter, one after another."""
    worst = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            check=False,
        )
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        cli = import_equik()
        if args.workload == "all":
            return run_all(args)
        result = run_workload(cli, args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
