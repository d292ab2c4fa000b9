"""Record the stdout digest of every fixed benchmark task.

Usage, from the repository root:

    python3 perfbench/record.py

Runs each digest-checked task that any seed can issue once, untraced,
and writes ``expected.json`` next to this file: task key to exit code
and the first 128 bits of the SHA-256 of its stdout.  The file in the
repository was recorded from the equik commit that added the benchmark;
record again only when a change is meant to alter output.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    cli = run.import_equik()
    run.OUT_DIR.mkdir(exist_ok=True)
    workdir = run.OUT_DIR / "record"
    workdir.mkdir(exist_ok=True)
    try:
        digests = {}
        for task in workloads.recordable_tasks(workdir):
            _, code, out = run.issue(cli, task.argv)
            digests[task.key] = run.digest(code, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.EXPECTED.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} digests in {run.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
