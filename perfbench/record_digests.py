#!/usr/bin/env python3
"""Record the sha256 digests of every checked output into digests.json.

    python3 perfbench/record_digests.py --seeds 0-10

For each workload and seed this builds the full-size inputs, runs every
command once and stores the digests of its outputs under
"<workload>/<seed>".  The benchmark then requires the first run of each
command, in a run with that workload and seed, to reproduce them byte
for byte.
Re-record only when an output format changes on purpose.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

import run
import workloads


def record(workload: str, seed: int) -> dict[str, str]:
    root = run.ROOT / ".bench_build" / f"perfbench-record-{workload}-{seed}"
    shutil.rmtree(root, ignore_errors=True)
    try:
        wl = workloads.build(workload, seed, root)
        checker = run.Checker(wl, None)
        deadline = time.monotonic() + run.RUN_DEADLINE_S
        for command in wl.commands:
            run.remove_outputs(command)
            code, _, _ = run.run_cli(command.argv, run.cli_env(1), root / "cli.log",
                                     deadline - time.monotonic())
            checker.check(command, code)
        if checker.failed:
            raise SystemExit(f"{workload}/{seed}: {checker.errors}")
        return checker.first
    finally:
        shutil.rmtree(root, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-10", help="first-last, inclusive")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    table = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.is_file() else {}
    for workload in workloads.WORKLOADS:
        for seed in range(first, last + 1):
            table[f"{workload}/{seed}"] = record(workload, seed)
            print(f"recorded {workload}/{seed}", flush=True)
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
