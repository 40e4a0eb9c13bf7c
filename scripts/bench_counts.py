#!/usr/bin/env python3
"""Record the exact engine counts of the benchmark's traced passes.

Usage:
    python3 scripts/bench_counts.py

Runs the BENCHMARK.json command with
``--workload W --seed 1 --seconds 2 --trace 1`` for W in simulate and
verify, and writes every per-layer metric whose BENCHMARK.json unit is
``count`` to BENCH_counts.json at the repository root, keys sorted. The
counts repeat exactly across processes, so the file is gated with
``git diff --exit-code BENCH_counts.json``: a change that moves a count
commits the new file and says why. Serve is left out because its counts
depend on how its two clients interleave. Exits 1 if any job fails.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("simulate", "verify")
ARGS = ["--seed", "1", "--seconds", "2", "--trace", "1"]


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    record, failed = {}, 0
    for workload in WORKLOADS:
        out = subprocess.run(
            bench["command"] + ["--workload", workload] + ARGS,
            cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if result["failed"]:
            print(f"bench_counts: {workload}: {result['failed']} of "
                  f"{result['attempted']} jobs failed", file=sys.stderr)
            failed += result["failed"]
        metrics = result["metrics"]
        record[workload] = {n: int(metrics[n]["value"]) for n in names}
    path = ROOT / "BENCH_counts.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"bench_counts: wrote {path.name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
