#!/usr/bin/env python3
"""Paired benchmark runs: a parent commit against the working tree.

Usage:
    python3 scripts/bench_pairs.py PARENT SEED

Checks PARENT out with ``git worktree add --detach`` under .bench_build/
(removed again on exit) and builds perfbench in both trees before any
timing. Then, for each BENCHMARK.json workload, it runs PAIRS pairs of the
BENCHMARK.json command at ``run_seconds`` with ``--seed SEED --trace 0``;
pair i runs the parent first when i is even, so drift of the host's speed
over minutes falls on both sides alike.

Per workload and end-to-end metric it prints each side's median
[p25, p75], the pairs the change won (ties count for neither) and a
verdict from the metric's ``better`` and ``bound`` in BENCHMARK.json:

  worse         the change's median is worse than the parent's by more
                than the bound
  gain          the change won >= 9 of 10 pairs, and the medians differ
                by more than the parent's IQR
  unresolved    the parent's IQR / median exceeds the bound, and not every
                change run beats every parent run
  within bound  otherwise

It also prints failed / attempted jobs per side, and exits 1 on any
``worse`` verdict or failed job.
"""

import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def run(command, cwd):
    """One benchmark run: (metric values, attempted jobs, failed jobs)."""
    out = subprocess.run(command, cwd=cwd, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return values, result["attempted"], result["failed"]


def beats(a, b, better):
    return a < b if better == "lower" else a > b


def verdict(parent, change, better, bound):
    p25, p_med, p75 = statistics.quantiles(parent, n=4, method="inclusive")
    c_med = statistics.median(change)
    worse_by = (c_med - p_med) if better == "lower" else (p_med - c_med)
    wins = sum(beats(c, p, better) for p, c in zip(parent, change))
    if worse_by > bound * abs(p_med):
        return "worse", wins
    if wins >= 9 and -worse_by > p75 - p25:
        return "gain", wins
    every = all(beats(c, p, better) for c in change for p in parent)
    if (p75 - p25) > bound * abs(p_med) and not every:
        return "unresolved", wins
    return "within bound", wins


def spread(values):
    p25, med, p75 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{med:.4g} [{p25:.4g}, {p75:.4g}]"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    parent_rev, seed = sys.argv[1], sys.argv[2]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = bench["command"]
    build = ["build" if a == "run" else a for a in command if a != "--"]
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    parent_tree = Path(tempfile.mkdtemp(prefix="parent-", dir=ROOT / ".bench_build"))
    subprocess.run(["git", "worktree", "add", "--detach", str(parent_tree), parent_rev],
                   cwd=ROOT, check=True)
    bad = False
    try:
        trees = {"parent": parent_tree, "change": ROOT}
        for tree in trees.values():
            subprocess.run(build, cwd=tree, check=True)
        for workload in bench["workloads"]:
            name = workload["name"]
            args = ["--workload", name, "--seed", seed,
                    "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            samples = {side: [] for side in trees}
            jobs = {side: [0, 0] for side in trees}
            for i in range(PAIRS):
                order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
                for side in order:
                    values, attempted, failed = run(command + args, trees[side])
                    samples[side].append(values)
                    jobs[side][0] += failed
                    jobs[side][1] += attempted
            print(f"\n{name} (seed {seed}, {PAIRS} pairs, "
                  f"{bench['run_seconds']} s): parent -> change")
            for metric in bench["end_to_end"]:
                m = metric["name"]
                parent = [s[m] for s in samples["parent"]]
                change = [s[m] for s in samples["change"]]
                v, wins = verdict(parent, change, metric["better"], metric["bound"])
                bad |= v == "worse"
                print(f"  {m:<12} {spread(parent):>28} -> {spread(change):<28} "
                      f"won {wins}/{PAIRS}  {v}")
            for side, (failed, attempted) in jobs.items():
                bad |= failed > 0
                print(f"  {side} failed/attempted jobs: {failed}/{attempted}")
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(parent_tree)],
                       cwd=ROOT, check=False)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
