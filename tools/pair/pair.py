#!/usr/bin/env python3
"""Runs two builds of the benchmark at the same time, one per core.

    pair.py PARENT CHANGE --workload W --rounds N [--seed S] [--metric M]
            [--seconds S]

PARENT and CHANGE are checkouts whose `.bench_build/release/{ledger,repro}`
are built (`python3 ledger/run.py --workload W --smoke` in each builds
them). Every round starts both `ledger` processes together, each pinned to
its own core with `taskset`, and swaps the cores the next round, so a host
that speeds up or slows down moves both sides alike. Each side gets its own
`--scratch` and `TMPDIR` under its build directory, removed afterwards, so
PARENT and CHANGE may be the same tree (the parent against itself).

Prints each round's change/parent ratio of `--metric` (default `wall_s`),
then for every end-to-end metric each side's median and quartiles and the
verdict `ledger/run.py --compare` would give. Exits non-zero if a run
fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "ledger"))
sys.dont_write_bytecode = True  # leave nothing behind in ledger/
import run as ledger  # noqa: E402  (BENCHMARK.json, the verdict rule, stop_tree)


def start(side, cpu, args):
    """Starts one side's `ledger` on `cpu`; returns (process, scratch)."""
    build = os.path.join(os.path.abspath(getattr(args, side)), ".bench_build")
    bin_dir = os.path.join(build, "release")
    scratch = os.path.join(build, f"pair-scratch-{side}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = [
        "taskset", "-c", str(cpu),
        os.path.join(bin_dir, "ledger"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "0",
        "--repro", os.path.join(bin_dir, "repro"),
        "--scratch", scratch,
    ]
    env = dict(os.environ, TMPDIR=scratch)
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env), scratch


def finish(proc, scratch):
    """Waits for one side; returns its result object or None."""
    try:
        stdout, _ = proc.communicate(timeout=ledger.RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        stdout = ""
    finally:
        ledger.stop_tree(proc)
        shutil.rmtree(scratch, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--metric", default="wall_s")
    p.add_argument("--seconds", type=float, default=float(ledger.declared()["run_seconds"]))
    args = p.parse_args()

    runs = {"parent": [], "change": []}
    for r in range(args.rounds):
        cpus = {"parent": r % 2, "change": 1 - r % 2}
        started = {side: start(side, cpus[side], args) for side in runs}
        results = {side: finish(*started[side]) for side in runs}
        for side, result in results.items():
            if result is None:
                sys.exit(f"pair: round {r + 1}: {side} failed")
            if result["failed"]:
                sys.exit(f"pair: round {r + 1}: {side} has {result['failed']} failed operation(s)")
            runs[side].append(result["metrics"])
        a, b = (results[s]["metrics"][args.metric]["value"] for s in ("parent", "change"))
        print(
            f"round {r + 1:2}: parent cpu{cpus['parent']} {a:.6g}  change cpu{cpus['change']} {b:.6g}"
            f"  ratio {b / a:.3f}",
            flush=True,
        )

    ratios = [b[args.metric]["value"] / a[args.metric]["value"] for a, b in zip(runs["parent"], runs["change"])]
    print(f"{args.metric} ratio: median {statistics.median(ratios):.3f}, change lower in "
          f"{sum(x < 1 for x in ratios)} of {len(ratios)}")
    for m in ledger.declared()["end_to_end"]:
        va, vb = ([r[m["name"]]["value"] for r in runs[s]] for s in ("parent", "change"))
        (qa1, qa3), (qb1, qb3) = quartiles(va), quartiles(vb)
        print(
            f"{m['name']:12} parent {statistics.median(va):.6g} [{qa1:.6g}, {qa3:.6g}]  "
            f"change {statistics.median(vb):.6g} [{qb1:.6g}, {qb3:.6g}] {m['unit']}  "
            f"{ledger.verdict(m, va, vb)}"
        )


if __name__ == "__main__":
    main()
