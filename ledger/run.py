#!/usr/bin/env python3
"""The benchmark's one command: builds `repro` and `ledger` in release mode,
runs workloads, prints every metric by name with its unit, checks outputs.

    run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
           [--smoke] [--out PATH]
    run.py --compare A.json B.json

One workload: the last line of standard output is the result object the
driver reads. `all`: one `ledger` process per workload, one after another,
so peak memory belongs to one workload; `--smoke` runs both the timed and
the traced set at test scale. `--out` appends each result to PATH (a set of
runs `--compare` reads) and, with `--trace 1`, writes the spans next to it.
Everything is built, written and run inside the checkout.
"""

import argparse
import functools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Below this a set-up time may move by its whole bound and still be noise.
SETUP_FLOOR_S = 0.02
# The driver stops a run after 180 s. A `ledger` process still measuring
# after this is stopped here, with everything it started, and the run fails
# with a message instead. A run on the reference host takes 7-25 s.
RUN_LIMIT_S = 150


@functools.lru_cache(maxsize=None)
def declared():
    """BENCHMARK.json: workloads, metric names, units, bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))


def build():
    """Builds both binaries; returns their directory."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for manifest, extra in (
        (os.path.join(HERE, "Cargo.toml"), []),
        (os.path.join(ROOT, "Cargo.toml"), ["-p", "experiments", "--bin", "repro"]),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest] + extra
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("ledger: build failed: " + " ".join(cmd))
    return os.path.join(target_dir(), "release")


def state_and_parent(pid):
    """(state, parent pid) of a process from /proc; None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            # "pid (comm) state ppid ..."; comm may hold spaces.
            state, ppid = f.read().rsplit(")", 1)[1].split()[:2]
        return state, int(ppid)
    except (OSError, ValueError):
        return None


def descendants(pid):
    """Every process below `pid`, children before grandchildren."""
    children = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            found = state_and_parent(entry)
            if found:
                children.setdefault(found[1], []).append(int(entry))
    below = []
    frontier = [pid]
    while frontier:
        frontier = [c for p in frontier for c in children.get(p, [])]
        below += frontier
    return below


def stop_tree(proc):
    """Kills `proc` and everything it started (the server, its workers), and
    returns once all of them have ended."""
    victims = descendants(proc.pid)
    proc.kill()
    proc.wait()
    for pid in victims:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    # Orphans are reaped by init, not by us: watch them end ("Z": ended,
    # not yet reaped).
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        if all((state_and_parent(pid) or ("Z",))[0] == "Z" for pid in victims):
            break
        time.sleep(0.01)


def run_one(bin_dir, workload, seed, seconds, trace, smoke, out):
    """Runs one `ledger` process; returns (exit code, result dict or None)."""
    # A fixed name: the allocator's peak moves by a tenth with the length of
    # this path on the small workloads, so it must not vary from run to run.
    scratch = os.path.join(target_dir(), "ledger-scratch")
    shutil.rmtree(scratch, ignore_errors=True)
    cmd = [
        os.path.join(bin_dir, "ledger"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--repro", os.path.join(bin_dir, "repro"),
        "--scratch", scratch,
    ]
    if smoke:
        cmd.append("--smoke")
    if out:
        cmd += ["--out", out]
    # Library code under test must not reach for /tmp either.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=dict(os.environ, TMPDIR=scratch))
    try:
        stdout, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"ledger: {workload}: still measuring after {RUN_LIMIT_S} s; stopped", file=sys.stderr)
        return 1, None
    finally:
        # On every way out, a time limit or an interrupt included: nothing
        # the run started is left running.
        stop_tree(proc)
        shutil.rmtree(scratch, ignore_errors=True)
    lines = stdout.strip().splitlines()
    try:
        return proc.returncode, dict(json.loads(lines[-1]), line=lines[-1])
    except (IndexError, ValueError):
        return proc.returncode or 1, None


def append(path, record):
    runs = []
    if os.path.exists(path):
        with open(path) as f:
            runs = json.load(f)["runs"]
    runs.append(record)
    with open(path, "w") as f:
        json.dump({"runs": runs}, f, indent=1)
        f.write("\n")


def check_names(result, trace):
    """The metric names and units printed must be the ones declared."""
    section = declared()["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    return want == got


def run_workloads(args):
    bin_dir = build()
    names = [w["name"] for w in declared()["workloads"]]
    if args.workload != "all":
        if args.workload not in names:
            sys.exit(f"ledger: unknown workload {args.workload}; one of {', '.join(names)} or all")
        names = [args.workload]
    traces = [0, 1] if args.smoke and args.workload == "all" else [args.trace]
    worst = 0
    last = None
    for trace in traces:
        for name in names:
            out = None
            if args.out:
                out = args.out if args.workload != "all" else f"{args.out}.{name}"
            code, result = run_one(bin_dir, name, args.seed, args.seconds, trace, args.smoke, out)
            if result is not None and not check_names(result, trace):
                print(f"ledger: {name}: printed metrics differ from BENCHMARK.json", file=sys.stderr)
                code = code or 1
            worst = worst or code
            if result is None:
                print(f"ledger: {name}: no result (exit {code})", file=sys.stderr)
                continue
            last = result.pop("line")
            if args.out:
                append(args.out, dict(result, workload=name, seed=args.seed, trace=trace, smoke=args.smoke))
            if len(names) > 1:
                for metric, m in result["metrics"].items():
                    print(f"{name:16} {metric:44} {m['value']:>18.6f} {m['unit']}")
                print(f"{name:16} {'fail_share':44} {result['failed'] / result['attempted']:>18.6f} ratio")
    if len(names) == 1 and last is not None:
        print(last)
    return worst


def quartile_range(values):
    """Distance between the first and third quartile, as the driver computes
    it; 0 for a single value."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(metric, a, b):
    """One of ok / regressed / unresolved for a declared end-to-end metric,
    given the values of the parent set `a` and of the change set `b`."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    allowed = metric["bound"] * abs(ma)
    if metric["name"] == "setup_s":
        allowed = max(allowed, SETUP_FLOOR_S)
    worse_by = sign * (mb - ma)
    # Runs too scattered to resolve a move of one bound: say so, unless
    # every run of the change reads better than every run of the parent.
    spread = max(quartile_range(a), quartile_range(b))
    if spread > allowed:
        clean_win = max(b) < min(a) if sign > 0 else min(b) > max(a)
        return "ok" if clean_win else "unresolved"
    return "regressed" if worse_by > allowed else "ok"


def load_runs(path):
    with open(path) as f:
        runs = [r for r in json.load(f)["runs"] if not r.get("smoke")]
    grouped = {}
    for r in runs:
        grouped.setdefault((r["workload"], r["trace"]), []).append(r)
    return grouped


def compare(path_a, path_b):
    bench = declared()
    a, b = load_runs(path_a), load_runs(path_b)
    exact = exact_names()
    bad = 0
    pairs = 0
    for w in bench["workloads"]:
        ra, rb = a.get((w["name"], 0), []), b.get((w["name"], 0), [])
        if not ra or not rb:
            print(f"{w['name']:16} (no timed runs in one of the sets)")
            continue
        for m in bench["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in ra]
            vb = [r["metrics"][m["name"]]["value"] for r in rb]
            v = verdict(m, va, vb)
            bad += v != "ok"
            print(
                f"{w['name']:16} {m['name']:12} {v:10} "
                f"{statistics.median(va):.6g} -> {statistics.median(vb):.6g} {m['unit']} "
                f"(n {len(va)}/{len(vb)}, bound {m['bound']:.0%})"
            )
        for set_name, runs in (("A", ra), ("B", rb)):
            if any(r["failed"] for r in runs):
                bad += 1
                print(f"{w['name']:16} fail_share  regressed  set {set_name} has failed operations")
        # Exact simulated statistics: compared run by run, per seed.
        ta = {r["seed"]: r for r in a.get((w["name"], 1), [])}
        tb = {r["seed"]: r for r in b.get((w["name"], 1), [])}
        for seed in sorted(set(ta) & set(tb)):
            pairs += 1
            for name in exact:
                xa, xb = ta[seed]["metrics"][name]["value"], tb[seed]["metrics"][name]["value"]
                if xa != xb:
                    bad += 1
                    print(f"{w['name']:16} {name} differs at seed {seed}: {xa!r} -> {xb!r}")
    print(f"{len(exact)} exact per-layer statistics compared over {pairs} pairs of traced runs (same workload, same seed)")
    print("sim.gpu.par2_ratio is exempt from the comparison: its run-to-run spread is wider than any bound")
    return 1 if bad else 0


def exact_names():
    """Per-layer metrics that repeat bit for bit for one seed, as the built
    `ledger` declares them."""
    out = subprocess.run(
        [os.path.join(target_dir(), "release", "ledger"), "--catalogue"],
        stdout=subprocess.PIPE, text=True, check=True,
    ).stdout
    return json.loads(out)["exact"]


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=float(declared()["run_seconds"]))
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = p.parse_args()
    # Asked to stop, leave through `run_one`'s clean-up like an interrupt does.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.compare:
        build()
        sys.exit(compare(*args.compare))
    sys.exit(run_workloads(args))


if __name__ == "__main__":
    main()
