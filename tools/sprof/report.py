#!/usr/bin/env python3
"""Attributes an sprof sample file to symbols and source lines.

    report.py SPROF_OUT [--top N] [--lines N] [--repo DIR]
    report.py --diff BEFORE AFTER [--wall S S] [--top N]

Each sampled address in an executable mapping is resolved with
`addr2line -f -i -C -a` against the mapped file. A sample counts once for
its *outermost* symbol (the function that was actually called; everything
inlined into it is folded in) and once for its *innermost line under the
repository* (where the time is spent in code we can change). Needs a
binary with debug info: the workspace's release profile has `debug = true`.

A stripped library has no line table, and for its addresses `addr2line`
names the nearest exported symbol *below*, however far that is. A frame it
cannot place on a line (`??:?`) is therefore named only when the address
lies inside a symbol's extent (`nm -S`, then `nm -D -S`); otherwise it is
counted under the library, as `[libc.so.6]`.

`--diff` prints the outermost-symbol table of two sample files side by
side — each symbol's share of its file's samples and, with `--wall` (the
`wall_s` a rep of each side measured *without* the sampler), that share
of the wall-clock in seconds — sorted by the larger of the two shares:
the before/after table ROADMAP item 1 keeps. Inlining moves time between
symbols, so read rows that moved together as one row.
"""

import argparse
import collections
import os
import subprocess
import sys


def parse(path):
    with open(path) as f:
        lines = f.read().splitlines()
    n = int(lines[0].split()[1])
    addrs = [int(a, 16) for a in lines[1 : 1 + n]]
    maps = []
    for line in lines[2 + n :]:
        parts = line.split(None, 5)
        if len(parts) < 6 or not parts[5].startswith("/"):
            continue
        lo, hi = (int(x, 16) for x in parts[0].split("-"))
        maps.append((lo, hi, int(parts[2], 16), parts[5]))
    return addrs, maps


def resolve(binary, offsets):
    """offset -> [(function, file:line)], innermost frame first."""
    out = subprocess.run(
        ["addr2line", "-f", "-i", "-C", "-a", "-e", binary] + [hex(o) for o in offsets],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    frames, cur = {}, None
    i = 0
    while i < len(out):
        if out[i].startswith("0x"):
            cur = frames.setdefault(int(out[i], 16), [])
            i += 1
        else:
            cur.append((out[i], out[i + 1].split(" (discriminator")[0]))
            i += 2
    return frames


def extents(binary):
    """Sorted (start, end, name) of every sized symbol `nm` lists in
    `binary`, from its symbol table and its dynamic one."""
    found = set()
    for flags in (["-S"], ["-D", "-S"]):
        out = subprocess.run(
            ["nm", "-C", "--defined-only"] + flags + [binary],
            capture_output=True,
            text=True,
        ).stdout
        for line in out.splitlines():
            parts = line.split(None, 3)
            if len(parts) == 4:
                try:
                    start, size = int(parts[0], 16), int(parts[1], 16)
                except ValueError:
                    continue
                if size:
                    found.add((start, start + size, parts[3]))
    return sorted(found)


def enclosing(symbols, off):
    """The innermost symbol whose extent holds `off`, if one does."""
    inside = [(start, -end, name) for start, end, name in symbols if start <= off < end]
    return max(inside)[2] if inside else None


def attribute(samples, repo):
    """(samples, unmapped, outermost-symbol counts, innermost-line counts)."""
    addrs, maps = parse(samples)
    # addr2line wants link-time addresses: for a position-independent file
    # that is the distance from where its first byte was mapped.
    base = {}
    for lo, _, off, path in maps:
        base[path] = min(base.get(path, lo - off), lo - off)
    for path in base:
        try:
            with open(path, "rb") as f:
                if f.read(18)[16:18] == b"\x02\x00":  # ET_EXEC: mapped where linked
                    base[path] = 0
        except OSError:
            pass
    by_binary = collections.defaultdict(collections.Counter)
    unmapped = 0
    for a in addrs:
        for lo, hi, _, path in maps:
            if lo <= a < hi:
                by_binary[path][a - base[path]] += 1
                break
        else:
            unmapped += 1

    outer, inner = collections.Counter(), collections.Counter()
    for binary, offsets in by_binary.items():
        try:
            frames = resolve(binary, sorted(offsets))
        except (OSError, subprocess.CalledProcessError):
            outer[f"[{os.path.basename(binary)}]"] += sum(offsets.values())
            continue
        symbols = None
        for off, n in offsets.items():
            stack = frames.get(off) or [("??", "??:0")]
            name = stack[-1][0]
            if stack[-1][1].startswith("??:"):
                # No line table here: trust a name only inside its symbol.
                if symbols is None:
                    symbols = extents(binary)
                name = enclosing(symbols, off) or "??"
            outer[name if name != "??" else f"[{os.path.basename(binary)}]"] += n
            for _, where in stack:
                src, _, line = where.rpartition(":")
                src = os.path.realpath(src) if src.startswith("/") else ""
                if src.startswith(repo):
                    inner[f"{src[len(repo):]}:{line}"] += n
                    break
    return len(addrs), unmapped, outer, inner


def diff(before, after, wall, top, repo):
    sides = [attribute(path, repo) for path in (before, after)]
    shares = [{name: n / total for name, n in outer.items()} for total, _, outer, _ in sides]
    names = sorted(
        set(shares[0]) | set(shares[1]),
        key=lambda name: -max(side.get(name, 0) for side in shares),
    )

    def cell(side, name):
        share = shares[side].get(name)
        if share is None:
            return "—"
        text = f"{100 * share:5.1f} %"
        return text + (f" · {share * wall[side]:.2f} s" if wall else "")

    width = max(len(cell(side, name)) for side in (0, 1) for name in names[:top])
    for side, label in enumerate(("before", "after")):
        wall_s = f", wall_s {wall[side]:g} s a rep" if wall else ""
        print(f"{label}: {sides[side][0]} samples{wall_s}  ({(before, after)[side]})")
    print(f"\n{'before':>{width}}  {'after':>{width}}  outermost symbol")
    for name in names[:top]:
        print(f"{cell(0, name):>{width}}  {cell(1, name):>{width}}  {name}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("samples", nargs="?")
    ap.add_argument("--diff", nargs=2, metavar=("BEFORE", "AFTER"), help="two sample files, side by side")
    ap.add_argument("--wall", nargs=2, type=float, metavar=("S", "S"), help="with --diff: wall_s of each side")
    ap.add_argument("--top", type=int, default=25, help="outer symbols to print")
    ap.add_argument("--lines", type=int, default=25, help="repository lines to print")
    ap.add_argument("--repo", default=os.getcwd(), help="repository root for the line table")
    args = ap.parse_args()
    repo = os.path.realpath(args.repo) + os.sep
    if args.diff:
        return diff(args.diff[0], args.diff[1], args.wall, args.top, repo)
    if not args.samples or args.wall:
        ap.error("give one sample file, or --diff BEFORE AFTER [--wall S S]")

    total, unmapped, outer, inner = attribute(args.samples, repo)
    print(f"{total} samples ({unmapped} outside any file mapping)")
    print(f"\n-- outermost symbol, top {args.top}")
    for name, n in outer.most_common(args.top):
        print(f"{100 * n / total:6.2f}%  {n:7d}  {name}")
    print(f"\n-- innermost line under {repo}, top {args.lines}")
    for where, n in inner.most_common(args.lines):
        print(f"{100 * n / total:6.2f}%  {n:7d}  {where}")


if __name__ == "__main__":
    sys.exit(main())
