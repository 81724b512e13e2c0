#!/usr/bin/env python3
"""Non-test line count of the workspace crates, and its change between revisions.

The count: every line of every `.rs` file under `crates/*/src`, minus each
top-level `#[cfg(test)]` / `#[cfg(all(test, ..))]` item, from its attribute
line through the `;` or matching closing brace that ends it.

    python3 tools/loc/loc.py                  # the working tree
    python3 tools/loc/loc.py REV              # one revision
    python3 tools/loc/loc.py REV_A REV_B      # per-file deltas, A -> B
    python3 tools/loc/loc.py REV_A .          # A -> the working tree
    python3 tools/loc/loc.py -h               # this text

A revision git does not know is reported on one line, with exit status 2.
"""

import re
import subprocess
import sys
from pathlib import Path

TEST_ATTR = re.compile(r"#\[cfg\((test|all\(test\b.*)\)\]")
SOURCE = re.compile(r"crates/[^/]+/src/.*\.rs")
RAW_STRING = re.compile(r'b?r(#*)"')
CHAR = re.compile(r"'(\\u\{[0-9a-fA-F]+\}|\\.|[^\\'])'")


def skip_code(text, i):
    """Index just past the string, char or comment starting at `text[i]`,
    or `i + 1` when nothing of the kind starts there."""
    raw = RAW_STRING.match(text, i)
    if raw and (i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")):
        close = '"' + raw.group(1)
        return text.index(close, raw.end()) + len(close)
    c = text[i]
    if c == '"':
        j = i + 1
        while text[j] != '"':
            j += 2 if text[j] == "\\" else 1
        return j + 1
    if text.startswith("//", i):
        end = text.find("\n", i)
        return len(text) if end < 0 else end
    if text.startswith("/*", i):
        depth, j = 1, i + 2
        while depth:
            if text.startswith("/*", j):
                depth, j = depth + 1, j + 2
            elif text.startswith("*/", j):
                depth, j = depth - 1, j + 2
            else:
                j += 1
        return j
    if c == "'":
        char = CHAR.match(text, i)
        return char.end() if char else i + 1
    return i + 1


def item_end(text, start):
    """Index just past the item that starts at `start`: its first `;` at
    depth 0, or the brace that closes its first `{`."""
    depth, i = 0, start
    while i < len(text):
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c == ";" and depth == 0:
            return i + 1
        if c in "{};":
            i += 1
        else:
            i = skip_code(text, i)
    return len(text)


def non_test_lines(text):
    lines = text.count("\n") + (0 if text.endswith("\n") or not text else 1)
    at = 0
    for m in re.finditer(r"^#\[cfg\([^\n]*\)\]", text, re.M):
        if m.start() < at or not TEST_ATTR.fullmatch(m.group(0)):
            continue
        at = item_end(text, m.end())
        lines -= text.count("\n", m.start(), at) + 1
    return lines


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout


def counts(rev):
    """`{path: non-test lines}` at `rev`, or in the working tree for `.`."""
    if rev == ".":
        paths = [str(p) for p in Path(".").glob("crates/*/src/**/*.rs")]
        return {p: non_test_lines(Path(p).read_text()) for p in paths}
    try:
        listing = git("ls-tree", "-r", "--name-only", rev, "crates")
    except subprocess.CalledProcessError:
        print(f"loc.py: unknown revision `{rev}`", file=sys.stderr)
        sys.exit(2)
    paths = [p for p in listing.split() if SOURCE.fullmatch(p)]
    return {p: non_test_lines(git("show", f"{rev}:{p}")) for p in paths}


def main(argv):
    if "-h" in argv or "--help" in argv:
        print(__doc__)
        return
    if len(argv) > 2:
        sys.exit(__doc__)
    if len(argv) < 2:
        table = counts(argv[0] if argv else ".")
        for path in sorted(table):
            print(f"{table[path]:7d}  {path}")
        print(f"{sum(table.values()):7d}  total")
        return
    old, new = counts(argv[0]), counts(argv[1])
    for path in sorted(old.keys() | new.keys()):
        a, b = old.get(path, 0), new.get(path, 0)
        if a != b:
            print(f"{a:7d} {b:7d} {b - a:+6d}  {path}")
    a, b = sum(old.values()), sum(new.values())
    print(f"{a:7d} {b:7d} {b - a:+6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
