#!/usr/bin/env python3
"""Count non-test source lines per crate.

Usage: python3 ci/loc.py [REPO_ROOT]

For every `crates/<name>/src/**/*.rs` file, everything from the first
`#[cfg(test)]` line on is dropped as test code. Of what remains, a line
is a comment line when it starts with `//` (doc comments included), a
code line when it is any other non-blank line; blank lines are not
counted. Prints one row per crate and a total row. Informational only:
nothing here fails a build.
"""

import pathlib
import sys


def count_file(path):
    code = comments = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if stripped.startswith("#[cfg(test)]"):
            break
        if not stripped:
            continue
        if stripped.startswith("//"):
            comments += 1
        else:
            code += 1
    return code, comments


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    rows = []
    for src in sorted(root.glob("crates/*/src")):
        code = comments = 0
        for path in sorted(src.rglob("*.rs")):
            c, m = count_file(path)
            code += c
            comments += m
        rows.append((src.parent.name, code, comments))
    total_code = sum(r[1] for r in rows)
    total_comments = sum(r[2] for r in rows)
    width = max([len(r[0]) for r in rows] + [len("total")])
    print(f"{'crate':<{width}} {'code':>7} {'comment':>8}")
    for name, code, comments in rows:
        print(f"{name:<{width}} {code:>7} {comments:>8}")
    print(f"{'total':<{width}} {total_code:>7} {total_comments:>8}")


if __name__ == "__main__":
    main()
