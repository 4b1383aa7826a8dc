#!/usr/bin/env python3
"""Count non-test source lines per crate, served and test-support apart.

Usage: python3 ci/loc.py [REPO_ROOT]

For every `crates/<name>/src/**/*.rs` file (and the root crate's
`src/**/*.rs`, reported as `hqw`), everything from the first
`#[cfg(test)]` line on is dropped as test code. Of what remains, a line
is a comment line when it starts with `//` (doc comments included), a
code line when it is any other non-blank line; blank lines are not
counted.

Prints two sections, each with one row per crate and its own total: the
served crates, whose code the system runs, and the test-support crates
(`TEST_SUPPORT`), which only tests and benches link. So the served total
counts only the served system. Informational only: nothing here fails a
build.
"""

import pathlib
import sys

# Crates that only tests and benches link (dev-dependencies).
TEST_SUPPORT = ("oracle", "proptest-shim")


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


def count_crate(src):
    code = comments = 0
    for path in sorted(src.rglob("*.rs")):
        c, m = count_file(path)
        code += c
        comments += m
    return code, comments


def print_section(title, rows, width):
    print(f"{title:<{width}} {'code':>7} {'comment':>8}")
    for name, code, comments in rows:
        print(f"{name:<{width}} {code:>7} {comments:>8}")
    total_code = sum(r[1] for r in rows)
    total_comments = sum(r[2] for r in rows)
    print(f"{'total':<{width}} {total_code:>7} {total_comments:>8}")


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    served, support = [], []
    for src in sorted(root.glob("crates/*/src")):
        name = src.parent.name
        rows = support if name in TEST_SUPPORT else served
        rows.append((name, *count_crate(src)))
    if (root / "src").is_dir():
        served.append(("hqw", *count_crate(root / "src")))
    titles = ("served crate", "test-support crate")
    width = max([len(r[0]) for r in served + support] + [len(t) for t in titles])
    print_section(titles[0], served, width)
    print()
    print_section(titles[1], support, width)


if __name__ == "__main__":
    main()
