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
counts only the served system. Under each section's total it names the
section's `LARGEST` largest files by the same rule (code lines, then
comment lines), so a change's per-file before and after can be read off.
Informational only: nothing here fails a build.
"""

import pathlib
import sys

# Crates that only tests and benches link (dev-dependencies).
TEST_SUPPORT = ("oracle", "proptest-shim")
# Files named under each section.
LARGEST = 5


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


def count_crate(src, root):
    """The crate's (code, comments) and each file's (path, code, comments)."""
    files = [
        (path.relative_to(root).as_posix(), *count_file(path))
        for path in sorted(src.rglob("*.rs"))
    ]
    return sum(f[1] for f in files), sum(f[2] for f in files), files


def print_section(title, rows, width):
    print(f"{title:<{width}} {'code':>7} {'comment':>8}")
    for name, code, comments, _ in rows:
        print(f"{name:<{width}} {code:>7} {comments:>8}")
    total_code = sum(r[1] for r in rows)
    total_comments = sum(r[2] for r in rows)
    print(f"{'total':<{width}} {total_code:>7} {total_comments:>8}")
    files = [f for row in rows for f in row[3]]
    largest = sorted(files, key=lambda f: (-f[1], -f[2], f[0]))[:LARGEST]
    path_width = max(len(f[0]) for f in largest)
    print("largest files:")
    for path, code, comments in largest:
        print(f"  {path:<{path_width}} {code:>7} {comments:>8}")


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    served, support = [], []
    for src in sorted(root.glob("crates/*/src")):
        name = src.parent.name
        rows = support if name in TEST_SUPPORT else served
        rows.append((name, *count_crate(src, root)))
    if (root / "src").is_dir():
        served.append(("hqw", *count_crate(root / "src", root)))
    titles = ("served crate", "test-support crate")
    width = max([len(r[0]) for r in served + support] + [len(t) for t in titles])
    print_section(titles[0], served, width)
    print()
    print_section(titles[1], support, width)


if __name__ == "__main__":
    main()
