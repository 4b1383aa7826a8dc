#!/usr/bin/env python3
"""List the public items of the served crates that no caller uses.

Usage: python3 ci/callers.py [REPO_ROOT]
       python3 ci/callers.py --self-test

An item is a `pub fn`, `pub struct`, `pub enum`, `pub trait`, `pub type`,
`pub const` or `pub static` in the non-test code of a served crate (the
crates `ci/loc.py` counts as served: every `crates/<name>/src` outside
`loc.TEST_SUPPORT`, and the root `src`). As in `ci/loc.py`, a file's
code ends at its first `#[cfg(test)]` line.

Callers are the following code, with comments and string literals
stripped:
  - the non-test code of the served crates themselves;
  - `examples/`, `crates/bench/benches/` and `e2ebench/src/`.
The test-support crates are test code, so an item that only they call
has no caller.
An item has a caller when its name appears there as a whole word outside
its own definition line and outside `pub use` re-exports. The headers of
a type's own `impl` blocks do not count as callers of that type. The match
is by name alone, so items that share a name share their callers.

Each caller-less item must be listed in `ci/callers_allow.txt` as
`<item path> <reason>`, one per line (`#` starts a comment). The script
prints the caller-less items, appends the list to `$GITHUB_STEP_SUMMARY`
when that variable is set, and exits 1 when a caller-less item is not
allowed or an allowed entry no longer names a caller-less item. So the
list can only shrink.

`--self-test` copies the fixture tree `ci/callers_fixture/` to a temporary
directory. It checks that the gate passes on the tree as committed, and
that it fails on a planted caller-less `pub fn`, on a stale allowlist
entry, and on a planted function whose only other mention is a `pub use`.
"""

import os
import pathlib
import re
import shutil
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from loc import TEST_SUPPORT  # noqa: E402

ALLOWLIST = "ci/callers_allow.txt"
FIXTURE = pathlib.Path(__file__).resolve().parent / "callers_fixture"
# Caller trees read whole: none of them holds unit tests.
EXTRA_CALLERS = ("examples", "crates/bench/benches", "e2ebench/src")

ITEM = re.compile(
    r"^[ \t]*pub[ \t]+(?:(?:const|async|unsafe)[ \t]+)*"
    r"(fn|struct|enum|trait|type|const|static)[ \t]+([A-Za-z_]\w*)",
    re.M,
)
PUB_USE = re.compile(r"\bpub\s*(?:\([^)]*\)\s*)?use\b[^;]*;")
# Item-level `impl` blocks only: `impl Trait` in a signature opens none.
IMPL = re.compile(r"^[ \t]*(?:unsafe[ \t]+)?impl\b", re.M)
INLINE_MOD = re.compile(r"\bmod\s+(\w+)\s*\{")
WORD = re.compile(r"[A-Za-z_]\w*")
# A word right after one of these keywords is a definition, not a use
# (`'static` is a lifetime, not the keyword).
DEFINED = re.compile(r"(?<!')\b(?:fn|struct|enum|trait|type|const|static|mod)\s+$")
TYPE_KINDS = ("struct", "enum", "trait", "type")
CHAR = re.compile(r"'(?:\\(?:x[0-9a-fA-F]{2}|u\{[0-9a-fA-F]*\}|.)|[^\\'\n])'")
RAW_STRING = re.compile(r'b?r(#*)"')


def strip_rust(text):
    """`text` with comments and the contents of string and char literals
    blanked. Newlines are kept, so line numbers stay valid."""
    out = []
    i, n = 0, len(text)

    def blank(j):
        out.append(re.sub(r"[^\n]", " ", text[i:j]))
        return j

    while i < n:
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = blank(n if j < 0 else j)
        elif text.startswith("/*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                step = text[j : j + 2]
                depth += {"/*": 1, "*/": -1}.get(step, 0)
                j += 2 if step in ("/*", "*/") else 1
            i = blank(j)
        elif (m := RAW_STRING.match(text, i)) and not (i and (text[i - 1].isalnum() or text[i - 1] == "_")):
            close = '"' + m.group(1)
            j = text.find(close, m.end())
            i = blank(n if j < 0 else j + len(close))
        elif text[i] == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            i = blank(j + 1)
        elif text[i] == "'" and (m := CHAR.match(text, i)):
            i = blank(m.end())
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def cut_tests(text):
    """The code before the first `#[cfg(test)]` line, as `ci/loc.py` cuts."""
    m = re.search(r"^[ \t]*#\[cfg\(test\)\]", text, re.M)
    return text[: m.start()] if m else text


def matching_brace(code, start):
    """The offset just past the `}` that closes the `{` at `start`."""
    depth = 0
    for k in range(start, len(code)):
        depth += {"{": 1, "}": -1}.get(code[k], 0)
        if depth == 0:
            return k + 1
    return len(code)


def impl_type(head):
    """The self type of an `impl` header (the text between `impl` and `{`)."""
    head = head.strip()
    if head.startswith("<"):
        depth = 0
        for k, ch in enumerate(head):
            depth += {"<": 1, ">": -1}.get(ch, 0)
            if depth == 0:
                head = head[k + 1 :]
                break
    head = re.split(r"\bwhere\b", head)[0]
    head = re.split(r"\bfor\b", head)[-1].split("<")[0]
    names = [w for w in WORD.findall(head) if w != "dyn"]
    return names[-1] if names else None


def line_of(code, offset):
    return code.count("\n", 0, offset)


class Source:
    """One stripped caller file: its words by line, the lines of its
    `pub use` re-exports, and its `impl` and inline `mod` blocks."""

    def __init__(self, path, code):
        self.path, self.code = path, code
        self.reexport_lines = set()
        for m in PUB_USE.finditer(code):
            self.reexport_lines.update(range(line_of(code, m.start()), line_of(code, m.end()) + 1))
        # (name, first offset, end offset, header lines or None for a mod)
        self.blocks = []
        for m in IMPL.finditer(code):
            brace = code.find("{", m.end())
            if brace >= 0:
                lines = range(line_of(code, m.start()), line_of(code, brace) + 1)
                self.blocks.append((impl_type(code[m.end() : brace]), brace, matching_brace(code, brace), lines))
        for m in INLINE_MOD.finditer(code):
            brace = m.end() - 1
            self.blocks.append((m.group(1), brace, matching_brace(code, brace), None))
        # Each word's lines, less its definitions and the re-exports.
        self.words = {}
        for lineno, line in enumerate(code.split("\n")):
            if lineno not in self.reexport_lines:
                for m in WORD.finditer(line):
                    if not DEFINED.search(line[: m.start()]):
                        self.words.setdefault(m.group(), []).append(lineno)

    def owners(self, offset):
        """The names of the `impl` types and inline `mod`s around `offset`."""
        inside = [b for b in self.blocks if b[1] < offset < b[2]]
        return [b[0] for b in sorted(inside, key=lambda b: b[1])]

    def own_impl_lines(self, name):
        return {k for b in self.blocks if b[0] == name and b[3] for k in b[3]}


def crate_name(src):
    """`hqw_math` for `crates/math/src`: the package name, `-` as `_`."""
    manifest = src.parent / "Cargo.toml"
    if manifest.is_file():
        m = re.search(r'^name\s*=\s*"([^"]+)"', manifest.read_text(encoding="utf-8"), re.M)
        if m:
            return m.group(1).replace("-", "_")
    return src.parent.name


def module_path(crate, src, path):
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] in ("lib", "main", "mod"):
        parts.pop()
    return "::".join([crate, *parts])


def load(root):
    """Every caller file as a `Source`, and the served crates' public
    items as (item path, kind, name, `file:line`)."""
    sources, items = [], []
    served = [(crate_name(src), src) for src in sorted(root.glob("crates/*/src")) if src.parent.name not in TEST_SUPPORT]
    if (root / "src").is_dir():
        served.append(("hqw", root / "src"))
    for crate, src in served:
        for path in sorted(src.rglob("*.rs")):
            source = Source(path, strip_rust(cut_tests(path.read_text(encoding="utf-8"))))
            sources.append(source)
            modpath = module_path(crate, src, path)
            for m in ITEM.finditer(source.code):
                kind, name = m.groups()
                where = f"{path.relative_to(root).as_posix()}:{line_of(source.code, m.start()) + 1}"
                items.append(("::".join([modpath, *source.owners(m.start(2)), name]), kind, name, where))
    for tree in EXTRA_CALLERS:
        for path in sorted((root / tree).rglob("*.rs")):
            sources.append(Source(path, strip_rust(path.read_text(encoding="utf-8"))))
    return sources, items


def has_caller(item, sources):
    _, kind, name, _ = item
    for source in sources:
        skip = source.own_impl_lines(name) if kind in TYPE_KINDS else ()
        if any(k not in skip for k in source.words.get(name, ())):
            return True
    return False


def read_allowlist(root):
    """{item path: reason} from the allowlist; a missing reason is an error."""
    allowed, errors = {}, []
    path = root / ALLOWLIST
    text = path.read_text(encoding="utf-8") if path.is_file() else ""
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        entry, _, reason = line.partition(" ")
        if not reason.strip():
            errors.append(f"{ALLOWLIST}:{lineno}: `{entry}` gives no reason")
        allowed[entry] = reason.strip()
    return allowed, errors


def check(root):
    """(report lines, failure lines) of the gate on the tree at `root`."""
    sources, items = load(root)
    loose = sorted({item[0]: item for item in items if not has_caller(item, sources)}.values())
    allowed, failures = read_allowlist(root)
    report = [f"{len(loose)} public item(s) of the served crates have no caller:"]
    for path, _, _, where in loose:
        tag = f"allowed: {allowed[path]}" if path in allowed else "NOT ALLOWED"
        report.append(f"  {path}  ({where}, {tag})")
    names = {item[0] for item in loose}
    failures += [f"{path} has no caller and is not in {ALLOWLIST}" for path in sorted(names - allowed.keys())]
    failures += [f"{ALLOWLIST} lists {path}, which is no longer a caller-less item" for path in sorted(allowed.keys() - names)]
    return report, failures


def run(root):
    report, failures = check(root)
    lines = report + [f"error: {f}" for f in failures]
    print("\n".join(lines))
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as f:
            f.write("### Caller-less public items\n\n```\n" + "\n".join(lines) + "\n```\n")
    return 1 if failures else 0


def self_test():
    """The gate passes on the fixture and fails on each planted fault,
    naming the planted item."""
    planted = "\npub fn planted_orphan() -> u32 {\n    7\n}\n"
    gauge = "crates/demo/src/gauge.rs"
    cases = [
        ("the fixture as committed", {}, None),
        ("a planted caller-less pub fn", {gauge: planted}, "hqw_demo::gauge::planted_orphan has no caller"),
        ("a stale allowlist entry", {ALLOWLIST: "hqw_demo::gone  stale\n"}, "lists hqw_demo::gone"),
        (
            "a pub fn whose only other mention is a pub use",
            {gauge: planted, "src/lib.rs": "pub use hqw_demo::gauge::planted_orphan;\n"},
            "hqw_demo::gauge::planted_orphan has no caller",
        ),
    ]
    ok = True
    for title, appends, expected in cases:
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp) / "tree"
            shutil.copytree(FIXTURE, root)
            for rel, text in appends.items():
                with open(root / rel, "a", encoding="utf-8") as f:
                    f.write(text)
            _, failures = check(root)
        if expected is None:
            good = not failures
        else:
            good = len(failures) == 1 and expected in failures[0]
        ok &= good
        print(f"{'ok' if good else 'WRONG'}: {title}: {failures or 'passes'}")
    return 0 if ok else 1


def main():
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    return run(pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "."))


if __name__ == "__main__":
    sys.exit(main())
