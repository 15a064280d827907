#!/usr/bin/env python3
"""Keep docs/cli.md honest, in both directions: every flag documented
for a binary must appear in that binary's --help output, and every
flag a binary's --help advertises must be documented.

Usage:
    scripts/check_cli_docs.py pbs_exp=./build/pbs_exp \
        pbs_bench=./build/pbs_bench pbs_prof=./build/pbs_prof

docs/cli.md is split into sections by its "## `<binary>`" headings; a
section ends at the next "## " heading of any kind, so a trailing
section such as "## Environment" belongs to no binary. Within each
binary's section every `--long-flag` token is collected and checked
against the corresponding binary's --help text — and vice versa, so a
newly-added flag cannot ship undocumented. Flags mentioned for a
binary that has no section (or sections for unknown binaries) fail the
check too, so the reference can never silently drift from the CLIs.
"""

import re
import subprocess
import sys
from pathlib import Path

FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
SECTION_RE = re.compile(r"^##\s+`([a-z_]+)`", re.MULTILINE)
HEADING_RE = re.compile(r"^##\s", re.MULTILINE)
DOCS = Path(__file__).resolve().parent.parent / "docs" / "cli.md"


def help_text(binary: str) -> str:
    # pbs_bench prints usage to stderr; capture both streams.
    proc = subprocess.run(
        [binary, "--help"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=60,
    )
    return proc.stdout


def sections(text: str) -> dict:
    """Map binary name -> its section text (its heading to the next
    level-2 heading of any kind, or the end of the file)."""
    out = {}
    for m in SECTION_RE.finditer(text):
        nxt = HEADING_RE.search(text, m.end())
        end = nxt.start() if nxt else len(text)
        out[m.group(1)] = text[m.start():end]
    return out


def main() -> int:
    binaries = {}
    for arg in sys.argv[1:]:
        name, _, path = arg.partition("=")
        if not path:
            print(f"bad argument (want name=path): {arg}")
            return 2
        binaries[name] = path
    if not binaries:
        print(__doc__)
        return 2

    text = DOCS.read_text()
    docs = sections(text)
    failures = []

    for name in sorted(binaries):
        if name not in docs:
            failures.append(f"docs/cli.md has no '## `{name}`' section")
    for name in sorted(docs):
        if name not in binaries:
            failures.append(
                f"docs/cli.md section '{name}' has no binary to check "
                f"against (pass {name}=<path>)"
            )

    for name, path in sorted(binaries.items()):
        if name not in docs:
            continue
        documented = set(FLAG_RE.findall(docs[name]))
        available = set(FLAG_RE.findall(help_text(path)))
        for flag in sorted(documented - available):
            failures.append(
                f"{name}: docs/cli.md documents {flag}, which is not in "
                f"`{name} --help`"
            )
        for flag in sorted(available - documented):
            failures.append(
                f"{name}: `{name} --help` advertises {flag}, which "
                f"docs/cli.md does not document"
            )
        print(
            f"{name}: {len(documented)} documented flags, "
            f"{len(documented & available)} verified against --help"
        )

    for f in failures:
        print(f"FAIL: {f}")
    if not failures:
        print("docs/cli.md is in sync with the binaries' --help output")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
