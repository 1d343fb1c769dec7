#!/usr/bin/env python3
"""Checks that docs/tools.md documents exactly the flags umicro_cli has.

Runs the umicro_cli binary with no arguments, which prints its usage
text (generated from the CLI's flag table) on stderr and exits 2, and
collects every ``--flag`` that opens a usage line. It then collects the
flags named in the first cell of each table row of the umicro_cli
section of docs/tools.md and diffs the two sets in both directions,
failing with a per-flag report on any drift.

Usage: python3 tools/check_cli_flags.py UMICRO_CLI [docs/tools.md]
Exit status: 0 when the sets match, 1 otherwise.
"""

import pathlib
import re
import subprocess
import sys

USAGE_FLAG_RE = re.compile(r"^\s+--([a-z][a-z0-9-]*)")
DOC_FLAG_RE = re.compile(r"`--([a-z][a-z0-9-]*)")


def cli_flags(binary: str) -> set:
    result = subprocess.run([binary], capture_output=True, text=True,
                            check=False)
    if result.returncode != 2:
        sys.exit(f"{binary} without arguments exited {result.returncode}, "
                 "expected 2 with the usage text")
    flags = set()
    for line in result.stderr.splitlines():
        match = USAGE_FLAG_RE.match(line)
        if match:
            flags.add(match.group(1))
    return flags


def doc_flags(doc: pathlib.Path) -> set:
    """Flags in the first cell of the table rows of the umicro_cli
    section (from its heading up to the next second-level heading)."""
    section = doc.read_text(encoding="utf-8").split("## umicro_cli", 1)[1]
    section = section.split("\n## ", 1)[0]
    flags = set()
    for line in section.splitlines():
        if line.startswith("|"):
            flags.update(DOC_FLAG_RE.findall(line.split("|")[1]))
    return flags


def main() -> int:
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    root = pathlib.Path(__file__).resolve().parent.parent
    doc = pathlib.Path(sys.argv[2]) if len(sys.argv) > 2 else (
        root / "docs" / "tools.md")
    in_cli = cli_flags(sys.argv[1])
    in_doc = doc_flags(doc)
    problems = [f"--{flag}: in umicro_cli but not documented in {doc.name}"
                for flag in sorted(in_cli - in_doc)]
    problems += [f"--{flag}: documented in {doc.name} but not a umicro_cli "
                 "flag" for flag in sorted(in_doc - in_cli)]
    for line in problems:
        print(line, file=sys.stderr)
    print(f"checked {len(in_cli)} umicro_cli flags against {doc.name}, "
          f"{len(problems)} mismatched")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
