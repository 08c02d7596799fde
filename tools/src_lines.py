#!/usr/bin/env python3
"""Line counts of `src/chasekit/*.py` at a git revision and in the working tree.

    python3 tools/src_lines.py HEAD
    python3 tools/src_lines.py main~3

For each module present at REV (read with `git show REV:path`) or in
the working tree, prints its line count at REV, its count now and the
delta, then a total line.  A module missing on one side counts 0 there.
Exits 2 when git cannot read REV.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/chasekit"


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout


def counts_at(rev: str) -> dict:
    """Module name -> line count at a revision."""
    names = _git("ls-tree", "--name-only", rev, PACKAGE + "/").split()
    return {Path(n).name: _git("show", "%s:%s" % (rev, n)).count("\n")
            for n in names if n.endswith(".py")}


def counts_now() -> dict:
    """Module name -> line count in the working tree."""
    return {p.name: p.read_text(encoding="utf-8").count("\n")
            for p in (ROOT / PACKAGE).glob("*.py")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev", help="the git revision to compare with")
    args = ap.parse_args(argv)
    try:
        before = counts_at(args.rev)
    except subprocess.CalledProcessError as exc:
        print("error: %s" % exc.stderr.strip(), file=sys.stderr)
        return 2
    after = counts_now()
    rows = [(name, before.get(name, 0), after.get(name, 0))
            for name in sorted(before.keys() | after.keys())]
    rows.append(("total", sum(before.values()), sum(after.values())))
    print("%-16s %6s %6s %6s" % ("module", "rev", "now", "delta"))
    for name, old, new in rows:
        print("%-16s %6d %6d %+6d" % (name, old, new, new - old))
    return 0


if __name__ == "__main__":
    sys.exit(main())
