#!/usr/bin/env python3
"""Line counts of `src/chasekit/*.py` at a git revision and in the working tree.

    python3 tools/src_lines.py HEAD
    python3 tools/src_lines.py main~3

For each module present at REV (read with `git show REV:path`) or in
the working tree, prints its line count at REV, its count now and the
delta, then the same three for the lines that sit inside docstrings or
comments (`doc_lines`), then a total line.  A module missing on one side
counts 0 there.  Exits 2 when git cannot read REV.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/chasekit"


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout


def doc_lines(source: str) -> int:
    """The lines of a module that sit inside a docstring (of the module,
    a class or a function) or hold a comment and no code."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    text = source.splitlines()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        row = tok.start[0]
        if tok.type == tokenize.COMMENT and text[row - 1].lstrip().startswith("#"):
            lines.add(row)
    return len(lines)


def _counts(sources: dict) -> dict:
    """Module name -> (lines, docstring and comment lines)."""
    return {name: (text.count("\n"), doc_lines(text)) for name, text in sources.items()}


def _total(counts: dict) -> tuple:
    """(lines, doc lines) summed over the modules."""
    return sum(n for n, _ in counts.values()), sum(d for _, d in counts.values())


def counts_at(rev: str) -> dict:
    """Module name -> (lines, doc lines) at a revision."""
    names = _git("ls-tree", "--name-only", rev, PACKAGE + "/").split()
    return _counts({Path(n).name: _git("show", "%s:%s" % (rev, n))
                    for n in names if n.endswith(".py")})


def counts_now() -> dict:
    """Module name -> (lines, doc lines) in the working tree."""
    return _counts({p.name: p.read_text(encoding="utf-8")
                    for p in (ROOT / PACKAGE).glob("*.py")})


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
    rows = [(name, before.get(name, (0, 0)), after.get(name, (0, 0)))
            for name in sorted(before.keys() | after.keys())]
    rows.append(("total", _total(before), _total(after)))
    print("%-16s %6s %6s %6s %8s %8s %6s"
          % ("module", "rev", "now", "delta", "doc rev", "doc now", "delta"))
    for name, (old, old_doc), (new, new_doc) in rows:
        print("%-16s %6d %6d %+6d %8d %8d %+6d"
              % (name, old, new, new - old, old_doc, new_doc, new_doc - old_doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
