#!/usr/bin/env python3
"""Where a `chasekit` start spends its import time.

    python3 tools/startup_time.py
    python3 tools/startup_time.py --runs 25

Runs `python -X importtime -c "import chasekit.cli"` in N fresh
subprocesses (11 unless `--runs` says otherwise), with chasekit taken
from `src/` of this checkout and the caller's environment otherwise, so
`PYTHONDONTWRITEBYTECODE=1` makes every run compile chasekit from
source, as the benchmark's set-ups do.  Prints the median self and
cumulative milliseconds of each chasekit module, then of each other
module that importing chasekit pulled in, each group by cumulative time.
Modules the interpreter had loaded before (by `site`, say) are not
listed: a start does not pay for them again.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

SRC = Path(__file__).resolve().parent.parent / "src"
TARGET = "chasekit.cli"
PREFIX = "import time:"


def chasekit_imports(report: str) -> List[Tuple[str, int, int]]:
    """(module, self us, cumulative us) of every line `-X importtime`
    printed for importing TARGET: the block from after the previous
    top-level import to TARGET's own line, which closes it."""
    rows: List[Tuple[str, int, int]] = []
    for line in report.splitlines():
        if not line.startswith(PREFIX) or "[us]" in line:
            continue
        own, cumulative, name = line[len(PREFIX):].split("|")
        module = name.strip()
        if name[1:2] != " ":  # a top-level import
            if module == TARGET:
                return rows + [(module, int(own), int(cumulative))]
            rows = []
            continue
        rows.append((module, int(own), int(cumulative)))
    raise ValueError("no top-level import of %s in the report" % TARGET)


def measure(runs: int) -> Dict[str, Tuple[List[int], List[int]]]:
    """Each module's self and cumulative microseconds, one pair per run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times: Dict[str, Tuple[List[int], List[int]]] = {}
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import " + TARGET],
                              env=env, capture_output=True, text=True, check=True)
        for module, own, cumulative in chasekit_imports(proc.stderr):
            own_list, cumulative_list = times.setdefault(module, ([], []))
            own_list.append(own)
            cumulative_list.append(cumulative)
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=11, help="fresh interpreters to time")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    times = measure(args.runs)
    rows = [(module, statistics.median(own) / 1e3, statistics.median(cumulative) / 1e3)
            for module, (own, cumulative) in times.items()]
    rows.sort(key=lambda row: (row[0].split(".")[0] != "chasekit", -row[2]))
    print("%-32s %9s %9s   (median ms of %d runs)" % ("module", "self", "cumul", args.runs))
    for module, own, cumulative in rows:
        print("%-32s %9.2f %9.2f" % (module, own, cumulative))
    return 0


if __name__ == "__main__":
    sys.exit(main())
