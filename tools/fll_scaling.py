#!/usr/bin/env python3
"""Seconds per answering strategy on object-logic databases of growing size.

    python3 tools/fll_scaling.py
    python3 tools/fll_scaling.py --sizes 20 40

For each size n (80, 160, 320 and 640 unless `--sizes` says otherwise),
builds `bench/gen.fll_program(random.Random(SEED), ..., n, False)`, the
`fll-egd` generator's database of n objects, writes its program text to
a temporary directory and times three in-process runs of each strategy:
the `chasekit` commands `answer --query m` with no `--strategy` (the
oblivious chase cut at depth 16), with `--strategy terminate`, with
`--egd separate` and with `--strategy blocked-atomic`, then `egd-check`,
and the library's `blocking_chase` on the parsed program.  Prints the median seconds, one
row per strategy and one column per size, headed by the object and fact
counts.  A command that exits with an error code stops the script with
exit code 1.

The benchmark's workloads stop at 6 objects, so a cost that grows with
the database shows here and not there.  chasekit is imported from `src/`
of this checkout; nothing under bench/ is changed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402  (bench/gen.py)
from chasekit.cli import main as cli  # noqa: E402
from chasekit.egdsep import blocking_chase  # noqa: E402
from chasekit.parser import parse_program  # noqa: E402

COMMANDS = {
    "answer (default)": ["answer", "--query", "m"],
    "--strategy terminate": ["answer", "--query", "m", "--strategy", "terminate"],
    "--egd separate": ["answer", "--query", "m", "--egd", "separate"],
    "blocked-atomic": ["answer", "--query", "m", "--strategy", "blocked-atomic"],
    "egd-check": ["egd-check"],
}
BLOCKING = "blocking_chase"
REPEATS = 3
SEED = 3


def timed(run) -> float:
    """The median seconds of REPEATS calls."""
    spent = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        spent.append(time.perf_counter() - start)
    return statistics.median(spent)


def column(path: Path) -> dict:
    """Seconds per strategy on the program file at path."""
    def command(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli(argv[:1] + [str(path)] + argv[1:])
        if code != 0:
            raise SystemExit("%s exited %d on %s" % (" ".join(argv), code, path))

    seconds = {name: timed(lambda: command(argv)) for name, argv in COMMANDS.items()}
    program = parse_program(path.read_text())
    seconds[BLOCKING] = timed(lambda: blocking_chase(program.facts, program.tgds,
                                                     program.egds))
    return seconds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[80, 160, 320, 640],
                    help="object counts, one column each (default: 80 160 320 640)")
    args = ap.parse_args(argv)
    heads, columns = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.sizes:
            program = gen.fll_program(random.Random(SEED), "fll%d" % n, n, False)
            path = Path(tmp) / ("fll%d.dlp" % n)
            path.write_text(program.text())
            heads.append("%d (%d)" % (n, len(program.facts)))
            columns.append(column(path))
    width = max(map(len, heads + ["0.000"]))
    print("%-22s %s" % ("objects (facts)", " ".join(h.rjust(width) for h in heads)))
    for name in list(COMMANDS) + [BLOCKING]:
        print("%-22s %s" % (name, " ".join(("%.3f" % c[name]).rjust(width) for c in columns)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
