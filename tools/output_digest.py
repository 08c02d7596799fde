#!/usr/bin/env python3
"""Byte-identity check of the benchmark workloads' outputs.

    python3 tools/output_digest.py 1 7 21 22 > before.txt
    python3 tools/output_digest.py --expect before.txt 1 7 21 22
    python3 tools/output_digest.py --workload wg-saturate \
        --workload wg-saturate-failing 1 7

For each seed, builds every benchmark workload (bench/gen.py), or only
those named by `--workload`, runs each of its jobs once with the
benchmark's in-process runner (bench/run.py) and prints one sha256 per
workload over the exit code and stdout of every job, in job order.
Program files go to a temporary directory.  Two checkouts print the
same lines exactly when every job printed the same bytes and exited
with the same code, so running the script in both shows whether a
change altered any output.  `--expect FILE` compares each printed line
with the line of the same seed and workload in FILE, as printed by an
earlier run (of another checkout, say), and exits 1 if any differs or is
missing there.  `CHASEKIT_MAX_MEMORY_MB` is unset for the jobs, so a cap
in the caller's environment cannot blank an output.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (bench/run.py, which also puts bench/ on the path)


def workload_digest(workload: str, seed: int) -> str:
    """sha256 over the exit code and stdout of every job of one workload."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        chasekit, built = run.setup(workload, seed, Path(tmp))
        runner = run.Runner(chasekit, Path(tmp))
        for job in built.jobs:
            try:
                rc, out, _ = runner.run(job)
                record = "%d\n%s" % (rc, out)
            except Exception as e:  # a raising job is an output too
                record = "raised %s: %s" % (type(e).__name__, e)
            digest.update(record.encode("utf-8") + b"\0")
    return digest.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("seeds", type=int, nargs="+")
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS,
                    help="digest only this workload; repeatable (default: all)")
    ap.add_argument("--expect", type=Path, metavar="FILE",
                    help="exit 1 unless every line matches this earlier output")
    args = ap.parse_args(argv)
    expected = {}
    if args.expect is not None:
        for line in args.expect.read_text().splitlines():
            if line.strip():
                _, seed, workload, digest = line.split()
                expected[int(seed), workload] = digest
    os.environ.pop("CHASEKIT_MAX_MEMORY_MB", None)
    mismatches = 0
    for seed in args.seeds:
        for workload in args.workload or run.WORKLOADS:
            digest = workload_digest(workload, seed)
            print("seed %d %-20s %s" % (seed, workload, digest), flush=True)
            if args.expect is not None and expected.get((seed, workload)) != digest:
                mismatches += 1
                print("MISMATCH: workload %s, seed %d: expected %s" % (
                    workload, seed, expected.get((seed, workload), "no line")),
                    file=sys.stderr, flush=True)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
