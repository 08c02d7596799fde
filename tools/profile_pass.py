#!/usr/bin/env python3
"""cProfile of one pass over a benchmark workload's jobs, after a warm-up pass.

    python3 tools/profile_pass.py --workload wg-saturate --seed 3 --top 25
    python3 tools/profile_pass.py --workload cq-3col --seed 3 --sort cumulative
    python3 tools/profile_pass.py --workload wg-saturate --seed 3 --callers add
    python3 tools/profile_pass.py --workload wg-chase --seed 3 --kinds

Builds the workload from the seed with the benchmark's set-up
(bench/run.py), runs every job once to warm up and once more under
cProfile, and prints the total function calls, the jobs whose output
failed its check, and the top functions by self time (`--sort tottime`,
the default) or by time including callees (`--sort cumulative`).  A
cost spread over many small callees, such as `analysis.classify`'s,
shows only in the cumulative view.  `--callers NAME` prints, after the
list, the callers of every function that NAME matches, with the calls
and time each caller accounts for: where the calls of a busy function
such as `Instance.add` come from.  NAME is a regular expression that
pstats searches in `file:line(function)`.  `--kinds` prints, instead of
a profile, each job kind's share of one more pass, run without
cProfile: the jobs grouped by the name after `program/`, with the
number of jobs, their median time and their share of the pass's time.
Program files go to a temporary directory; nothing under bench/ is
changed.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import statistics
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (bench/run.py, which also puts bench/ on the path)


def print_kinds(runner, jobs, tally) -> None:
    """Each job kind's count, median time and share of one pass."""
    times = {}
    for job in jobs:
        done = run.attempt(runner, job, tally)
        if done is not None:
            times.setdefault(job.name.split("/", 1)[1], []).append(done[2])
    total = sum(map(sum, times.values()))
    print("%-24s %5s %10s %7s" % ("kind", "jobs", "median_ms", "share"))
    for kind, spent in sorted(times.items(), key=lambda item: -sum(item[1])):
        print("%-24s %5d %10.3f %6.1f%%" % (kind, len(spent), statistics.median(spent) * 1e3,
                                          100 * sum(spent) / total))
    print("%d of %d jobs failed their check; the pass took %.3f s"
          % (tally.failed, tally.attempted, total))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=run.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--top", type=int, default=25, help="functions to list")
    ap.add_argument("--sort", choices=("tottime", "cumulative"), default="tottime",
                    help="order of the list: self time or time including callees")
    ap.add_argument("--callers", metavar="NAME",
                    help="also print the callers of the functions matching NAME")
    ap.add_argument("--kinds", action="store_true",
                    help="print each job kind's share of an unprofiled pass, not a profile")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        chasekit, built = run.setup(args.workload, args.seed, Path(tmp))
        runner = run.Runner(chasekit, Path(tmp))
        expect = run.verify.Expectations(built)
        run.one_pass(runner, built.jobs, run.Tally(expect))  # warm-up, tallied apart
        tally = run.Tally(expect)
        if args.kinds:
            print_kinds(runner, built.jobs, tally)
            return 0
        profile = cProfile.Profile()
        profile.runcall(run.one_pass, runner, built.jobs, tally)
    stats = pstats.Stats(profile)
    print("%d function calls in the profiled pass; %d of %d jobs failed their check"
          % (stats.total_calls, tally.failed, tally.attempted))
    stats.sort_stats(args.sort).print_stats(args.top)
    if args.callers:
        stats.print_callers(args.callers)
    return 0


if __name__ == "__main__":
    sys.exit(main())
