#!/usr/bin/env python3
"""chasekit benchmark: seeded workloads of `chasekit` jobs, run in a
closed loop by one client.

    python3 bench/run.py --workload wg-chase --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

One process runs one workload, so peak RSS is per workload; `all` starts
one such process per workload and prints a table.  Each job is one CLI
invocation, `chasekit.cli.main(argv)` called in-process on a generated
program file with stdout captured, or one library call where the CLI has
no command.  Every output is checked (see verify.py).  Job and set-up
times are scaled to a reference speed of the host (see speed.py).

The last stdout line is one JSON object: `correct`, `attempted`,
`failed`, and `metrics`, which holds the end-to-end metrics with
`--trace 0` and the per-layer metrics of a traced pass with `--trace 1`.
Generated files and the span dump go to `.bench_work/` at the
repository root.  The benchmark imports chasekit only from the
repository's own `src/` and stops with exit code 2 when it is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402

LISTED = ("wg-chase", "fll-egd", "wg-saturate", "cq-3col")
# wg-saturate-failing is not in BENCHMARK.json: it runs blocked-atomic on
# failing object-logic databases, where the strategy ignores the EGDs.
WORKLOADS = LISTED + ("wg-saturate-failing",)
SETUP_REPS = 9


class ChasekitMissing(Exception):
    pass


def chasekit_names() -> List[str]:
    return [m for m in sys.modules if m == "chasekit" or m.startswith("chasekit.")]


def import_chasekit():
    """Import chasekit afresh from this checkout's src/, as a CLI start does."""
    for name in chasekit_names():
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        chasekit = importlib.import_module("chasekit")
        importlib.import_module("chasekit.cli")
    except ImportError as e:
        raise ChasekitMissing("cannot import chasekit from %s: %s" % (SRC, e))
    if Path(chasekit.__file__).resolve().parent.parent != SRC:
        raise ChasekitMissing("chasekit resolved to %s, not %s" % (chasekit.__file__, SRC))
    return chasekit


def setup(workload: str, seed: int, workdir: Path):
    """Import chasekit, build the workload from the seed and write its files."""
    chasekit = import_chasekit()
    built = gen.build(workload, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    for prog in built.programs.values():
        (workdir / (prog.name + ".dlp")).write_text(prog.text(), encoding="utf-8")
    return chasekit, built


class Runner:
    """Runs jobs in-process and captures what they print on stdout."""

    def __init__(self, chasekit, workdir: Path):
        self.ck = chasekit
        self.workdir = workdir

    def run(self, job: gen.Job) -> Tuple[int, str, float]:
        path = str(self.workdir / (job.program + ".dlp"))
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            if job.lib == "blocking_chase":
                rc = self._blocking_chase(path)
            else:
                rc = self.ck.cli.main([path if a == "{file}" else a for a in job.argv])
        return rc, out.getvalue(), time.perf_counter() - start

    def _blocking_chase(self, path: str) -> int:
        """The library call behind the blocking-chase job; prints its
        status and surviving atoms as a CLI command would."""
        parser, egdsep = self.ck.parser, self.ck.egdsep
        with open(path, encoding="utf-8") as fh:
            program = parser.parse_program(fh.read())
        res = egdsep.blocking_chase(program.facts, program.tgds, program.egds)
        print(json.dumps({
            "status": res.status.value,
            "atoms": sorted(parser.render_atom(a) for a in res.survivors),
        }))
        return 0


class Tally:
    """Jobs attempted and failed, with the reason for each failure."""

    def __init__(self, expectations: verify.Expectations):
        self.expect = expectations
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def record(self, job: gen.Job, result: Optional[Tuple[int, str]], error: str = "") -> None:
        self.attempted += 1
        if result is None:
            self.fail("%s: raised %s" % (job.name, error))
            return
        problem = verify.check(self.expect.of(job), *result)
        if problem:
            self.fail("%s: %s" % (job.name, problem))

    def fail(self, reason: str) -> None:
        self.failed += 1
        if reason not in self.failures:
            self.failures.append(reason)


def attempt(runner: Runner, job: gen.Job, tally: Tally) -> Optional[Tuple[int, str, float]]:
    """Run one job; an exception counts as a failed job, not a crash."""
    try:
        rc, out, seconds = runner.run(job)
    except Exception:  # a job boundary: record it and keep the loop going
        tally.record(job, None, traceback.format_exc(limit=-3))
        return None
    tally.record(job, (rc, out))
    return rc, out, seconds


def tail(samples: List[float]) -> Tuple[float, float]:
    """(level, value) of the highest percentile, to 0.1, with at least ten
    samples beyond it (nearest rank); the median when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    level = math.floor(1000 * (n - 10) / n) / 10 if n > 10 else 0.0
    rank = math.ceil(level / 100 * n)
    if rank < 1 or n - rank < 10:
        return 50.0, statistics.median(ordered)
    return level, ordered[rank - 1]


def timed_passes(runner: Runner, jobs: List[gen.Job], tally: Tally, seconds: float,
                 clock: speed.Speed, at_marks: Callable[[], None],
                 marks: int) -> List[List[Tuple[float, float]]]:
    """Closed loop, one client: run the job list in passes, over and over,
    until `seconds` have passed, calibrating the host's speed before each
    job and once at the end.

    Returns, per job, its (seconds, midpoint) samples.  The run does at
    least one full pass and stops after the job running at the deadline.
    Between jobs, at `marks` evenly spaced times, it calls `at_marks`."""
    samples: List[List[Tuple[float, float]]] = [[] for _ in jobs]
    start = time.perf_counter()
    deadline = start + seconds
    due = [start + seconds * (k + 1) / (marks + 1) for k in range(marks)]
    i = 0
    while i < len(jobs) or time.perf_counter() < deadline:
        clock.calibrate()
        if due and time.perf_counter() >= due[0]:
            due.pop(0)
            at_marks()
        k = i % len(jobs)
        done = attempt(runner, jobs[k], tally)
        if done is not None:
            end = time.perf_counter()
            samples[k].append((done[2], end - done[2] / 2))
        i += 1
    for _ in due:
        at_marks()
    clock.calibrate()
    return samples


def one_pass(runner: Runner, jobs: List[gen.Job], tally: Tally):
    outputs, busy = [], 0.0
    for job in jobs:
        done = attempt(runner, job, tally)
        outputs.append(None if done is None else done[:2])
        busy += 0.0 if done is None else done[2]
    return outputs, busy


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, built: gen.Workload, tally: Tally, seconds: float,
               clock: speed.Speed, timed_setup: Callable[[], Tuple[float, float]],
               first_setup: Tuple[float, float]) -> dict:
    """Every time is scaled to the reference speed (see speed.py).  A job
    counts with the median of its repeats; the set-up is repeated at
    evenly spaced times through the run and its median counts."""
    setups = [first_setup]
    samples = timed_passes(runner, built.jobs, tally, seconds, clock,
                           lambda: setups.append(timed_setup()), SETUP_REPS - 1)
    latencies = [statistics.median(clock.scaled(t, at) for t, at in job)
                 for job in samples if job]
    raw = [statistics.median(t for t, _ in job) for job in samples if job]
    level, tail_s = tail(latencies)
    print("latency_tail_ms is p%g of %d jobs; %d of %d attempts failed"
          % (level, len(latencies), tally.failed, tally.attempted))
    print("unscaled: latency_p50_ms %.4g, setup_s %.4g; %d calibrations, "
          "median %.4g ms against a reference of %.4g ms"
          % (statistics.median(raw) * 1e3, statistics.median(t for t, _ in setups),
             len(clock.marks), statistics.median(s for _, s in clock.marks) * 1e3,
             speed.REFERENCE_S * 1e3))
    return {
        "jobs_per_s": metric(len(latencies) / sum(latencies), "jobs/s"),
        "latency_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": metric(tail_s * 1e3, "ms"),
        "setup_s": metric(statistics.median(clock.scaled(t, at) for t, at in setups), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(runner: Runner, built: gen.Workload, tally: Tally) -> dict:
    """Round 0 after a warm-up pass: untraced and traced passes twice,
    alternating, so a drift in machine speed hits both sides.  Every pass
    must print the same outputs and both traced passes the same counts."""
    jobs = built.jobs[:built.first_round]
    one_pass(runner, jobs, tally)
    outputs, tracers, plain_s, traced_s = [], [], [], []
    for _ in range(2):
        out, busy = one_pass(runner, jobs, tally)
        outputs.append(out)
        plain_s.append(busy)
        tracer = tracing.Tracer()
        traced_runner = Runner(runner.ck, runner.workdir)
        traced_runner.run = tracer.job(traced_runner.run)
        with tracer.installed():
            out, busy = one_pass(traced_runner, jobs, tally)
        outputs.append(out)
        traced_s.append(busy)
        tracers.append(tracer)
    if any(out != outputs[0] for out in outputs):
        tally.failures.append("traced outputs differ from untraced outputs")
    layers = [tracer.metrics() for tracer in tracers]
    counts = [{k: v for k, v in m.items() if v[1] != "s"} for m in layers]
    if counts[0] != counts[1]:
        tally.failures.append("per-layer counts differ between traced passes")
    tracers[0].dump(runner.workdir / "spans.jsonl")
    metrics = {name: metric(value, unit) for name, (value, unit) in layers[0].items()}
    metrics["trace.overhead_s"] = metric(min(traced_s) - min(plain_s), "s")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    workdir = ROOT / ".bench_work" / ("%s-%d" % (workload, seed))

    clock = speed.Speed()

    def timed_setup():
        clock.calibrate()
        start = time.perf_counter()
        chasekit, built = setup(workload, seed, workdir)
        end = time.perf_counter()
        clock.calibrate()
        return chasekit, built, (end - start, (start + end) / 2)

    def repeat_setup() -> Tuple[float, float]:
        """A set-up between jobs.  The modules the jobs run on go back into
        sys.modules afterwards, since chasekit imports some names inside
        functions."""
        running = {name: sys.modules[name] for name in chasekit_names()}
        elapsed = timed_setup()[2]
        for name in chasekit_names():
            del sys.modules[name]
        sys.modules.update(running)
        return elapsed

    chasekit, built, first_setup = timed_setup()
    tally = Tally(verify.Expectations(built))
    runner = Runner(chasekit, workdir)
    if traced:
        metrics = per_layer(runner, built, tally)
    else:
        metrics = end_to_end(runner, built, tally, seconds, clock, repeat_setup, first_setup)
    for line in tally.failures:
        print("FAILED %s" % line, file=sys.stderr)
    return {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Each workload in its own process; a table, then all results as JSON."""
    results = {}
    for name in LISTED:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print("%s: exit code %d" % (name, proc.returncode), file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        for line in proc.stdout.strip().splitlines()[:-1]:
            print("%s: %s" % (name, line))
    for name, res in results.items():
        print("%-12s correct=%s attempted=%d failed=%d" % (
            name, res["correct"], res["attempted"], res["failed"]))
        for key, m in res["metrics"].items():
            print("    %-36s %14.6g %s" % (key, m["value"], m["unit"]))
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChasekitMissing as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
