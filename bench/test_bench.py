"""Self-tests of the benchmark: `python3 -m pytest bench -q`.

They check the benchmark's own parts (generators, verifier, tracer),
not chasekit.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402

LISTED = run.LISTED


def digest(workload: str, seed: int) -> str:
    built = gen.build(workload, seed)
    h = hashlib.sha256()
    for name in sorted(built.programs):
        h.update(name.encode() + b"\0" + built.programs[name].text().encode())
    for job in built.jobs:
        h.update(repr(job).encode())
    return h.hexdigest()


@pytest.mark.parametrize("workload", LISTED)
def test_generators_are_deterministic_for_a_seed(workload):
    assert digest(workload, 3) == digest(workload, 3)
    assert digest(workload, 3) != digest(workload, 4)


def test_generated_files_do_not_depend_on_hash_randomization():
    code = ("import sys; sys.path.insert(0, %r); import test_bench; "
            "print([test_bench.digest(w, 5) for w in test_bench.LISTED])" % str(HERE))
    outs = set()
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=str(HERE),
                              capture_output=True, text=True, timeout=120, check=True)
        outs.add(proc.stdout)
    assert len(outs) == 1


@pytest.fixture(scope="module")
def chasekit():
    return run.import_chasekit()


@pytest.fixture
def workdir(request):
    """A fresh directory inside the checkout's .bench_work/."""
    path = run.ROOT / ".bench_work" / "selftest" / request.node.name.replace("/", "_")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def first_job(workload, command, failing=False):
    built = gen.build(workload, 1)
    for job in built.jobs:
        if job.argv and job.argv[0] == command and \
                built.programs[job.program].failing == failing:
            return built, job
    raise LookupError(command)


def run_one(chasekit, built, job, workdir):
    for prog in built.programs.values():
        (workdir / (prog.name + ".dlp")).write_text(prog.text())
    rc, out, _ = run.Runner(chasekit, workdir).run(job)
    return rc, out


def test_verifier_accepts_the_real_output(chasekit, workdir):
    built, job = first_job("cq-3col", "answer")
    expect = verify.Expectations(built).of(job)
    rc, out = run_one(chasekit, built, job, workdir)
    assert verify.check(expect, rc, out) is None


def test_verifier_rejects_a_wrong_verdict(chasekit, workdir):
    built, job = first_job("cq-3col", "answer")
    expect = verify.Expectations(built).of(job)
    rc, out = run_one(chasekit, built, job, workdir)
    payload = json.loads(out)
    flipped = "unsat" if payload["status"] == "sat" else "sat"
    payload.update(status=flipped, answers=[] if flipped == "unsat" else [[]])
    assert verify.check(expect, rc, json.dumps(payload)) is not None


def test_verifier_rejects_a_wrong_exit_code(chasekit, workdir):
    built, job = first_job("fll-egd", "egd-check", failing=True)
    expect = verify.Expectations(built).of(job)
    rc, out = run_one(chasekit, built, job, workdir)
    assert verify.check(expect, rc, out) is None
    assert verify.check(expect, 1 - rc, out) is not None


def test_verifier_rejects_a_wrong_answer_set(chasekit, workdir):
    built, job = first_job("fll-egd", "answer")
    expect = verify.Expectations(built).of(job)
    rc, out = run_one(chasekit, built, job, workdir)
    payload = json.loads(out)
    payload["answers"] = payload["answers"][1:]
    assert verify.check(expect, rc, json.dumps(payload)) is not None


def test_blocked_atomic_expects_the_terminate_status_on_failing_databases():
    built = gen.build("wg-saturate-failing", 1)
    expectations = verify.Expectations(built)
    for job in built.jobs[:built.first_round]:
        assert expectations.of(job).status == {"failed"}
        assert expectations.of(job).rc == 1


def traced_metrics(chasekit, workload, workdir):
    built = gen.build(workload, 2)
    for prog in built.programs.values():
        (workdir / (prog.name + ".dlp")).write_text(prog.text())
    tracer = tracing.Tracer()
    runner = run.Runner(chasekit, workdir)
    runner.run = tracer.job(runner.run)
    outputs = []
    with tracer.installed():
        for job in built.jobs[:built.first_round]:
            outputs.append(runner.run(job)[:2])
    counts = {name: value for name, (value, unit) in tracer.metrics().items()
              if unit != "s"}
    return outputs, counts


@pytest.mark.parametrize("workload", ["cq-3col", "wg-saturate"])
def test_per_layer_counts_repeat_exactly(chasekit, workdir, workload):
    out1, counts1 = traced_metrics(chasekit, workload, workdir)
    out2, counts2 = traced_metrics(chasekit, workload, workdir)
    assert counts1 == counts2
    assert out1 == out2


def bindings(chasekit):
    out = {}
    for module in tracing.chasekit_modules():
        for key, value in vars(module).items():
            out[module.__name__, key] = value
            if isinstance(value, type):
                out.update({(module.__name__, key, k): v for k, v in vars(value).items()})
    return out


def test_tracer_restores_every_binding(chasekit, workdir):
    before = bindings(chasekit)
    traced_metrics(chasekit, "cq-3col", workdir)
    assert bindings(chasekit) == before


# Layers each workload must exercise, and layers it must leave alone.
BUSY = {
    "wg-chase": ["chase.body_hom.calls", "chase.trigger.created", "chase.steps.tgd",
                 "chase.head_satisfied.calls", "chase.apply_tgd.calls",
                 "parser.render.calls"],
    "fll-egd": ["chase.apply_egd.calls", "chase.steps.egd", "model.rewrite.calls",
                "model.instance.builds", "model.add.calls"],
    "wg-saturate": ["clouds.cloud_of.calls", "clouds.canonicalize.calls",
                    "clouds.store_entries", "clouds.rounds", "model.add.calls"],
    "cq-3col": ["query.hom.calls", "query.hom.yields", "analysis.classify.calls"],
}
IDLE = {
    "wg-chase": ["chase.apply_egd.calls", "model.rewrite.calls", "clouds.cloud_of.calls"],
    "fll-egd": ["clouds.cloud_of.calls"],
    "wg-saturate": ["chase.apply_egd.calls", "model.rewrite.calls"],
    "cq-3col": ["chase.apply_egd.calls", "model.rewrite.calls", "clouds.cloud_of.calls"],
}


@pytest.mark.parametrize("workload", LISTED)
def test_layers_predicted_busy_and_idle(chasekit, workdir, workload):
    _, counts = traced_metrics(chasekit, workload, workdir)
    assert all(counts[name] > 0 for name in BUSY[workload])
    assert all(counts[name] == 0 for name in IDLE[workload])


def test_end_to_end_run_survives_repeated_set_ups():
    """Set-ups between jobs re-import chasekit; jobs must keep working."""
    result = run.run_workload("fll-egd", 1, 4.0, traced=False)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"jobs_per_s", "latency_p50_ms", "latency_tail_ms",
                                      "setup_s", "peak_rss_mb"}


def test_speed_scaling_follows_the_adjacent_calibrations():
    """A job timed while the calibration took twice the reference counts
    half its time; one timed between a normal and a slow calibration,
    two thirds of it."""
    clock = speed.Speed()
    ref = speed.REFERENCE_S
    clock.marks = [(0.0, ref), (1.0, ref), (2.0, 2 * ref), (3.0, 2 * ref)]
    assert clock.scaled(0.3, 0.5) == pytest.approx(0.3)
    assert clock.scaled(0.3, 1.5) == pytest.approx(0.2)
    assert clock.scaled(0.3, 2.5) == pytest.approx(0.15)
    assert clock.scaled(0.3, 9.0) == pytest.approx(0.15)
    assert clock.scaled(0.3, -1.0) == pytest.approx(0.3)


def test_tail_leaves_ten_samples_beyond():
    for n in (21, 150, 421, 2000):
        level, value = run.tail(list(range(1, n + 1)))
        assert n - value >= 10 and n - value < 10 + n / 100 + 1


def test_missing_chasekit_exits_without_a_result(workdir):
    """Run from a directory holding only BENCHMARK.json and bench/."""
    shutil.copy(run.ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(HERE, workdir / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wg-chase", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=str(workdir), capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
