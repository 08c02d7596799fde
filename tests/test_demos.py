"""The demos print what they printed when their digests were recorded,
and the README's library tour runs against the API it documents.

Each demo runs in its own interpreter, on this checkout's `src/`, and
the sha256 of its stdout is compared with the recorded one.  A change
that moves a demo's output re-records its digest after a diff against
the old output shows that only the intended lines changed.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chasekit

DEMOS = Path(__file__).resolve().parent.parent / "demos"
README = DEMOS.parent / "README.md"

# 02 re-recorded when blocked saturation stopped at the first round that
# derives no ground atom: only "after 3 rounds" became "after 2 rounds"
DIGESTS = {
    "01_chase_basics.py":
        "b49111daaeb991e290b2f26fbbe0ed51b97e87286fbace638bb8ef47b96678c3",
    "02_guardedness_and_clouds.py":
        "f730982d3f9bd95fc67dd6a35466b54f653e533d92327e4425be931842467830",
    "03_coloring_and_egds.py":
        "34a62bdf1d5e7efb2e0714bc3e83d5460c75f1239c53a8eb0e0d8d229d65fa81",
}


def run_python(argv, cwd=None):
    """Run a python command line on this checkout's `src/`."""
    src = str(Path(chasekit.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable] + argv, cwd=cwd,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", sorted(DIGESTS))
def test_demo_output_matches_the_recorded_digest(demo):
    proc = run_python([str(DEMOS / demo)])
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DIGESTS[demo], proc.stdout


def readme_block(heading, lang):
    """The first ```lang block of the README section `## heading`."""
    section = README.read_text(encoding="utf-8").split("\n## %s\n" % heading, 1)[1]
    return section.split("```%s\n" % lang, 1)[1].split("```", 1)[0]


def test_readme_library_tour_runs_on_the_program_format_example(tmp_path):
    (tmp_path / "example.dlp").write_text(readme_block("Program format", "prolog"))
    proc = run_python(["-c", readme_block("Library tour", "python")], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "[(a,)] AnswerStatus.EXACT" in proc.stdout.splitlines(), proc.stdout


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DIGESTS)
