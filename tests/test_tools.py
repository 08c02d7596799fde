"""The line counts of `tools/src_lines.py`, the table of `tools/fll_scaling.py`
and the job tally of `tools/profile_pass.py`."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def load(name, folder=TOOLS):
    """The module <folder>/<name>.py."""
    spec = importlib.util.spec_from_file_location(name, folder / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


src_lines = load("src_lines")
fll_scaling = load("fll_scaling")
gen = load("gen", ROOT / "bench")

# the lines doc_lines counts are marked "doc"; a trailing comment, a
# string that is not a docstring and a "#" inside a string are code
FIXTURE = '''\
"""Module docstring (doc),
on two lines (doc)."""

# a comment line (doc)
import os  # a trailing comment on code

TEXT = """not a docstring
# and not a comment either
"""


class Record:
    """Class docstring (doc)."""

    size = 1
    # an indented comment line (doc)


def run(path):
    """Function docstring (doc),
    on two lines (doc)."""
    text = "# a hash in a string"
    return os.path.join(path, text)


async def wait():
    """Coroutine docstring (doc)."""
'''


def test_doc_lines_counts_docstrings_and_comment_lines():
    marked = sum("(doc)" in line for line in FIXTURE.splitlines())
    assert marked == 8 and src_lines.doc_lines(FIXTURE) == marked


def test_doc_lines_of_a_module_without_docs_is_zero():
    assert src_lines.doc_lines("x = 1\ny = '# no'\n") == 0


def test_the_total_row_sums_the_modules_now(capsys):
    assert src_lines.main(["HEAD"]) == 0
    total = capsys.readouterr().out.splitlines()[-1].split()
    now = src_lines.counts_now()
    assert total[0] == "total"
    assert (int(total[2]), int(total[5])) == tuple(map(sum, zip(*now.values())))


def test_the_scaling_table_has_a_row_per_strategy_and_a_column_per_size(capsys):
    assert fll_scaling.main(["--sizes", "2", "4"]) == 0
    head, *rows = capsys.readouterr().out.splitlines()
    assert head.split()[-4:] == ["2", "(18)", "4", "(23)"]
    assert [row.rsplit(None, 2)[0] for row in rows] == [
        "answer (default)", "--strategy terminate", "--egd separate", "blocked-atomic",
        "egd-check", "blocking_chase"]
    assert all(float(cell) >= 0 for row in rows for cell in row.split()[-2:])


@pytest.mark.parametrize("mode", [["--kinds"], ["--top", "1"]], ids=["kinds", "profile"])
def test_the_measured_pass_tallies_each_job_once(mode):
    # in a process of its own: the benchmark's set-up re-imports chasekit
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "profile_pass.py"), "--workload", "cq-3col", "--seed", "1",
         *mode], capture_output=True, text=True, timeout=300, check=True)
    jobs = len(gen.build("cq-3col", 1).jobs)
    assert "0 of %d jobs failed their check" % jobs in proc.stdout
