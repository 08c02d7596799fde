"""The line counts of `tools/src_lines.py`, the table of `tools/fll_scaling.py`,
the job tally of `tools/profile_pass.py`, the import table of
`tools/startup_time.py` and the mismatch report of `tools/output_digest.py`."""

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
startup_time = load("startup_time")
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


# `-X importtime` prints each import after the imports it made, indented
# two spaces a level; the block that ends at the top-level chasekit.cli
# line is what importing it cost
IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |   _io
import time:       300 |        400 | site
import time:        50 |         50 |       json.scanner
import time:        70 |        120 |     json
import time:        10 |         10 |     chasekit.model
import time:        20 |        150 |   chasekit
import time:         5 |        160 | chasekit.cli
import time:         9 |          9 | atexit
"""


def test_the_import_block_of_chasekit_cli_is_read_from_the_report():
    assert startup_time.chasekit_imports(IMPORTTIME) == [
        ("json.scanner", 50, 50), ("json", 70, 120), ("chasekit.model", 10, 10),
        ("chasekit", 20, 150), ("chasekit.cli", 5, 160)]
    with pytest.raises(ValueError):
        startup_time.chasekit_imports(IMPORTTIME.replace("chasekit.cli", "other"))


def test_the_startup_table_lists_chasekit_modules_first(capsys):
    assert startup_time.main(["--runs", "2"]) == 0
    head, *rows = capsys.readouterr().out.splitlines()
    assert "median ms of 2 runs" in head
    names = [row.split()[0] for row in rows]
    assert names[0] == "chasekit.cli" and {"chasekit", "chasekit.model", "argparse"} <= set(names)
    ours = [name.startswith("chasekit") for name in names]
    assert ours == sorted(ours, reverse=True)
    assert "chasekit.acyclic" not in names and "dataclasses" not in names
    assert all(float(row.split()[1]) >= 0 and float(row.split()[2]) >= 0 for row in rows)


@pytest.mark.parametrize("recorded", ["wrong", "missing"])
def test_the_digest_gate_fails_on_a_wrong_or_missing_line(tmp_path, recorded):
    golden = (ROOT / "tests" / "golden_outputs.txt").read_text().splitlines()
    line = next(line for line in golden if line.split()[1:3] == ["1", "cq-3col"])
    others = [other for other in golden if other != line]
    wrong = line[:-8] + "00000000"
    if recorded == "wrong":
        others.append(wrong)
    expect = tmp_path / "expect.txt"
    expect.write_text("\n".join(others) + "\n")
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "output_digest.py"), "--expect", str(expect),
         "--workload", "cq-3col", "1"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1
    assert proc.stdout == line + "\n"
    want = wrong.split()[3] if recorded == "wrong" else "no line"
    assert proc.stderr == "MISMATCH: workload cq-3col, seed 1: expected %s\n" % want
