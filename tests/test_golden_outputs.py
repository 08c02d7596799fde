"""Byte identity of every benchmark output.

`golden_outputs.txt` holds the lines `python3 tools/output_digest.py 1 7`
printed: one sha256 per benchmark workload and seed, over the exit code
and stdout of each of its jobs.  Each seed runs here under its own
PYTHONHASHSEED, so an output that follows string hashing shows too.  A
change that means to alter an output re-records the file with

    python3 tools/output_digest.py 1 7 > tests/golden_outputs.txt

and says why in CHANGES.md.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_outputs.txt"


@pytest.mark.parametrize("seed, hash_seed", [("1", "1"), ("7", "2")])
def test_benchmark_outputs_match_the_golden_digests(seed, hash_seed):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_digest.py"), "--expect", str(GOLDEN),
         seed],
        env=dict(os.environ, PYTHONHASHSEED=hash_seed), capture_output=True, text=True,
        timeout=600)
    assert proc.returncode == 0, proc.stderr
    recorded = [line for line in GOLDEN.read_text().splitlines()
                if line.split()[1] == seed]
    assert proc.stdout.splitlines() == recorded
