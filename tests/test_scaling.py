"""Counted work that grows with the database.

Each answering path runs on object-logic databases of 40, 80, 160 and
320 objects, and the test counts the calls of two primitives that every
chase step and every trigger ordering goes through: `Instance.position`
and `RulePlan.body_images`.  Counting calls instead of timing makes the
test exact on any machine.  A path whose work is linear in the database
doubles its count with each doubling of the objects; the bound of 2.5
leaves room for the larger schema share of small databases, and fails a
path that grows quadratically, as a merge that re-sorted the whole
trigger queue did.
"""

import random

import pytest

from chasekit import egdsep
from chasekit.chase import BOUNDED_DEPTH, ChaseOptions, Mode, Status, run_chase
from chasekit.model import Instance
from chasekit.plan import RulePlan
from helpers import random_fll_program

SIZES = (40, 80, 160, 320)

# each path returns whether its chase ran to the end, so a budget that cut
# the larger runs short cannot hide their growth
PATHS = {
    "bounded": lambda p: run_chase(p.facts, p.tgds, p.egds, ChaseOptions(
        Mode.OBLIVIOUS, max_depth=BOUNDED_DEPTH)).status is Status.SATURATED,
    "terminate": lambda p: run_chase(p.facts, p.tgds, p.egds, ChaseOptions(
        Mode.RESTRICTED)).status is Status.SATURATED,
    "blocking_chase": lambda p: egdsep.blocking_chase(
        p.facts, p.tgds, p.egds).status is Status.SATURATED,
    "egd_failure_check": lambda p: egdsep.egd_failure_check(
        p.facts, p.tgds, p.egds) is egdsep.FailureCheck.NO_FAILURE,
}


@pytest.mark.parametrize("path", list(PATHS))
def test_counted_work_grows_linearly_with_the_database(monkeypatch, path):
    calls = [0]
    for cls, name in ((Instance, "position"), (RulePlan, "body_images")):
        def counted(*args, _real=getattr(cls, name)):
            calls[0] += 1
            return _real(*args)

        monkeypatch.setattr(cls, name, counted)
    counts = []
    for n in SIZES:
        program = random_fll_program(random.Random(7), n, False)
        calls[0] = 0
        assert PATHS[path](program), n
        counts.append(calls[0])
    assert counts[0] > 0
    assert all(b <= 2.5 * a for a, b in zip(counts, counts[1:])), counts
