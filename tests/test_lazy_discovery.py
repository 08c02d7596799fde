"""Lazy trigger discovery against the eager discovery it replaced.

The chase queues each new atom and finds its triggers only when the FIFO
queue reaches it, over the atoms at or before its position.  The eager
reference below finds them the moment the atom is added, as the engine
once did.  The two must agree on everything a run reports: step log,
instance order, forest, status and failure witness, also when a small
step budget stops the run with atoms still queued.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from chasekit import chase, egdsep
from chasekit.chase import ChaseOptions, Mode, _Engine
from helpers import fll_cases, wg_cases
from test_egd_drain import programs, render_witness

BUDGETS = (1, 2, 3, 5, 8, 13, 21, 34, 60)


class EagerEngine(_Engine):
    """The engine that queues every trigger through a new atom at once,
    and drops each trigger queued before in the run."""

    def __init__(self, *args):
        super().__init__(*args)
        self.queued = set()

    def _discover(self, new_atom=None):
        for entry in chase.rule_triggers(self.plans, self.instance, new_atom):
            if entry not in self.queued:
                self.queued.add(entry)
                self.queue.append(entry)


class EagerBlockingEngine(EagerEngine, egdsep._BlockingEngine):
    pass


class WatchedEagerEngine(EagerEngine):
    """The eager engine, noting whether an atom was pending when a step
    was logged."""

    saw_pending = False

    def _record(self, step):
        self.saw_pending |= bool(self.pending)
        super()._record(step)


def report(result):
    forest = [(n.id, n.atom, n.parent, n.depth, n.trigger and n.trigger.rule, n.trigger)
              for n in result.forest]
    return (result.step_log(), result.instance.atoms(), forest, result.forest_complete,
            result.status, render_witness(result.failure_witness))


def assert_agree(facts, rules, constraints, opts):
    """Run both engines, and both blocking engines when the mode is
    oblivious; returns the lazy engine, for its queue."""
    engine = _Engine(facts, rules, constraints, opts)
    assert report(engine.run()) == report(EagerEngine(facts, rules, constraints, opts).run())
    if opts.mode is Mode.OBLIVIOUS:
        lazy = egdsep._BlockingEngine(facts, rules, constraints, opts).run()
        eager = EagerBlockingEngine(facts, rules, constraints, opts).run()
        assert report(lazy) == report(eager)
    return engine


def test_lazy_discovery_agrees_on_weakly_guarded_programs():
    left_pending = 0
    for n, (db, rules) in enumerate(wg_cases(seed=20241, count=40)):
        for mode in Mode:
            budget = BUDGETS[n % len(BUDGETS)]
            engine = assert_agree(db, rules, (), ChaseOptions(mode, max_steps=budget,
                                                             max_depth=1 + n % 8))
            left_pending += bool(engine.pending)
    # runs that stopped before the queue reached some atom
    assert left_pending >= 10


def test_eager_reference_stays_eager_on_tgd_only_runs():
    # A run with no EGDs queues a new atom without the drain; it must still
    # go through `_discover`, or the reference above would queue lazily and
    # the tests here would compare two lazy engines.
    stepped = left_pending = 0
    for n, (db, rules) in enumerate(wg_cases(seed=20241, count=40)):
        opts = ChaseOptions(Mode.OBLIVIOUS, max_steps=BUDGETS[n % len(BUDGETS)])
        eager = WatchedEagerEngine(db, rules, (), opts)
        eager.run()
        assert not eager.saw_pending and not eager.pending
        stepped += bool(eager.steps)
        lazy = _Engine(db, rules, (), opts)
        lazy.run()
        left_pending += bool(lazy.pending)
    assert stepped >= 30 and left_pending >= 10


def test_lazy_discovery_agrees_on_object_logic_programs():
    for n, p in enumerate(fll_cases(seed=5, count=40)):
        for mode in Mode:
            for budget in (BUDGETS[n % len(BUDGETS)], 60):
                assert_agree(p.facts, p.tgds, p.egds, ChaseOptions(mode, max_steps=budget))


def test_blocking_chase_agrees_with_eager_discovery():
    for n, p in enumerate(fll_cases(seed=7, count=20)):
        for budget in (BUDGETS[n % len(BUDGETS)], 60):
            got = egdsep.blocking_chase(p.facts, p.tgds, p.egds, max_steps=budget)
            with mock.patch.object(egdsep, "_BlockingEngine", EagerBlockingEngine):
                want = egdsep.blocking_chase(p.facts, p.tgds, p.egds, max_steps=budget)
            assert (got.unblocked.atoms(), got.blocked.atoms(), got.survivors.atoms(),
                    got.status, render_witness(got.aborted_on)) == (
                want.unblocked.atoms(), want.blocked.atoms(), want.survivors.atoms(),
                want.status, render_witness(want.aborted_on))


@settings(max_examples=250, derandomize=True, deadline=None)
@given(programs(), st.sampled_from(list(Mode)), st.integers(1, 60), st.integers(1, 8))
def test_lazy_discovery_agrees_on_random_programs(program, mode, budget, depth):
    facts, rules, constraints = program
    assert_agree(facts, rules, constraints,
                 ChaseOptions(mode=mode, max_steps=budget, max_depth=depth))
