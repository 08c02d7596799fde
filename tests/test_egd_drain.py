"""The EGD drain of the interleaved chase.

After a TGD step the drain looks for EGD triggers through the new atom
and the atoms its merges add only, and takes the one a full
declaration-order scan of the instance would find first.  A merge
rewrites the instance in place; the loop drops the queued keys that
hold a replaced value, and a drain that merged appends the triggers
through the same atoms.  These tests pin the step logs, statuses and
failure witnesses, and what no step order decides; check that runs
apply each trigger once and saturate to a model; compare the engine
with a copy that always rescans and with one that keeps the
whole-instance merge path; and cover separated answering, which chases
once under the TGDs alone.
"""

import hashlib
import os
import subprocess
import sys
from collections import Counter, deque
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chasekit
from chasekit import chase, egdsep, query
from chasekit.chase import ChaseOptions, EgdStep, Mode, Status, _Engine, run_chase
from chasekit.cli import main
from chasekit.model import CQ, EGD, TGD, Atom, Constant, Instance, LabeledNull, Predicate, Variable
from chasekit.parser import parse_atom, parse_program, render_program

from chasekit.egdsep import FailureCheck
from helpers import copy_rewrite, failure_by_inequality_oracle, find_homomorphism, fll_cases
from test_cli import key_egd_programs


def render_witness(witness):
    if witness is None:
        return "-"
    return "%s {%s}" % (witness.rule.label, ",".join(
        "%s->%r" % (v.name, t) for v, t in witness.hom))


def digest_of(results):
    h = hashlib.sha256()
    for res in results:
        h.update(("%s\n%s\n%s\n" % (res.step_log(), res.status.value,
                                    render_witness(res.failure_witness))).encode())
    return h.hexdigest()


# sha256 over step log, status and failure witness of the 40 programs of
# fll_cases(seed=5), ten of them failing; recorded with the full rescan
# after every TGD step, and the oblivious one re-recorded when a drain that
# merged stopped re-sorting the queue (the restricted chase of these
# programs merges nothing).
GOLDEN = {
    Mode.OBLIVIOUS: "79d9985b7214f7424927ea30be0ba40ac24b36fdd39b4b2184fbce1ce3db87d3",
    Mode.RESTRICTED: "5fd8b0eebcd9ec20671e432bfbfdfcd982dc0eb763c810a21cd5463d2e39448e",
}


@pytest.mark.parametrize("mode", list(GOLDEN), ids=lambda m: m.value)
def test_egd_step_logs_match_the_golden_digests(mode):
    results = [run_chase(p.facts, p.tgds, p.egds, ChaseOptions(mode=mode))
               for p in fll_cases(seed=5, count=40)]
    assert sum(r.status is chase.Status.FAILED for r in results) == 10
    assert digest_of(results) == GOLDEN[mode]


X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


def test_delta_drain_keeps_the_full_scan_order():
    # After p(n2,n3) -> r(n2,n3), the new atom meets an EGD trigger at both
    # body positions.  A full scan finds r(n1,n2), r(n2,n3) first (its first
    # body atom is older), so n3 merges onto n1 before n4 onto n2.
    r, p = Predicate("r", 2), Predicate("p", 2)
    n = [LabeledNull(i) for i in range(5)]
    db = Instance([r(n[1], n[2]), r(n[3], n[4]), p(n[2], n[3])])
    tgd = TGD((p(X, Y),), (r(X, Y),), frozenset(), label="tgd1")
    egd = EGD((r(X, Y), r(Y, Z)), X, Z, label="egd1")
    res = run_chase(db, [tgd], [egd], ChaseOptions(mode=Mode.OBLIVIOUS))
    assert res.step_log().splitlines() == [
        "+ r(_:n2,_:n3) BY tgd1 WITH {X->_:n2,Y->_:n3}",
        "= _:n1<-_:n3 BY egd1",
        "= _:n2<-_:n4 BY egd1 [innocuous]",
    ]
    assert res.status is chase.Status.SATURATED


def test_delta_drain_keeps_the_declaration_order_of_the_egds():
    # The new atom r(n2,n3) meets a trigger of each EGD.  egd2's body image
    # holds the oldest atom, q(n3,n4), but egd1 comes first in declaration
    # order, and so does its merge in a full scan.
    r, q, p, c = (Predicate(name, 2) for name in "rqpc")
    n = [LabeledNull(i) for i in range(5)]
    db = Instance([q(n[3], n[4]), p(n[1], n[2]), c(n[2], n[3])])
    tgd = TGD((c(X, Y),), (r(X, Y),), frozenset(), label="tgd1")
    egd1 = EGD((p(X, Y), r(Y, Z)), X, Z, label="egd1")
    egd2 = EGD((q(Y, Z), r(X, Y)), X, Z, label="egd2")
    res = run_chase(db, [tgd], [egd1, egd2], ChaseOptions(mode=Mode.OBLIVIOUS))
    assert res.step_log().splitlines() == [
        "+ r(_:n2,_:n3) BY tgd1 WITH {X->_:n2,Y->_:n3}",
        "= _:n1<-_:n3 BY egd1",
        "= _:n2<-_:n4 BY egd2",
    ]


def test_egd_drain_stops_at_the_step_budget():
    # the TGD step uses the one step allowed, so the merge of _:n1 onto b
    # is found but not applied
    p = parse_program("fact r(a,b). tgd r(X,Y) -> exists Z: r(X,Z)."
                      " egd r(X,Y), r(X,Z) -> Y = Z.")
    res = run_chase(p.facts, p.tgds, p.egds, ChaseOptions(Mode.OBLIVIOUS, max_steps=1))
    assert res.status is chase.Status.BUDGET_EXHAUSTED
    assert [type(step) for step in res.steps] == [chase.TgdStep]
    assert parse_atom("r(a,_:n1)") in res.instance


REWRITTEN_TRIGGER = """
fact e(a). fact f(a,b).
tgd e(X) -> exists Y: p(X,Y).
tgd f(X,Y) -> g(X,Y).
tgd p(X,Y) -> exists Z: q(Y,Z).
tgd g(X,Y) -> p(X,Y).
egd p(X,Y), p(X,Z) -> Y = Z.
"""


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_a_merge_does_not_apply_an_applied_trigger_again_under_its_image(mode):
    # tgd3 is applied under {X->a,Y->_:n1}; tgd4 then adds p(a,b), and the
    # merge of _:n1 onto b makes tgd3's trigger {X->a,Y->b} through it the
    # image of the applied one, so neither chase applies it
    p = parse_program(REWRITTEN_TRIGGER)
    res = run_chase(p.facts, p.tgds, p.egds, ChaseOptions(mode))
    assert res.step_log().splitlines() == [
        "+ p(a,_:n1) BY tgd1 WITH {X->a}",
        "+ g(a,b) BY tgd2 WITH {X->a,Y->b}",
        "+ q(_:n1,_:n2) BY tgd3 WITH {X->a,Y->_:n1}",
        "+ p(a,b) BY tgd4 WITH {X->a,Y->b}",
        "= b<-_:n1 BY egd1",
    ]
    assert res.status is Status.SATURATED
    assert len(res.instance) == 5


class FullScanEngine(_Engine):
    """The engine with every EGD search a full rescan of the instance."""

    def _first_egd_trigger(self, pins=None):
        return super()._first_egd_trigger()


PREDS = [Predicate("p", 2), Predicate("q", 2), Predicate("s", 1), Predicate("c", 2)]
VALUES = [Constant("a"), Constant("b")] + [LabeledNull(i) for i in range(1, 6)]
VARS = [Variable(v) for v in "XYZW"]


def atoms_over(terms):
    return st.sampled_from(PREDS).flatmap(
        lambda p: st.tuples(*[st.sampled_from(terms)] * p.arity).map(
            lambda args: Atom(p, args)))


@st.composite
def tgds(draw, label):
    body = tuple(draw(st.lists(atoms_over(VARS[:3]), min_size=1, max_size=2)))
    body_vars = sorted({v for a in body for v in a.variables()}, key=lambda v: v.name)
    head_pred = draw(st.sampled_from(PREDS))
    exist = Variable("E")
    head = tuple(draw(st.sampled_from(body_vars + [exist])) for _ in range(head_pred.arity))
    existentials = frozenset({exist}) if exist in head else frozenset()
    return TGD(body, (Atom(head_pred, head),), existentials, label=label)


@st.composite
def egds(draw, label):
    # two or three body atoms, each either free or chained onto the one
    # before (r(X,Y), r(Y,Z)), so that one new atom often meets several
    # triggers at different body positions
    body = []
    preds = draw(st.sampled_from([PREDS[:1], PREDS[1:2], PREDS[:2]]))
    for i in range(draw(st.integers(2, 3))):
        pred = draw(st.sampled_from(preds))
        chained = draw(st.booleans())
        free = draw(st.tuples(st.sampled_from(VARS), st.sampled_from(VARS)))
        body.append(Atom(pred, (VARS[i], VARS[i + 1]) if chained else free))
    body_vars = sorted({v for a in body for v in a.variables()}, key=lambda v: v.name)
    ends = (body[0].args[0], body[-1].args[-1])
    lhs, rhs = draw(st.sampled_from([ends]) | st.tuples(st.sampled_from(body_vars),
                                                          st.sampled_from(body_vars)))
    return EGD(tuple(body), lhs, rhs, label=label)


@st.composite
def programs(draw):
    facts = Instance(draw(st.lists(atoms_over(VALUES), min_size=3, max_size=12)))
    rules = [draw(tgds("tgd%d" % (i + 1))) for i in range(draw(st.integers(1, 3)))]
    # a full rule that copies c atoms into an EGD predicate, so that a new
    # atom can join older ones on both sides
    rules.append(TGD((PREDS[3](X, Y),), (draw(st.sampled_from(PREDS[:2]))(X, Y),),
                     frozenset(), label="tgd%d" % (len(rules) + 1)))
    if not any(r.existentials for r in rules):
        rules.append(TGD((PREDS[0](X, Y),), (PREDS[1](Y, Z),), frozenset({Z}),
                         label="tgd%d" % (len(rules) + 1)))
    constraints = [draw(egds("egd%d" % (i + 1))) for i in range(draw(st.integers(1, 2)))]
    return facts, rules, constraints


@settings(max_examples=250, derandomize=True, deadline=None)
@given(programs(), st.sampled_from(list(Mode)))
def test_delta_drain_agrees_with_a_full_rescan(program, mode):
    facts, rules, constraints = program
    opts = ChaseOptions(mode=mode, max_steps=40, max_depth=8)
    delta = _Engine(facts, rules, constraints, opts).run()
    full = FullScanEngine(facts, rules, constraints, opts).run()
    assert delta.step_log() == full.step_log()
    assert delta.status is full.status
    assert render_witness(delta.failure_witness) == render_witness(full.failure_witness)
    assert delta.instance.atoms() == full.instance.atoms()


def frozen(term, names):
    """A null replaced by a constant of its own, so that a homomorphism
    must fix it; any other term as it is."""
    if isinstance(term, LabeledNull):
        return names.setdefault(term, Constant("null%d" % term.index))
    return term


def assert_model(instance, rules, constraints):
    """Every TGD and every EGD holds in the instance: each body match
    extends to the head (found by `find_homomorphism` with the instance's
    nulls frozen and the existentials free), and equates what it must."""
    names = {}
    target = Instance(Atom(a.predicate, tuple(frozen(t, names) for t in a.args))
                      for a in instance)
    for rule in rules:
        fresh = {v: LabeledNull(i)
                 for i, v in enumerate(sorted(rule.existentials, key=lambda v: v.name), 1)}
        for hom in chase.body_homomorphisms(rule.body, instance):
            values = {v: frozen(t, names) for v, t in hom.items()}
            head = [atom.substitute({**values, **fresh}) for atom in rule.head]
            assert find_homomorphism(head, target) is not None, (rule, hom)
    for egd in constraints:
        for hom in chase.body_homomorphisms(egd.body, instance):
            assert hom[egd.lhs] == hom[egd.rhs], (egd, hom)


def assert_once_and_a_model(facts, rules, constraints, opts):
    """Run the chase: no (rule, key) reaches the head check twice, no
    trigger reaches `apply_tgd` whose key is, under the merges made
    since, that of one applied before, and a saturated run ends in a
    model.  No run-long set of queued triggers backs the drain up: a
    merge drops the queued keys that hold a replaced value and appends
    the triggers through the atoms it added.  Returns the result."""
    checked, applied = Counter(), set()
    real_check, real_apply, real_rewrite = chase.head_satisfied, chase.apply_tgd, Instance.rewrite

    def check(plan, key, instance):
        checked[plan.rule, key] += 1
        return real_check(plan, key, instance)

    def apply(trigger, instance, alloc):
        assert (trigger.rule, trigger.key) not in applied, trigger
        applied.add((trigger.rule, trigger.key))
        return real_apply(trigger, instance, alloc)

    def rewrite(instance, replaced, kept):
        images = {(rule, tuple(kept if t == replaced else t for t in key))
                  for rule, key in applied}
        applied.clear()
        applied.update(images)
        return real_rewrite(instance, replaced, kept)

    with mock.patch.object(chase, "head_satisfied", check), \
            mock.patch.object(chase, "apply_tgd", apply), \
            mock.patch.object(Instance, "rewrite", rewrite):
        res = run_chase(facts, rules, constraints, opts)
    assert max(checked.values(), default=1) == 1
    if res.status is Status.SATURATED:
        assert_model(res.instance, res.tgds, constraints)
    return res


@settings(max_examples=250, derandomize=True, deadline=None)
@given(programs(), st.sampled_from(list(Mode)))
def test_runs_apply_each_trigger_once_and_saturate_to_a_model(program, mode):
    assert_once_and_a_model(*program, ChaseOptions(mode=mode, max_steps=40, max_depth=8))


# sha256 over what the runs of the two corpora below report that no step
# order decides: the status of every run, and for a saturated run its
# sorted null-free atoms and its atom count; recorded while a drain that
# merged re-sorted the queue in scan order.  The step order of runs that
# merge may change, these may not.
ORDER_FREE_GOLDEN = "9217a7689d04f39ce4ec89d2d3da6b1261342d3ec05f2e273f2aee2457e57f00"


def test_merging_corpora_keep_their_order_free_outputs_and_saturate_to_a_model():
    # the 40 fll_cases(seed=5) programs and the 155 key-EGD programs
    h = hashlib.sha256()
    merged_and_saturated = 0
    for p in list(fll_cases(seed=5, count=40)) + list(map(parse_program, key_egd_programs())):
        for mode in Mode:
            res = assert_once_and_a_model(p.facts, p.tgds, p.egds,
                                          ChaseOptions(mode=mode, max_steps=300))
            h.update(("%s\n" % res.status.value).encode())
            if res.status is Status.SATURATED:
                ground = sorted(repr(a) for a in res.instance
                                if not any(isinstance(t, LabeledNull) for t in a.args))
                h.update(("%s\n%d\n" % ("\n".join(ground), len(res.instance))).encode())
            kinds = [type(step) for step in res.steps]
            merged_and_saturated += res.status is Status.SATURATED and (
                chase.TgdStep in kinds and EgdStep in kinds[kinds.index(chase.TgdStep):])
    # runs that merged after a TGD step and saturated, so that the model
    # check covers merges (77 of the 390 runs)
    assert merged_and_saturated >= 70
    assert h.hexdigest() == ORDER_FREE_GOLDEN


# ---------------------------------------------------------------------------
# in-place merges against the whole-instance merge path
# ---------------------------------------------------------------------------

class CopyRewriteEngine(_Engine):
    """The merge path that in-place merging replaced, under the engine's
    queue policy done by brute force: each merge expands the pending
    atoms, copies the instance, walks every forest node, rewriting its
    label and its trigger's key, and drops every queued key that holds
    the replaced value or is the rewritten key of an applied trigger;
    every EGD search after a merge scans the whole instance; and a drain
    after a TGD step that merged appends the triggers through its
    surviving pins (the new atom and the atoms its merges added, found
    by comparing whole instances), picked from a whole-instance scan,
    but for those rewritten keys."""

    def __init__(self, *args):
        super().__init__(*args)
        self.keys_now = {}  # forest node id -> its trigger's key under the merges

    def _drain_egds(self, new_atom=None):
        merged_any = False
        pins = None if new_atom is None else [new_atom]
        while self.egds:
            trigger = self._first_egd_trigger(None if merged_any else pins)
            if trigger is None:
                break
            step = chase.apply_egd(trigger, self.instance)
            if self._ends_run(step):
                self.failure_witness = trigger
                return Status.FAILED
            if len(self.steps) >= self.opts.max_steps:
                return Status.BUDGET_EXHAUSTED
            kept, replaced = step.kept, step.replaced
            while self.pending:
                self._expand()
            before = self.instance
            self.instance = copy_rewrite(before, replaced, kept)
            self._record(step)
            sub = {replaced: kept}
            for node in self.forest:
                if replaced in node.atom.args:
                    node.atom = node.atom.substitute(sub)
                if node.trigger is not None:
                    key = self.keys_now.get(node.id, node.trigger.key)
                    self.keys_now[node.id] = tuple(sub.get(t, t) for t in key)
            images = {(self.forest[nid].trigger.plan, key) for nid, key in self.keys_now.items()}
            self.first_node_for = {}
            for node in self.forest:
                self.first_node_for.setdefault(node.atom, node.id)
            self.queue = deque(entry for entry in self.queue if replaced not in entry[1]
                               and (self.plans[entry[0]], entry[1]) not in images)
            if pins is not None:
                pins = [atom for atom in pins if atom in self.instance] + [
                    atom for atom in self.instance if atom not in before]
            merged_any = True
        if pins is None:
            return None
        if merged_any:
            self.queue.extend(entry for entry in self._triggers_through(pins)
                              if (self.plans[entry[0]], entry[1]) not in images)
        else:
            self._discover(new_atom)
        return None

    def _triggers_through(self, pins):
        """The TGD triggers whose body image holds a pin, in the order
        that `rule_triggers` finds them pin by pin: by the first pin they
        hold, then rule, then that pin's body position, then the
        positions of the other body atoms in body order."""
        pin_at = {atom: i for i, atom in enumerate(pins)}
        position = self.instance.position
        order = {}
        for idx, key in chase.rule_triggers(self.plans, self.instance):
            images = self.plans[idx].body_images(key)
            found = [(pin_at[atom], idx, j,
                      [position(other) for other in images[:j] + images[j + 1:]])
                     for j, atom in enumerate(images) if atom in pin_at]
            if found:
                order[idx, key] = min(found)
        return sorted(order, key=order.get)


class CopyRewriteBlockingEngine(CopyRewriteEngine, egdsep._BlockingEngine):
    pass


class LoopFlag:
    """Notes when the engine's main loop, after the start-of-run drain
    and discovery, begins."""

    looping = False

    def _loop(self):
        self.looping = True
        return super()._loop()


class Spied(LoopFlag, _Engine):
    pass


class SpiedCopyRewrite(LoopFlag, CopyRewriteEngine):
    pass


def run_spied(engine_cls, facts, rules, constraints, opts):
    """(engine, result, whole-instance `rule_triggers` calls made by the
    main loop): TGD discovery and EGD searches both go through it."""
    engine = engine_cls(facts, rules, constraints, opts)
    scans = []
    original = chase.rule_triggers

    def spy(plans, instance, new_atom=None, cutoff=None):
        if new_atom is None and engine.looping:
            scans.append(len(engine.steps))
        return original(plans, instance, new_atom, cutoff)

    with mock.patch.object(chase, "rule_triggers", spy):
        result = engine.run()
    return engine, result, scans


def forest_of(result):
    return [(node.atom, node.parent, node.depth) for node in result.forest]


def blocking_parts(res):
    return (res.unblocked.atoms(), res.blocked.atoms(), res.survivors.atoms(), res.status,
            render_witness(res.aborted_on))


@settings(max_examples=250, derandomize=True, deadline=None)
@given(programs(), st.sampled_from(list(Mode)))
def test_in_place_merges_agree_with_the_copy_rewrite(program, mode):
    facts, rules, constraints = program
    opts = ChaseOptions(mode=mode, max_steps=40, max_depth=8)
    engine, got, scans = run_spied(Spied, facts, rules, constraints, opts)
    reference = CopyRewriteEngine(facts, rules, constraints, opts)
    want = reference.run()
    assert got.step_log() == want.step_log()
    assert got.status is want.status
    assert render_witness(got.failure_witness) == render_witness(want.failure_witness)
    assert got.instance.atoms() == want.instance.atoms()
    assert engine.first_node_for == reference.first_node_for
    assert forest_of(got) == forest_of(want)
    assert scans == []
    if mode is Mode.OBLIVIOUS:
        blocked = egdsep.blocking_chase(facts, rules, constraints, max_steps=40)
        with mock.patch.object(egdsep, "_BlockingEngine", CopyRewriteBlockingEngine):
            blocked_want = egdsep.blocking_chase(facts, rules, constraints, max_steps=40)
        assert blocking_parts(blocked) == blocking_parts(blocked_want)


def test_merges_after_a_step_scan_no_whole_instance():
    # the spy sees the whole-instance path: the copy-rewrite engine
    # rediscovers after merges in the loop, the engine never does.  The
    # restricted chase of these programs merges nothing.
    opts = ChaseOptions(mode=Mode.OBLIVIOUS)
    merged_in_loop = 0
    for p in fll_cases(seed=5, count=40):
        _, got, scans = run_spied(Spied, p.facts, p.tgds, p.egds, opts)
        _, want, old_scans = run_spied(SpiedCopyRewrite, p.facts, p.tgds, p.egds, opts)
        assert scans == []
        assert got.step_log() == want.step_log()
        kinds = [type(step) for step in got.steps]
        if chase.TgdStep in kinds and EgdStep in kinds[kinds.index(chase.TgdStep):]:
            merged_in_loop += 1
            assert old_scans
    assert merged_in_loop >= 10


# ---------------------------------------------------------------------------
# failure check
# ---------------------------------------------------------------------------

# The oracle builds the paper's inequality relation; neither program
# source puts a constant in a rule head, so the two checks must agree.
def test_failure_check_agrees_with_the_inequality_oracle_on_fll_cases():
    seen = set()
    for p in fll_cases(seed=5, count=40):
        for max_steps in (3, 10, 10_000):
            got = egdsep.egd_failure_check(p.facts, p.tgds, p.egds, max_steps=max_steps)
            assert got is failure_by_inequality_oracle(p.facts, p.tgds, p.egds,
                                                       max_steps=max_steps)
            seen.add(got)
    assert seen == set(FailureCheck)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(programs(), st.sampled_from([2, 6, 40]))
def test_failure_check_agrees_with_the_inequality_oracle(program, max_steps):
    facts, rules, constraints = program
    got = egdsep.egd_failure_check(facts, rules, constraints, max_steps=max_steps,
                                   max_depth=8)
    assert got is failure_by_inequality_oracle(facts, rules, constraints,
                                               max_steps=max_steps, max_depth=8)


# ---------------------------------------------------------------------------
# separated answering
# ---------------------------------------------------------------------------

# sha256 over the `answer --egd separate` output, JSON and text, of eight
# fll_cases(seed=11) programs (two failing) and of one program whose
# TGD-only chase exhausts its budget, recorded when the failure check
# and the answer ran a chase each.
SEPARATE_GOLDEN = "f3f3633043119a1f1eeff8a6b18eb6ae0fd1dd74f2aebbed4244d63e0078b820"

BUDGET_PROGRAM = """
fact r(a,b).
tgd r(X,Y) -> exists Z: r(Y,Z).
egd r(X,Y), r(X,Z) -> Y = Z.
query m(X) :- r(X,Y).
"""


def test_separated_answer_chases_once(tmp_path, capsys, monkeypatch):
    calls = []
    original = chase.run_chase

    def spy(*args, **kwargs):
        calls.append(args[2] if len(args) > 2 else kwargs.get("egds", ()))
        return original(*args, **kwargs)

    for module in (chase, egdsep, query):
        monkeypatch.setattr(module, "run_chase", spy)
    texts = []
    for p in fll_cases(seed=11, count=8):
        p.queries.append(CQ("m", (X, Y), (Atom(Predicate("member", 2), (X, Y)),)))
        texts.append(render_program(p))
    texts.append(BUDGET_PROGRAM)
    h = hashlib.sha256()
    for i, text in enumerate(texts):
        path = tmp_path / ("p%d.dlp" % i)
        path.write_text(text)
        for fmt in ("json", "text"):
            del calls[:]
            code = main(["answer", str(path), "--query", "m", "--egd", "separate",
                         "--format", fmt, "--max-steps", "300"])
            out = capsys.readouterr().out
            assert len(calls) == 1 and not calls[0], text
            h.update(("%d\n%s" % (code, out)).encode())
    assert h.hexdigest() == SEPARATE_GOLDEN


def test_separated_answer_without_egds_skips_the_failure_check(monkeypatch):
    def no_check(*args):
        raise AssertionError("failure check run without EGDs")

    monkeypatch.setattr(egdsep, "_failure_in", no_check)
    p = next(fll_cases(seed=11, count=1))
    q = CQ("m", (X, Y), (Atom(Predicate("member", 2), (X, Y)),))
    report = egdsep.separated_answer(p.facts, p.tgds, (), q)
    expected = query.certain_answers(p.facts, p.tgds, q, ChaseOptions(Mode.RESTRICTED))
    assert (report.answers, report.status) == (expected.answers, expected.status)


# ---------------------------------------------------------------------------
# memory cap
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["egd-check"],
    ["answer", "--query", "m", "--egd", "separate"],
], ids=["egd-check", "answer-separate"])
def test_memory_cap_stops_the_egd_commands(tmp_path, argv):
    # 4096 TGD steps, all at depth 1, so the run's own growth passes the
    # 1 MB cap
    path = tmp_path / "wide.dlp"
    path.write_text("".join("fact s(c%d,c%d).\n" % (i, j)
                            for i in range(64) for j in range(64)) + """
tgd s(X,Z) -> exists Y: r(X,Z,Y).
egd r(X,Z,Y), r(X,Z,W) -> Y = W.
query m(X) :- r(X,Z,Y).
""")
    src = str(Path(chasekit.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "chasekit.cli", argv[0], str(path)] + argv[1:],
        env=dict(os.environ, PYTHONPATH=src, CHASEKIT_MAX_MEMORY_MB="1"),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout
    assert proc.stderr.startswith("aborted: memory budget of 1 MB exceeded")
