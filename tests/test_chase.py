import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import fll_cases, find_homomorphism, terminating_cases, wg_cases

from chasekit import chase, rulesets
from chasekit.analysis import affected_positions, classify, Position
from chasekit.chase import (
    ChaseOptions,
    EgdStep,
    Mode,
    Status,
    TgdStep,
    Trigger,
    apply_egd,
    apply_tgd,
    head_satisfied,
    restricted_gcf,
    rule_triggers,
    run_chase,
    split_ground,
    subtree_atoms,
)
from chasekit.model import (
    EGD,
    TGD,
    Atom,
    Constant,
    Instance,
    LabeledNull,
    NullAllocator,
    Predicate,
    UsageError,
    Variable,
)
from chasekit.parser import parse_atom, parse_instance, parse_program
from chasekit.plan import RulePlan

EXAMPLE_CHASE = """
fact r1(a,b).
tgd r3(X,Y) -> r2(X).
tgd r1(X,Y) -> exists Z: r3(Y,Z).
tgd r1(X,Y), r2(Y) -> exists Z: r1(Y,Z).
tgd r1(X,Y) -> r2(Y).
"""


def example_program():
    return parse_program(EXAMPLE_CHASE)


def hom_of(trigger):
    return {v.name: t for v, t in trigger.hom}


def triggers_of(rule, instance):
    """The rule's triggers on the instance, in discovery order; for an EGD
    only those whose equated values differ."""
    plan = RulePlan(rule)
    keys = [key for _, key in rule_triggers([plan], instance)]
    if isinstance(rule, EGD):
        keys = [key for key in keys if len(set(plan.equated(key))) == 2]
    return [Trigger.of(plan, key) for key in keys]


# ---------------------------------------------------------------------------
# Trigger finding
# ---------------------------------------------------------------------------

def test_oblivious_trigger_on_database():
    p = example_program()
    sigma2 = p.tgds[1]
    triggers = triggers_of(sigma2, p.facts)
    assert len(triggers) == 1
    assert hom_of(triggers[0]) == {"X": Constant("a"), "Y": Constant("b")}


def test_restricted_blocks_satisfied_head():
    p = example_program()
    sigma2 = p.tgds[1]
    inst = parse_instance("r1(a,b), r3(b,_:n9).")
    (trigger,) = triggers_of(sigma2, inst)
    assert head_satisfied(trigger.plan, trigger.key, inst)
    assert not head_satisfied(trigger.plan, trigger.key, parse_instance("r1(a,b)."))


def test_unmatched_body_no_triggers():
    p = example_program()
    sigma3 = p.tgds[2]
    assert triggers_of(sigma3, p.facts) == []


def test_egd_triggers_need_distinct_values():
    egd = parse_program("egd r(X,Y), r(X,Z) -> Y = Z.").egds[0]
    inst = parse_instance("r(a,b), r(a,b).")
    assert triggers_of(egd, inst) == []
    inst2 = parse_instance("r(a,b), r(a,c).")
    assert len(triggers_of(egd, inst2)) == 2  # both orientations


# ---------------------------------------------------------------------------
# Single steps
# ---------------------------------------------------------------------------

def test_apply_tgd_adds_head_image():
    p = example_program()
    sigma2 = p.tgds[1]
    inst = p.facts.copy()
    alloc = NullAllocator.after(inst)
    (trigger,) = triggers_of(sigma2, inst)
    _, atom, added = apply_tgd(trigger, inst, alloc)
    assert added and atom == parse_atom("r3(b,_:n1)")


def test_apply_tgd_preserves_head_constants():
    rules = parse_program("tgd t(X, c) -> u(X, c).").tgds
    inst = parse_instance("t(a, c).")
    alloc = NullAllocator.after(inst)
    (trigger,) = triggers_of(rules[0], inst)
    _, atom, _ = apply_tgd(trigger, inst, alloc)
    assert atom == parse_atom("u(a, c)")


def test_apply_tgd_rejects_stale_trigger():
    rules = parse_program("tgd t(X) -> u(X).").tgds
    inst = parse_instance("t(a).")
    (trigger,) = triggers_of(rules[0], inst)
    other = parse_instance("t(b).")
    with pytest.raises(UsageError):
        apply_tgd(trigger, other, NullAllocator())


def test_a_built_tgd_whose_existential_misses_the_head_is_rejected():
    # built through the API: refused when built, as the parser refuses it
    Y, Z = Variable("Y"), Variable("Z")
    with pytest.raises(UsageError, match="TGD tgd0: existential Z does not occur in the head"):
        TGD((parse_atom("p(X)"),), (parse_atom("q(X,Y)"),), frozenset({Y, Z}), label="tgd0")


def test_duplicate_rule_hom_pair_applied_once():
    p = example_program()
    res = run_chase(p.facts, p.tgds, [], ChaseOptions(
        mode=Mode.OBLIVIOUS, max_steps=30, max_depth=8))
    seen = set()
    for node in res.forest:
        if node.trigger is not None:
            key = (node.trigger.rule.label, node.trigger.hom)
            assert key not in seen
            seen.add(key)


def egd_fixture():
    return parse_program("egd data(O,A,V), data(O,A,W), funct(A,O) -> V = W.").egds[0]


def test_apply_egd_two_constants_fails():
    egd = egd_fixture()
    inst = parse_instance("data(o,a,c1), data(o,a,c2), funct(a,o).")
    trigger = next(
        t for t in triggers_of(egd, inst)
        if dict(t.hom)[Variable("V")] == Constant("c1")
    )
    assert apply_egd(trigger, inst) is None


def test_apply_egd_constant_beats_null():
    egd = egd_fixture()
    inst = parse_instance("data(o,a,c), data(o,a,_:n1), funct(a,o).")
    trigger = triggers_of(egd, inst)[0]
    step = apply_egd(trigger, inst)
    assert step is not None and step.trigger is trigger
    assert step.kept == Constant("c") and step.replaced == LabeledNull(1)
    assert step.innocuous  # the two data atoms will collapse into one
    # deciding leaves the instance as it was; the merge is in place
    assert LabeledNull(1) in inst.domain() and len(inst) == 3
    assert inst.rewrite(step.replaced, step.kept) == []
    assert LabeledNull(1) not in inst.domain() and len(inst) == 2


def test_apply_egd_lower_null_survives():
    egd = egd_fixture()
    inst = parse_instance("data(o,a,_:n1), data(o,a,_:n2), funct(a,o).")
    trigger = triggers_of(egd, inst)[0]
    step = apply_egd(trigger, inst)
    assert step.kept == LabeledNull(1) and step.replaced == LabeledNull(2)
    assert step.innocuous


def test_apply_egd_non_innocuous_merge():
    egd = parse_program("egd r(X,Y), r(Y,X) -> X = Y.").egds[0]
    inst = parse_instance("r(_:n1,_:n2), r(_:n2,_:n1), s(_:n2,c).")
    trigger = triggers_of(egd, inst)[0]
    step = apply_egd(trigger, inst)
    # r-atoms collapse but s(_:n1,c) is new: same size, not a shrink
    assert step is not None and not step.innocuous


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------

def test_running_example_step_log_prefix():
    p = example_program()
    res = run_chase(p.facts, p.tgds, [], ChaseOptions(
        mode=Mode.OBLIVIOUS, max_steps=20, max_depth=64))
    assert res.status is Status.BUDGET_EXHAUSTED
    got = [(s.atom.predicate.name, s.trigger.rule.label) for s in res.steps[:5]]
    assert got == [
        ("r3", "tgd2"), ("r2", "tgd4"), ("r1", "tgd3"), ("r3", "tgd2"),
        ("r2", "tgd4"),
    ]


def test_depth_budget_skips_deeper_triggers_and_keeps_chasing():
    p = parse_program(
        "fact r(a,b). tgd r(X,Y) -> exists Z: r(Y,Z). tgd r(X,Y) -> s(Y)."
        "tgd s(Z) -> p3(Z). tgd r(Y,Z), p3(Z) -> p2(Y). tgd r(X,Y), p2(Y) -> goal(X)."
    )
    res = run_chase(p.facts, p.tgds, [], ChaseOptions(mode=Mode.OBLIVIOUS, max_depth=4))
    assert res.status is Status.BUDGET_EXHAUSTED
    assert max(node.depth for node in res.forest) == 4
    # goal(a) sits at depth 1, behind triggers over the budget in the queue
    assert {parse_atom("goal(a)"), parse_atom("goal(b)")} <= res.instance.atom_set()


def test_single_step_saturation():
    p = parse_program("fact r(a,b). tgd r(X,Y) -> exists Z: s(Y,Z).")
    res = run_chase(p.facts, p.tgds, [], ChaseOptions(mode=Mode.OBLIVIOUS))
    assert res.status is Status.SATURATED
    assert res.instance.atom_set() == {parse_atom("r(a,b)"),
                                       parse_atom("s(b,_:n1)")}


def test_empty_dependency_set_saturates_immediately():
    p = parse_program("fact r(a,b).")
    res = run_chase(p.facts, [], [], ChaseOptions())
    assert res.status is Status.SATURATED
    assert res.instance.atom_set() == p.facts.atom_set()
    assert res.steps == []


def test_zero_budget_rejected():
    p = parse_program("fact r(a,b).")
    with pytest.raises(UsageError):
        run_chase(p.facts, [], [], ChaseOptions(max_steps=0))


def test_restricted_chase_is_subset_of_oblivious_up_to_renaming():
    from helpers import find_homomorphism

    for db, rules, ob, re in terminating_cases(seed=77, count=25):
        assert find_homomorphism(re.instance.atoms(), ob.instance) is not None


STRATA = [Predicate("p0", 1), Predicate("p1", 2), Predicate("p2", 3), Predicate("p3", 2)]
ARGS = [Variable("X"), Variable("Y")]
Z = Variable("Z")


@st.composite
def stratified_rules(draw, label):
    """A TGD whose head sits in a stratum at or above its body's, strictly
    above for an existential one, so that every chase terminates."""
    levels = draw(st.lists(st.integers(0, 2), min_size=1, max_size=2))
    body = tuple(Atom(STRATA[lvl], tuple(draw(st.sampled_from(ARGS)) for _ in
                                         range(STRATA[lvl].arity))) for lvl in levels)
    body_vars = sorted({v for a in body for v in a.variables()}, key=lambda v: v.name)
    existential = draw(st.sampled_from([True, True, False]))
    head = STRATA[draw(st.integers(max(levels) + existential, 3))]
    args = [draw(st.sampled_from(body_vars)) for _ in range(head.arity)]
    if existential:
        args[draw(st.integers(0, head.arity - 1))] = Z
    return TGD(body, (Atom(head, tuple(args)),), frozenset({Z} if existential else ()),
               label=label)


@st.composite
def stratified_programs(draw):
    consts = [Constant(c) for c in "abc"]
    facts = draw(st.lists(st.sampled_from(STRATA[:3]).flatmap(
        lambda p: st.tuples(*[st.sampled_from(consts)] * p.arity).map(
            lambda args: Atom(p, args))), min_size=2, max_size=8))
    rules = [draw(stratified_rules("tgd%d" % (i + 1))) for i in range(draw(st.integers(2, 5)))]
    return Instance(facts), rules


@settings(max_examples=100, derandomize=True, deadline=None)
@given(stratified_programs())
def test_restricted_and_oblivious_results_are_homomorphically_equivalent(program):
    db, rules = program
    results = [run_chase(db, rules, (), ChaseOptions(mode=mode, max_steps=2000))
               for mode in (Mode.RESTRICTED, Mode.OBLIVIOUS)]
    assume(all(r.status is Status.SATURATED for r in results))
    for source, target in (results, results[::-1]):
        mapping = find_homomorphism(source.instance.atoms(), target.instance)
        assert mapping is not None
        for atom in source.instance:
            assert atom.substitute(mapping) in target.instance


def test_step_log_text_format():
    p = parse_program("fact t(a). tgd t(X) -> exists Z: u(X,Z).")
    res = run_chase(p.facts, p.tgds, [], ChaseOptions())
    assert res.step_log() == "+ u(a,_:n1) BY tgd1 WITH {X->a}"


def pairwise_line(step, show):
    """A TGD step's log line built pair by pair from `Trigger.hom`."""
    binding = ",".join("%s->%s" % (v.name, show(t)) for v, t in step.trigger.hom)
    return "+ %s BY %s WITH {%s}" % (show(step.atom), step.trigger.rule.label, binding)


def assert_lines_match_pairwise(steps):
    tgd_steps = [s for s in steps if isinstance(s, TgdStep)]
    for show in (repr, lambda x: "<%r>" % (x,)):
        for step in tgd_steps:
            assert step.render(show) == pairwise_line(step, show)
    return len(tgd_steps)


def test_step_lines_match_pairwise_rendering_on_generated_programs():
    lines = 0
    for _, _, ob, re in terminating_cases(seed=32, count=25):
        lines += assert_lines_match_pairwise(ob.steps) + assert_lines_match_pairwise(re.steps)
    for db, rules in wg_cases(seed=32, count=25):
        res = run_chase(db, rules, (), ChaseOptions(Mode.OBLIVIOUS, 300, 8))
        lines += assert_lines_match_pairwise(res.steps)
    for program in fll_cases(seed=32, count=8):
        res = run_chase(program.facts, program.tgds, program.egds,
                        ChaseOptions(Mode.OBLIVIOUS, 300, 8))
        lines += assert_lines_match_pairwise(res.steps)
    assert lines > 1000


def test_step_lines_escape_percent_signs_and_bind_no_variable():
    x, y = Variable("X"), Variable("Y%s")
    p, q, r = Predicate("p", 1), Predicate("q", 1), Predicate("r", 2)
    rules = [TGD((Atom(p, (x,)),), (Atom(r, (x, Variable("Z%d"))),),
                 frozenset({Variable("Z%d")}), label="100% of %s"),
             TGD((Atom(r, (x, y)),), (Atom(q, (y,)),), label="%%"),
             TGD((Atom(p, (Constant("a"),)),), (Atom(q, (Constant("a"),)),))]
    res = run_chase(Instance([Atom(p, (Constant("a"),))]), rules, (),
                    ChaseOptions(Mode.OBLIVIOUS))
    assert assert_lines_match_pairwise(res.steps) == 3
    assert res.step_log().splitlines() == [
        "+ r(a,_:n1) BY 100% of %s WITH {X->a}",
        "+ q(a) BY  WITH {}",
        "+ q(_:n1) BY %% WITH {X->a,Y%s->_:n1}",
    ]


def test_egd_step_log_format():
    p = parse_program(
        "fact f(a,o). tgd f(A,O) -> exists V: d(O,A,V)."
        "tgd f(A,O) -> exists V: d(O,A,V)."  # duplicate derivations
        "egd d(O,A,V), d(O,A,W), f(A,O) -> V = W."
    )
    res = run_chase(p.facts, p.tgds, p.egds, ChaseOptions(mode=Mode.OBLIVIOUS))
    merges = [s for s in res.steps if isinstance(s, EgdStep)]
    assert merges and merges[0].render().startswith("= _:n1<-_:n2 BY egd1")
    assert merges[0].innocuous


# ---------------------------------------------------------------------------
# Forest
# ---------------------------------------------------------------------------

def test_forest_roots_are_database_atoms():
    for db, rules, ob, _ in terminating_cases(seed=13, count=10):
        roots = [n for n in ob.forest if n.parent is None]
        assert {n.atom for n in roots} == db.atom_set()


def test_forest_edges_come_from_guard_images():
    p = example_program()
    res = run_chase(p.facts, p.tgds, [], ChaseOptions(
        mode=Mode.OBLIVIOUS, max_steps=12, max_depth=64))
    by_id = {n.id: n for n in res.forest}
    for node in res.forest:
        if node.trigger is None:
            continue
        gi = 0  # all example rules guard on their first body atom
        hom = dict(node.trigger.hom)
        want = node.trigger.rule.body[gi].substitute(hom)
        assert by_id[node.parent].atom == want


def test_restricted_gcf_prunes_duplicate_subtrees():
    p = example_program()
    res = run_chase(p.facts, p.tgds, [], ChaseOptions(
        mode=Mode.OBLIVIOUS, max_steps=12, max_depth=64))
    pruned = restricted_gcf(res.forest)
    labels = [n.atom for n in pruned]
    assert len(labels) == len(set(labels))  # each atom at most once
    # the later r2(b) node (child of r3(b,n1) via tgd1) is gone
    r2b = [n for n in res.forest if n.atom == parse_atom("r2(b)")]
    assert len(r2b) == 2
    survivor = min(r2b, key=lambda n: n.id)
    assert [n.id for n in pruned if n.atom == parse_atom("r2(b)")] == [survivor.id]


def test_restricted_gcf_idempotent_on_duplicate_free_forest():
    p = parse_program("fact r(a,b). tgd r(X,Y) -> exists Z: s(Y,Z).")
    res = run_chase(p.facts, p.tgds, [], ChaseOptions(mode=Mode.OBLIVIOUS))
    assert restricted_gcf(res.forest) == res.forest


def test_pruned_descendants_never_survive():
    for db, rules, ob, _ in terminating_cases(seed=99, count=10):
        pruned = restricted_gcf(ob.forest)
        kept = {n.id for n in pruned}
        by_id = {n.id: n for n in ob.forest}
        for node in ob.forest:
            if node.id in kept and node.parent is not None:
                assert node.parent in kept


@pytest.fixture(scope="module")
def forest_runs():
    """The restricted and the oblivious run, at most 3,000 steps, of each
    program of `wg_cases(20241, 100)` and `fll_cases(5, 40)`: 280 runs."""
    programs = [(db, rules, ()) for db, rules in wg_cases(20241, 100)]
    programs += [(p.facts, p.tgds, p.egds) for p in fll_cases(5, 40)]
    return [run_chase(db, tgds, egds, ChaseOptions(mode, max_steps=3000))
            for db, tgds, egds in programs for mode in (Mode.RESTRICTED, Mode.OBLIVIOUS)]


def test_the_forest_lists_each_node_at_its_id_after_its_parent(forest_runs):
    merged = 0
    for res in forest_runs:
        for i, node in enumerate(res.forest):
            assert node.id == i
            assert node.parent is None or node.parent < i
        merged += any(isinstance(step, EgdStep) for step in res.steps)
    assert len(forest_runs) == 280 and merged > 0  # merges relabel nodes, never move them


def child_map_walk(forest, atom):
    """The atoms of the subtrees below every node labeled `atom`, by a
    depth-first walk over a child map: the one-pass `subtree_atoms`'
    oracle, which assumes no node order."""
    kids = {n.id: [] for n in forest}
    for n in forest:
        if n.parent is not None:
            kids[n.parent].append(n.id)
    label = {n.id: n.atom for n in forest}
    stack = [n.id for n in forest if n.atom == atom]
    out = set()
    while stack:
        nid = stack.pop()
        out.add(label[nid])
        stack.extend(kids[nid])
    return out


def test_subtree_atoms_is_the_child_map_walk(forest_runs):
    rng = random.Random(5)
    checked = 0
    for res in forest_runs[::7]:
        atoms = sorted({n.atom for n in res.forest}, key=repr)
        for atom in rng.sample(atoms, min(5, len(atoms))):
            assert subtree_atoms(res, atom) == child_map_walk(res.forest, atom), atom
            checked += 1
    assert checked > 100
    with pytest.raises(UsageError, match="does not occur in the forest"):
        subtree_atoms(forest_runs[0], parse_atom("absent(a)"))


def test_nulls_only_at_affected_positions():
    for db, rules, ob, _ in terminating_cases(
        seed=101, count=20, weakly_guarded_only=True
    ):
        affected = affected_positions(rules)
        for atom in ob.instance:
            for i, t in enumerate(atom.args):
                if isinstance(t, LabeledNull):
                    assert Position(atom.predicate, i + 1) in affected


def test_null_paths_connected_in_restricted_gcf():
    # a null appears on every node of the path from its birth node down
    # to any node mentioning it
    for db, rules, ob, _ in terminating_cases(
        seed=103, count=20, weakly_guarded_only=True
    ):
        pruned = restricted_gcf(ob.forest)
        by_id = {n.id: n for n in pruned}
        birth = {}
        for node in sorted(pruned, key=lambda n: n.id):
            for t in node.atom.args:
                if isinstance(t, LabeledNull) and t not in birth:
                    birth[t] = node.id
        for node in pruned:
            for t in node.atom.args:
                if not isinstance(t, LabeledNull):
                    continue
                walk = node
                seen_birth = walk.id == birth[t]
                while walk.parent is not None and not seen_birth:
                    assert t in walk.atom.args
                    walk = by_id[walk.parent]
                    seen_birth = walk.id == birth[t]


def test_each_null_introduced_by_exactly_one_step():
    # scanning the step log: a null introduced by a step (in the new atom
    # but not among the trigger's values) is never seen before and never
    # introduced twice
    for db, rules, ob, _ in terminating_cases(seed=107, count=15):
        introduced = set()
        seen = set(t for a in db for t in a.args if isinstance(t, LabeledNull))
        for step in ob.steps:
            assert isinstance(step, TgdStep)
            hom_values = {v for _, v in step.trigger.hom if isinstance(v, LabeledNull)}
            assert hom_values <= seen  # triggers only bind existing terms
            for t in step.atom.args:
                if isinstance(t, LabeledNull) and t not in hom_values:
                    assert t not in seen
                    assert t not in introduced
                    introduced.add(t)
            seen.update(hom_values)
            seen.update(t for t in step.atom.args if isinstance(t, LabeledNull))


def test_restricted_gcf_is_a_domain_join_forest():
    # Lemma-style construction: on weakly guarded terminating runs the
    # restricted forest itself, read as an atom-labeled forest, is a
    # [dom(D)]-join forest of the whole chase
    from chasekit.acyclic import JoinForest

    for db, rules, ob, _ in terminating_cases(
        seed=211, count=15, weakly_guarded_only=True
    ):
        if not ob.forest_complete:
            continue
        pruned = restricted_gcf(ob.forest)
        assert len({n.atom for n in pruned}) == len(ob.instance)
        index = {n.id: i for i, n in enumerate(pruned)}
        forest = JoinForest(
            atoms=[n.atom for n in pruned],
            parents=[None if n.parent is None else index[n.parent]
                     for n in pruned],
            hidden=frozenset(db.domain()),
        )
        assert forest.validate(ob.instance.atom_set())


# ---------------------------------------------------------------------------
# split_ground
# ---------------------------------------------------------------------------

def test_split_ground_basic():
    db = parse_instance("r(a,b).")
    inst = parse_instance("r(a,b), s(b,_:n1).")
    ground, nullpart = split_ground(inst, db)
    assert ground.atom_set() == {parse_atom("r(a,b)")}
    assert nullpart.atom_set() == {parse_atom("s(b,_:n1)")}


def test_split_ground_keeps_derived_ground_atoms():
    p = example_program()
    res = run_chase(p.facts, p.tgds, [], ChaseOptions(
        mode=Mode.OBLIVIOUS, max_steps=12, max_depth=64))
    ground, nullpart = split_ground(res.instance, p.facts)
    assert parse_atom("r2(b)") in ground
    assert all(a.is_ground() for a in ground)


def test_split_ground_partitions():
    for db, rules, ob, _ in terminating_cases(seed=109, count=10):
        ground, nullpart = split_ground(ob.instance, db)
        assert ground.atom_set() | nullpart.atom_set() == ob.instance.atom_set()
        assert not (ground.atom_set() & nullpart.atom_set())


def test_merge_rewrites_pending_work_without_stale_triggers():
    # an EGD merge rewrites a freshly added atom; rules matching the old
    # atom must fire on its rewritten form instead
    p = parse_program(
        "fact f(a,o)."
        "tgd f(A,O) -> exists V: d(O,A,V)."
        "tgd f(A,O) -> exists W: d(O,A,W)."
        "tgd d(O,A,V) -> m(V)."
        "egd d(O,A,V), d(O,A,W), f(A,O) -> V = W."
    )
    res = run_chase(p.facts, p.tgds, p.egds, ChaseOptions(mode=Mode.OBLIVIOUS))
    assert res.status is Status.SATURATED
    assert res.instance.atom_set() == {
        parse_atom("f(a,o)"), parse_atom("d(o,a,_:n1)"), parse_atom("m(_:n1)"),
    }


def test_chase_failure_on_constant_clash():
    p = parse_program(
        "fact d(o,a,c1). fact d(o,a,c2). fact f(a,o)."
        "egd d(O,A,V), d(O,A,W), f(A,O) -> V = W."
    )
    res = run_chase(p.facts, [], p.egds, ChaseOptions())
    assert res.status is Status.FAILED
    assert res.failure_witness is not None
    assert res.failure_witness.rule is p.egds[0]


def test_unguarded_rules_make_forest_incomplete():
    p = parse_program(
        "fact r(a,b). fact s(b,c)."
        "tgd r(X,Y), s(Y,Z) -> exists W: t(X,Z,W)."
        "tgd t(X,Z,W) -> exists V: r(W,V)."
    )
    res = run_chase(p.facts, p.tgds, [], ChaseOptions(
        mode=Mode.OBLIVIOUS, max_steps=40, max_depth=10))
    # first rule is unguarded once t's positions become affected
    from chasekit.analysis import classify, RuleClass

    cls = classify(p.tgds)
    if cls.per_rule[0] is RuleClass.UNGUARDED:
        assert not res.forest_complete


# ---------------------------------------------------------------------------
# forest guards, classified at the first TGD step
# ---------------------------------------------------------------------------

def test_a_run_that_applies_no_tgd_classifies_nothing():
    # the six-fact coloring database already satisfies every rule
    p = rulesets.builtin_program("3col")
    with mock.patch.object(chase, "classify", wraps=chase.classify) as spy:
        res = run_chase(p.facts, p.tgds, p.egds)
    assert (res.status, res.steps, len(res.forest)) == (Status.SATURATED, [], len(p.facts))
    assert spy.call_count == 0


def test_forest_parents_and_depths_follow_the_classified_guards():
    derived = 0
    for db, rules in wg_cases(seed=11, count=25):
        res = run_chase(db, rules, opts=ChaseOptions(Mode.OBLIVIOUS, max_steps=150))
        assert res.forest_complete
        guards = classify(res.tgds).forest_guards
        first = {}
        for node in res.forest:
            first.setdefault(node.atom, node.id)
        for node in res.forest:
            if node.trigger is None:
                assert (node.parent, node.depth) == (None, 0)
                continue
            rule = node.trigger.rule
            guard = rule.body[guards[res.tgds.index(rule)]]
            parent = first.get(guard.substitute(dict(node.trigger.hom)))
            assert node.parent == parent
            assert node.depth == (0 if parent is None else res.forest[parent].depth + 1)
            derived += 1
    assert derived >= 500


# ---------------------------------------------------------------------------
# triggers are (rule, key) records; the plan only carries them
# ---------------------------------------------------------------------------

def test_trigger_equality_and_hash_ignore_the_plan():
    db, rules = next(wg_cases(seed=3, count=1))
    opts = ChaseOptions(Mode.OBLIVIOUS, max_steps=40)
    one, two = ([n.trigger for n in run_chase(db, rules, opts=opts).forest if n.trigger]
                for _ in range(2))
    assert one and len(one) == len(two)
    assert all(a.plan is not b.plan for a, b in zip(one, two))  # each run plans its own
    assert one == two
    assert [hash(t) for t in one] == [hash(t) for t in two]
    assert "plan" not in repr(one[0])
    # a set of triggers from both runs holds each (rule, key) once
    assert set(one) == set(two) and len(set(one + two)) == len(set(one))
    assert len(set(one)) == len({(t.rule, t.key) for t in one})
