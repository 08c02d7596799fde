"""The one homomorphism matcher: compiled plans (`chasekit.plan`), run by
chase.body_homomorphisms, chase.rule_triggers and query.homomorphisms.

A plan must yield exactly what a declaration-order nested loop over
`by_predicate` yields, in the same order: discovery order fixes the
chase's FIFO queue, and with it null numbering, the forest and the step
log.  The golden digests pin those step logs; they were recorded with
the nested-loop matcher the position index and the plans replaced.
"""

import hashlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import exhaustive_eval, hom_key, wg_cases

from chasekit.chase import (
    ChaseOptions,
    Mode,
    Trigger,
    body_homomorphisms,
    rule_triggers,
    run_chase,
)
from chasekit.model import CQ, TGD, Atom, Constant, Instance, LabeledNull, Predicate, Variable
from chasekit.plan import Plan, RulePlan
from chasekit.query import connected_order, holds, homomorphisms

PREDS = [Predicate("p", 2), Predicate("q", 2), Predicate("s", 1), Predicate("t", 3)]
VALUES = [Constant("a"), Constant("b"), Constant("c"), LabeledNull(1), LabeledNull(2)]
VARS = [Variable(n) for n in "XYZW"]
# pattern terms: mostly variables (repeats included), some constants and
# nulls, and one constant that no instance holds
PATTERN_TERMS = VARS * 3 + VALUES + [Constant("z")]


def atoms_over(terms):
    return st.sampled_from(PREDS).flatmap(
        lambda p: st.tuples(*[st.sampled_from(terms)] * p.arity).map(
            lambda args: Atom(p, args)))


facts = st.lists(atoms_over(VALUES), min_size=4, max_size=20).map(Instance)
seeds = st.dictionaries(st.sampled_from(VARS), st.sampled_from(VALUES), max_size=2)


def nested_loop(body, instance, seed, pinned):
    """Reference: body atoms in declaration order, each against every atom
    of its predicate in insertion order."""

    def extend(i, hom):
        if i == len(body):
            yield hom
            return
        pattern = body[i]
        if pinned is not None and pinned[0] == i:
            candidates = [pinned[1]]
        else:
            candidates = instance.by_predicate(pattern.predicate)
        for fact in candidates:
            if fact.predicate != pattern.predicate:
                continue
            out = dict(hom)
            if all(out.setdefault(p, f) == f if isinstance(p, Variable) else p == f
                   for p, f in zip(pattern.args, fact.args)):
                yield from extend(i + 1, out)

    yield from extend(0, dict(seed))


def draw_body(data, instance):
    """One to four pattern atoms.  Most copy an instance atom with some
    arguments turned into variables, so that joins over shared variables
    have several matches; the others are drawn freely."""
    body = []
    for _ in range(data.draw(st.integers(1, 4))):
        if data.draw(st.integers(0, 3)):
            fact = data.draw(st.sampled_from(instance.atoms()))
            args = tuple(data.draw(st.sampled_from([t] + VARS)) for t in fact.args)
            body.append(Atom(fact.predicate, args))
        else:
            body.append(data.draw(atoms_over(PATTERN_TERMS)))
    return body


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.data())
def test_indexed_matcher_yields_the_nested_loop_order(data):
    instance = data.draw(facts)
    body = draw_body(data, instance)
    seed = data.draw(seeds)
    pinned = None
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(body) - 1))
        pool = instance.by_predicate(body[i].predicate) or instance.atoms()
        pinned = (i, data.draw(st.sampled_from(pool)))
    want = list(nested_loop(body, instance, seed, pinned))
    if pinned is None:
        assert list(body_homomorphisms(body, instance, seed)) == want
    else:
        plan = Plan(body, tuple(seed), pinned[0])
        assert [dict(zip(plan.vars, match[plan.width:]))
                for match in plan.matches(instance, tuple(seed.values()), pinned[1])] == want


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_query_homomorphisms_agree_with_exhaustive_eval(data):
    instance = data.draw(facts)
    body = draw_body(data, instance)
    body_vars = sorted({t for a in body for t in a.args if isinstance(t, Variable)},
                       key=lambda v: v.name)
    head = tuple(data.draw(st.lists(st.sampled_from(body_vars), max_size=2))
                 if body_vars else ())
    query = CQ("q", head, tuple(body))
    got = {tuple(hom[v] for v in head) for hom in homomorphisms(body, instance)}
    assert got == exhaustive_eval(instance, query)


# the plan layer: every rule body, every pinned position
NULLARY = Predicate("u", 0)
PLAN_PREDS = PREDS + [NULLARY]
SHAPES = ["repeat", "constant", "null", "nullary", "free"]


def plan_atom(data, instance, terms):
    """An atom copying an instance atom with some arguments turned into
    variables, or one drawn freely over the given terms."""
    if instance.atoms() and data.draw(st.integers(0, 2)):
        fact = data.draw(st.sampled_from(instance.atoms()))
        return Atom(fact.predicate,
                    tuple(data.draw(st.sampled_from([t] + VARS)) for t in fact.args))
    p = data.draw(st.sampled_from(PLAN_PREDS))
    return Atom(p, tuple(data.draw(st.sampled_from(terms)) for _ in range(p.arity)))


def draw_rule_body(data, instance):
    """One to four atoms, one of which has the drawn shape: a variable
    repeated inside the atom, a constant, a null, or no argument."""
    body = [plan_atom(data, instance, PATTERN_TERMS) for _ in range(data.draw(st.integers(0, 3)))]
    shape = data.draw(st.sampled_from(SHAPES))
    if shape == "repeat":
        v = data.draw(st.sampled_from(VARS))
        special = Atom(PREDS[3], (v, data.draw(st.sampled_from(VARS)), v))
    elif shape == "constant":
        special = Atom(PREDS[0], (data.draw(st.sampled_from(VARS)),
                                  data.draw(st.sampled_from([Constant("a"), Constant("z")]))))
    elif shape == "null":
        special = Atom(PREDS[1], (LabeledNull(1), data.draw(st.sampled_from(VARS))))
    elif shape == "nullary":
        special = Atom(NULLARY, ())
    else:
        special = plan_atom(data, instance, PATTERN_TERMS)
    body.insert(data.draw(st.integers(0, len(body))), special)
    return body


plan_facts = st.lists(atoms_over(VALUES), min_size=4, max_size=20).flatmap(
    lambda atoms: st.booleans().map(
        lambda nullary: Instance(atoms + [Atom(NULLARY, ())] if nullary else atoms)))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.data())
def test_plan_keys_are_the_nested_loop_homomorphisms(data):
    instance = data.draw(plan_facts)
    body = draw_rule_body(data, instance)
    plan = RulePlan(TGD(tuple(body), (Atom(NULLARY, ()),)))
    variables = sorted({t for a in body for t in a.args if isinstance(t, Variable)},
                       key=lambda v: v.name)
    assert list(plan.vars) == variables

    def keys(new_atom):
        return [tuple(zip(plan.vars, key))
                for _, key in rule_triggers([plan], instance, new_atom)]

    assert keys(None) == [hom_key(h) for h in nested_loop(body, instance, {}, None)]
    # a new fact pins every body position of its predicate in turn; it
    # need not be in the instance
    extra = Atom(body[0].predicate, tuple(VALUES[:body[0].predicate.arity]))
    for fact in instance.atoms() + [extra]:
        want = [hom_key(h) for i, atom in enumerate(body) if atom.predicate == fact.predicate
                for h in nested_loop(body, instance, {}, (i, fact))]
        assert keys(fact) == want
    for key in keys(None):
        trigger = Trigger.of(plan, tuple(t for _, t in key))
        assert trigger == Trigger.of(RulePlan(plan.rule), trigger.key) and \
            trigger.hom == key
        assert plan.body_images(trigger.key) == [a.substitute(dict(key)) for a in body]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_a_cutoff_keeps_the_matches_at_or_before_it_in_order(data):
    # the chase expands a queued atom over the instance as it stood when
    # the atom was added: the atoms at or before a position.  A merge
    # leaves gaps in the positions, and cutoffs may fall in them.
    instance = data.draw(plan_facts)
    body = draw_rule_body(data, instance)
    pinned = data.draw(st.sampled_from([None] + list(range(len(body)))))
    for merge in (False, True):
        if merge:
            old, new = data.draw(st.lists(st.sampled_from(VALUES), min_size=2, max_size=2,
                                          unique=True))
            instance.rewrite(old, new)
        position = instance.position
        plan = Plan(body, pinned=pinned)
        if pinned is None:
            facts = [None]
        else:
            facts = [f for f in instance.atoms() if f.predicate == body[pinned].predicate]
        positions = sorted(map(position, instance.atoms()))
        for fact in facts:
            uncut = list(plan.matches(instance, (), fact))
            # the positions each match reads, the pinned fact left out
            reads = []
            for match in uncut:
                hom = dict(zip(plan.vars, match[plan.width:]))
                reads.append([position(a.substitute(hom))
                              for i, a in enumerate(body) if i != pinned])
            for cutoff in range(positions[0] - 1, positions[-1] + 1):
                want = [m for m, at in zip(uncut, reads) if all(p <= cutoff for p in at)]
                assert list(plan.matches(instance, (), fact, cutoff)) == want


def test_rule_triggers_over_several_rules_runs_only_rules_reading_the_fact():
    p, q, s, t = PREDS
    X, Y, Z = VARS[:3]
    a, b, c, n1 = VALUES[:4]
    rules = [
        TGD((p(X, Y), q(Y, Z)), (s(X),)),
        TGD((q(X, Y),), (s(Y),)),
        TGD((p(X, Y), p(Y, Z)), (s(Z),)),
        TGD((q(X, X), s(X)), (p(X, X),)),
    ]
    instance = Instance([p(a, b), p(b, c), q(b, b), q(c, n1), s(b), t(a, b, c)])
    plans = [RulePlan(rule) for rule in rules]
    original = RulePlan.plans
    asked = []

    def spy(rule_plan, inst, new_atom=None):
        asked.append(rule_plan)
        return original(rule_plan, inst, new_atom)

    # t is read by no rule; p(c, a) is not in the instance
    for fact in instance.atoms() + [p(c, a)]:
        want = [(idx, key) for idx, plan in enumerate(plans)
                for _, key in rule_triggers([plan], instance, fact)]
        asked.clear()
        with mock.patch.object(RulePlan, "plans", spy):
            got = list(rule_triggers(plans, instance, fact))
        assert got == want
        assert asked == [plan for plan in plans
                         if fact.predicate in {atom.predicate for atom in plan.rule.body}]
        assert len(asked) < len(plans)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_holds_covers_bodies_that_share_no_variable(data):
    instance = data.draw(plan_facts)
    own = iter(Variable("V%d" % i) for i in range(100))
    body = []
    for _ in range(data.draw(st.integers(1, 5))):
        atom = plan_atom(data, instance, VALUES + [Constant("z"), VARS[0]])
        # every variable occurrence is a variable of its own
        body.append(Atom(atom.predicate, tuple(next(own) if isinstance(t, Variable) else t
                                               for t in atom.args)))
    order = connected_order(body, instance)
    assert sorted(order, key=repr) == sorted(body, key=repr)
    query = CQ("q", (), tuple(body))
    assert holds(instance, query) == bool(exhaustive_eval(instance, query))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_connected_order_joins_each_atom_to_the_ones_before(data):
    instance = data.draw(plan_facts)
    body = draw_rule_body(data, instance) + draw_rule_body(data, instance)
    order = connected_order(body, instance)
    assert sorted(order, key=repr) == sorted(body, key=repr)
    placed = set()
    for k, atom in enumerate(order):
        if atom.variables() and placed and not atom.variables() & placed:
            # a new component starts only when no atom left joins
            assert not any(a.variables() & placed for a in order[k:])
        placed |= atom.variables()
    query = CQ("q", (), tuple(body))
    assert holds(instance, query) == bool(exhaustive_eval(instance, query))


def test_connected_order_counts_the_seeded_variables_as_bound():
    # the seed is the body constant d7, bound before the search starts
    r, s = Predicate("r", 2), Predicate("s", 2)
    c = [Constant("c%d" % i) for i in range(50)]
    d = [Constant("d%d" % i) for i in range(50)]
    instance = Instance([Atom(r, (c[i], d[i])) for i in range(50)]
                        + [Atom(s, (Constant("a"), c[i])) for i in range(50)])
    W, X, Y = Variable("W"), Variable("X"), Variable("Y")
    body = [Atom(s, (W, X)), Atom(r, (X, Y))]
    # unbound, both atoms expect 50 candidates and declaration order wins
    assert connected_order(body, instance) == body
    # r(X,d7) selects one r atom, so r comes first
    body[1] = Atom(r, (X, d[7]))
    assert connected_order(body, instance) == body[::-1]
    assert list(homomorphisms(body, instance)) == [{W: Constant("a"), X: c[7]}]


# sha256 over "<step log>\n<status>\n" of each case, recorded with the
# declaration-order nested-loop matcher before the position index; the
# oblivious digest re-recorded when the depth budget began skipping a
# trigger over max_depth instead of ending the run (one case's log grew)
GOLDEN = {
    Mode.OBLIVIOUS: "3d5a7b92c6d1f2e14d4f2f307a43091fb699d6444db8b2f88488436bc116cdc8",
    Mode.RESTRICTED: "6d4ecf82f2582d491184b4ad317f194f6a2ddaac0707b295777ae955a799d9e8",
}


@pytest.mark.parametrize("mode", list(GOLDEN), ids=lambda m: m.value)
def test_step_logs_match_the_golden_digests(mode):
    h = hashlib.sha256()
    for db, rules in wg_cases(seed=20241, count=100):
        res = run_chase(db, rules, (), ChaseOptions(mode=mode, max_steps=3000, max_depth=64))
        h.update(("%s\n%s\n" % (res.step_log(), res.status.value)).encode())
    assert h.hexdigest() == GOLDEN[mode]
