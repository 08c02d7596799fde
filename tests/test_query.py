import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    exhaustive_eval,
    find_homomorphism,
    random_containment_pair,
    random_stratified_program,
    terminating_cases,
)

import chasekit.query as query_module
from chasekit.plan import Plan
from chasekit.chase import ChaseOptions, Mode, Status, run_chase
from chasekit.model import (
    CQ,
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
from chasekit.rulesets import cycle_graph, encode_three_colorability
from chasekit.query import (
    AnswerStatus,
    BlockedAtomic,
    certain_answers,
    check_containment,
    eval_cq,
)

EXAMPLE_CHASE = """
fact r1(a,b).
tgd r3(X,Y) -> r2(X).
tgd r1(X,Y) -> exists Z: r3(Y,Z).
tgd r1(X,Y), r2(Y) -> exists Z: r1(Y,Z).
tgd r1(X,Y) -> r2(Y).
"""


def q(text: str) -> CQ:
    return parse_program("query " + text + ".").queries[0]


# ---------------------------------------------------------------------------
# eval_cq
# ---------------------------------------------------------------------------

def test_single_atom_projection():
    inst = parse_instance("r(a,b).")
    assert eval_cq(inst, q("qq(X) :- r(X,Y)")) == {(Constant("a"),)}


def test_unmatched_predicate_empty():
    inst = parse_instance("r(a,b).")
    assert eval_cq(inst, q("qq(X) :- s(X)")) == set()


def test_constants_in_queries_must_match():
    inst = parse_instance("r(a,b), r(c,b).")
    assert eval_cq(inst, q("qq(X) :- r(X, b)")) == {(Constant("a"),),
                                                    (Constant("c"),)}
    assert eval_cq(inst, q("qq(X) :- r(a, X)")) == {(Constant("b"),)}


def test_eval_matches_exhaustive_substitution():
    rng = random.Random(42)
    preds = [Predicate("p", 2), Predicate("r", 1), Predicate("s", 3)]
    consts = [Constant(c) for c in "abc"]
    for _ in range(120):
        inst = Instance()
        for _ in range(rng.randint(1, 8)):
            p = rng.choice(preds)
            inst.add(Atom(p, tuple(rng.choice(consts) for _ in range(p.arity))))
        variables = [Variable(v) for v in ("U", "V", "W", "T")][: rng.randint(1, 4)]
        body = []
        for _ in range(rng.randint(1, 3)):
            p = rng.choice(preds)
            body.append(Atom(p, tuple(rng.choice(variables + consts[:1])
                                      for _ in range(p.arity))))
        head_candidates = sorted(
            {v for a in body for v in a.variables()}, key=lambda v: v.name
        )
        head = tuple(head_candidates[: rng.randint(0, len(head_candidates))])
        query = CQ("q", head, tuple(body))
        assert eval_cq(inst, query) == exhaustive_eval(inst, query)


def test_eval_monotone_under_instance_growth():
    rng = random.Random(17)
    inst = parse_instance("p(a,b), p(b,c).")
    bigger = inst.copy()
    bigger.add(parse_atom("p(c,a)"))
    query = q("qq(X,Y) :- p(X,Z), p(Z,Y)")
    assert eval_cq(inst, query) <= eval_cq(bigger, query)


def test_boolean_empty_body_holds():
    assert eval_cq(Instance(), CQ("q", (), ())) == {()}


PREDS = [Predicate("p", 2), Predicate("r", 1), Predicate("s", 3)]
VALUES = [Constant("a"), Constant("b"), Constant("c"), LabeledNull(1), LabeledNull(2)]
VARS = [Variable(n) for n in "UVWT"]
# body terms: mostly variables, some constants, one null, and one
# constant that no instance holds
BODY_TERMS = VARS * 3 + [Constant("a"), Constant("b"), LabeledNull(1), Constant("z")]


def atoms_over(terms):
    return st.sampled_from(PREDS).flatmap(
        lambda p: st.tuples(*[st.sampled_from(terms)] * p.arity).map(
            lambda args: Atom(p, args)))


@settings(derandomize=True, deadline=None, max_examples=500)
@given(st.data())
def test_eval_cq_agrees_with_exhaustive_eval(data):
    instance = Instance(data.draw(st.lists(atoms_over(VALUES), max_size=16)))
    # most body atoms copy an instance atom with some arguments turned
    # into variables, so that joins have several matches
    body = []
    for _ in range(data.draw(st.sampled_from([2, 3, 1, 4, 2, 3, 0]))):
        if instance.atoms() and data.draw(st.integers(0, 3)):
            fact = data.draw(st.sampled_from(instance.atoms()))
            body.append(Atom(fact.predicate, tuple(
                data.draw(st.sampled_from([t] + VARS)) for t in fact.args)))
        else:
            body.append(data.draw(atoms_over(BODY_TERMS)))
    body_vars = sorted({v for a in body for v in a.variables()}, key=lambda v: v.name)
    head = ()
    if body_vars and data.draw(st.sampled_from([True, True, True, False])):
        head = tuple(data.draw(st.lists(st.sampled_from(body_vars), min_size=1,
                                        max_size=3)))
        # now and then an answer variable that only the last atom of the
        # search order binds
        order = sorted(body, key=lambda a: len(instance.by_predicate(a.predicate)))
        last_only = sorted(order[-1].variables().difference(*(a.variables()
                                                              for a in order[:-1])),
                           key=lambda v: v.name)
        if last_only and data.draw(st.booleans()):
            head += (data.draw(st.sampled_from(last_only)),)
    query = CQ("q", head, tuple(body))
    assert eval_cq(instance, query) == exhaustive_eval(instance, query)


def spy_on_matches(monkeypatch):
    """Record every match that a compiled `Plan` yields, with its plan."""
    seen = []
    original = Plan.matches

    def spy(plan, instance, seed=(), fact=None):
        for match in original(plan, instance, seed, fact):
            seen.append((plan, match))
            yield match

    monkeypatch.setattr(Plan, "matches", spy)
    return seen


def test_boolean_query_stops_at_its_first_witness(monkeypatch):
    # C11 has 2,046 proper 3-colorings; one settles the query
    facts, query = encode_three_colorability(cycle_graph(11))
    seen = spy_on_matches(monkeypatch)
    assert eval_cq(facts, query) == {()}
    assert [len(plan.vars) for plan, _ in seen] == [len(query.variables())]


def test_find_homomorphism_treats_nulls_as_variables():
    source = [parse_atom("r(a,_:n1)"), parse_atom("s(_:n1,_:n2)")]
    target = parse_instance("r(a,b), s(b,c).")
    mapping = find_homomorphism(source, target)
    assert mapping == {LabeledNull(1): Constant("b"), LabeledNull(2): Constant("c")}
    assert find_homomorphism(source, parse_instance("r(a,b), s(c,d).")) is None


# ---------------------------------------------------------------------------
# certain answers
# ---------------------------------------------------------------------------

def test_bounded_certain_answers_exclude_nulls():
    p = parse_program(EXAMPLE_CHASE + "query qq(X) :- r2(X).")
    report = certain_answers(p.facts, p.tgds, p.queries[0],
                             ChaseOptions(Mode.OBLIVIOUS, max_depth=4))
    assert report.answers == [(Constant("b"),)]
    assert report.status is AnswerStatus.SOUND_LOWER_BOUND
    assert report.budget_exhausted


def test_boolean_query_entailed_on_running_example():
    p = parse_program(EXAMPLE_CHASE + "query bq() :- r3(X,Y).")
    report = certain_answers(p.facts, p.tgds, p.queries[0],
                             ChaseOptions(Mode.OBLIVIOUS, max_depth=3))
    assert report.boolean() is True


def test_no_dependencies_matches_plain_eval():
    p = parse_program("fact r(a,b). fact r(b,c). query qq(X) :- r(X,Y).")
    report = certain_answers(p.facts, [], p.queries[0], ChaseOptions(Mode.RESTRICTED))
    assert report.status is AnswerStatus.EXACT
    assert set(report.answers) == eval_cq(p.facts, p.queries[0])


def test_terminate_exact_on_saturating_sets():
    for db, rules, ob, re in terminating_cases(seed=55, count=10):
        preds = sorted({a.predicate for a in ob.instance},
                       key=lambda p: (p.name, p.arity))
        pred = preds[0]
        vars_ = tuple(Variable("H%d" % i) for i in range(pred.arity))
        query = CQ("q", vars_, (Atom(pred, vars_),))
        report = certain_answers(db, rules, query, ChaseOptions(Mode.RESTRICTED))
        assert report.status is AnswerStatus.EXACT
        want = {row for row in eval_cq(re.instance, query)
                if all(isinstance(t, Constant) for t in row)}
        assert set(report.answers) == want


def test_sound_lower_bound_is_subset_of_exact():
    p = parse_program(EXAMPLE_CHASE + "query qq(X) :- r2(X).")
    shallow = certain_answers(p.facts, p.tgds, p.queries[0],
                              ChaseOptions(Mode.OBLIVIOUS, max_depth=2))
    deeper = certain_answers(p.facts, p.tgds, p.queries[0],
                             ChaseOptions(Mode.OBLIVIOUS, max_depth=6))
    assert set(shallow.answers) <= set(deeper.answers)


def test_blocked_atomic_keeps_answers_reached_through_invented_values():
    # r(b,_:n1) is in every model, so b is a certain answer of q although
    # no null-free atom r(b,c) exists
    p = parse_program(
        "fact r(a,b). tgd r(X,Y) -> exists Z: r(Y,Z). query qq(X) :- r(X,Y).")
    query = p.queries[0]
    report = certain_answers(p.facts, p.tgds, query, BlockedAtomic())
    assert report.status is AnswerStatus.EXACT
    assert report.answers == [(Constant("a"),), (Constant("b"),)]
    bounded = certain_answers(p.facts, p.tgds, query, ChaseOptions(Mode.OBLIVIOUS, max_depth=3))
    assert bounded.answers == report.answers
    oracle = {row for row in exhaustive_eval(bounded.chase.instance, query)
              if all(isinstance(t, Constant) for t in row)}
    assert set(report.answers) == oracle


def atomic_queries(pred):
    """Every atomic query over pred that projects out at least one
    position: Boolean, and each single answer position."""
    vars_ = tuple(Variable("H%d" % i) for i in range(pred.arity))
    body = (Atom(pred, vars_),)
    yield CQ("q", (), body)
    for v in vars_:
        yield CQ("q", (v,), body)


def test_blocked_atomic_agrees_with_the_terminating_chase():
    for db, rules, ob, _ in terminating_cases(
            seed=71, count=20, generator=random_stratified_program,
            weakly_guarded_only=True, max_atoms=120):
        preds = sorted({a.predicate for a in ob.instance},
                       key=lambda p: (p.name, p.arity))
        for pred in preds:
            for query in atomic_queries(pred):
                report = certain_answers(db, rules, query, BlockedAtomic())
                assert report.status is AnswerStatus.EXACT
                want = {row for row in exhaustive_eval(ob.instance, query)
                        if all(isinstance(t, Constant) for t in row)}
                assert set(report.answers) == want, (rules, query)


def test_answers_sorted_lexicographically():
    p = parse_program("fact r(b). fact r(a). query qq(X) :- r(X).")
    report = certain_answers(p.facts, [], p.queries[0], ChaseOptions(Mode.RESTRICTED))
    assert report.answers == [(Constant("a"),), (Constant("b"),)]


# ---------------------------------------------------------------------------
# containment
# ---------------------------------------------------------------------------

def test_containment_by_renaming():
    out = check_containment(q("q1(X) :- r(X,Y)"), q("q2(X) :- r(X,Z)"), [])
    assert out.verdict == "yes"


def test_containment_through_dependency():
    rules = parse_program("tgd r(X,Y) -> s(X).").tgds
    out = check_containment(q("q1(X) :- r(X,Y)"), q("q2(X) :- s(X)"), rules)
    assert out.verdict == "yes"


def test_containment_fails_on_absent_predicate():
    out = check_containment(q("q1(X) :- r(X,Y)"), q("q2(X) :- t(X)"), [])
    assert out.verdict == "no"


def test_containment_arity_mismatch():
    with pytest.raises(UsageError):
        check_containment(q("q1(X) :- r(X,Y)"), q("q2() :- r(X,Y)"), [])


def test_containment_frozen_nulls_are_rigid():
    # q1(X) :- r(X,Y), r(Y,X) is not contained in q2(X) :- r(X,X)
    out = check_containment(
        q("q1(X) :- r(X,Y), r(Y,X)"), q("q2(X) :- r(X,X)"), []
    )
    assert out.verdict == "no"


def test_containment_unknown_on_budget():
    rules = parse_program("tgd r(X,Y) -> exists Z: r(Y,Z).").tgds
    out = check_containment(
        q("q1(X) :- r(X,Y)"), q("q2(X) :- s(X)"), rules, max_steps=30
    )
    assert out.verdict == "unknown"


def test_containment_strictness_direction():
    # q1 is strictly more specific: q1 contained in q2 but not conversely
    out1 = check_containment(q("q1(X) :- r(X,X)"), q("q2(X) :- r(X,Y)"), [])
    out2 = check_containment(q("q2(X) :- r(X,Y)"), q("q1(X) :- r(X,X)"), [])
    assert out1.verdict == "yes" and out2.verdict == "no"


def test_containment_repeated_answer_variable():
    # the frozen head of q1 holds two different values, so no answer of
    # q2(Z,Z) matches it; with q1's head repeated it does
    out = check_containment(q("q1(X,Y) :- r(X,Y)"), q("q2(Z,Z) :- r(Z,W)"), [])
    assert out.verdict == "no"
    out = check_containment(q("q1(X,X) :- r(X,Y)"), q("q2(Z,Z) :- r(Z,W)"), [])
    assert out.verdict == "yes"


def test_containment_under_egds_says_no_only_when_the_chase_meets_them():
    egds = parse_program("egd r(X,Y) -> X = Y.").egds
    # the EGD equates X and Y, so q1's answers all repeat a value: no
    # exact "no" for the repeated head variable, with or without a chase
    for q2 in ("q2(Z,Z) :- r(Z,W)", "q2(Z,Z) :- r(Z,Z)"):
        out = check_containment(q("q1(X,Y) :- r(X,Y)"), q(q2), [], egds=egds)
        assert out.verdict == "unknown", q2
    # a "yes" under the TGDs alone stays
    out = check_containment(q("q1(X,Y) :- r(X,Y)"), q("q2(X,Y) :- r(X,Y)"), [], egds=egds)
    assert out.verdict == "yes"
    # an EGD that the frozen body meets leaves an exact "no"
    egds = parse_program("egd s(X,Y) -> X = Y.").egds
    out = check_containment(q("q1(X,Y) :- r(X,Y)"), q("q2(Z,Z) :- r(Z,W)"), [], egds=egds)
    assert out.verdict == "no"


def test_containment_asks_certain_answers_once(monkeypatch):
    calls = []

    def spy(name):
        original = getattr(query_module, name)

        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return call

    for name in ("certain_answers", "run_chase"):
        monkeypatch.setattr(query_module, name, spy(name))
    rules = parse_program("tgd r(X,Y) -> exists Z: r(Y,Z).").tgds
    assert check_containment(q("q1(X,Y) :- r(X,Y)"), q("q2(X,Y) :- r(X,Y)"), rules,
                             max_steps=30).verdict == "yes"
    assert calls == ["certain_answers", "run_chase"]
    # a repeated answer variable meeting two frozen values needs no chase
    del calls[:]
    assert check_containment(q("q1(X,Y) :- r(X,Y)"), q("q2(X,X) :- r(X,Y)"), rules,
                             max_steps=30).verdict == "no"
    assert calls == []


def test_containment_freezes_to_names_apart_from_the_constants():
    # Y frozen to the constant c2 would match q2's s(Z) through s(c2)
    out = check_containment(q("q1(X) :- r(X,Y), s(c2)"), q("q2(X) :- r(X,Z), s(Z)"), [])
    assert out.verdict == "no"
    # and so would Y frozen to the rule's c2
    rules = parse_program("tgd r(X,c2) -> s(c2).").tgds
    out = check_containment(q("q1(X) :- r(X,Y)"), q("q2(X) :- r(X,Z), s(Z)"), rules)
    assert out.verdict == "no"


@pytest.mark.parametrize("q1, q2", [
    (("q1", (Variable("X"),), (parse_atom("r(X,Y)"),)),
     ("q2", (Variable("U"),), (parse_atom("r(Z,W)"),))),
    (("q1", (Variable("U"),), (parse_atom("r(X,Y)"),)),
     ("q2", (Variable("Z"),), (parse_atom("r(Z,W)"),))),
])
def test_containment_rejects_an_unsafe_query(q1, q2):
    # a head variable absent from the body: built through the API, which
    # refuses it when the query is built, as the parser does
    with pytest.raises(UsageError, match="not in body"):
        check_containment(CQ(*q1), CQ(*q2), [])


@pytest.mark.parametrize("strategy", [ChaseOptions(Mode.RESTRICTED), BlockedAtomic()],
                         ids=["terminate", "blocked-atomic"])
def test_certain_answers_rejects_an_unsafe_query(strategy):
    # built through the API: refused when built, as the parser refuses it
    with pytest.raises(UsageError, match="query q: head variable Y not in body"):
        certain_answers(parse_instance("r(a,b)."), [],
                        CQ("q", (Variable("Y"),), (parse_atom("r(X,Z)"),)), strategy)


def frozen_head_oracle(q1, q2, rules, max_steps=10_000, max_depth=64):
    """Containment by its definition: freeze q1, chase the frozen body,
    and look the frozen head up among all answers of q2 by exhaustive
    substitution."""
    alloc = NullAllocator()
    freeze = {v: alloc.fresh() for v in sorted(q1.variables(), key=lambda x: x.name)}
    frozen_head = tuple(freeze[v] for v in q1.head_vars)
    result = run_chase(Instance(a.substitute(freeze) for a in q1.body), rules, (),
                       ChaseOptions(mode=Mode.RESTRICTED, max_steps=max_steps,
                                    max_depth=max_depth))
    if frozen_head in exhaustive_eval(result.instance, q2):
        return "yes"
    return "no" if result.status is Status.SATURATED else "unknown"


def test_containment_agrees_with_the_frozen_head_oracle():
    seen = Counter()
    for n, (db, rules, ob, _) in enumerate(terminating_cases(seed=83, count=25)):
        rng = random.Random(n)
        for _ in range(4):
            q1, q2 = random_containment_pair(rng, ob.instance, rules)
            verdict = check_containment(q1, q2, rules).verdict
            assert verdict == frozen_head_oracle(q1, q2, rules), (rules, q1, q2)
            seen[verdict] += 1
            seen["boolean"] += q1.is_boolean()
            seen["repeated"] += len(set(q2.head_vars)) < len(q2.head_vars)
    assert all(seen[k] >= 10 for k in ("yes", "no", "boolean", "repeated")), seen
