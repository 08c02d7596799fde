import random

import pytest

from helpers import exhaustive_eval, random_stratified_program, terminating_cases

from chasekit.model import (
    CQ,
    Atom,
    Constant,
    Instance,
    LabeledNull,
    Predicate,
    UsageError,
    Variable,
)
from chasekit.parser import parse_atom, parse_instance, parse_program
from chasekit.query import (
    AnswerStatus,
    BlockedAtomic,
    Bounded,
    Terminate,
    certain_answers,
    check_containment,
    cq_to_bcq,
    eval_cq,
    find_homomorphism,
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
    report = certain_answers(p.facts, p.tgds, p.queries[0], Bounded(depth=4))
    assert report.answers == [(Constant("b"),)]
    assert report.status is AnswerStatus.SOUND_LOWER_BOUND
    assert report.budget_exhausted


def test_boolean_query_entailed_on_running_example():
    p = parse_program(EXAMPLE_CHASE + "query bq() :- r3(X,Y).")
    report = certain_answers(p.facts, p.tgds, p.queries[0], Bounded(depth=3))
    assert report.boolean() is True


def test_no_dependencies_matches_plain_eval():
    p = parse_program("fact r(a,b). fact r(b,c). query qq(X) :- r(X,Y).")
    report = certain_answers(p.facts, [], p.queries[0], Terminate())
    assert report.status is AnswerStatus.EXACT
    assert set(report.answers) == eval_cq(p.facts, p.queries[0])


def test_terminate_exact_on_saturating_sets():
    for db, rules, ob, re in terminating_cases(seed=55, count=10):
        preds = sorted({a.predicate for a in ob.instance},
                       key=lambda p: (p.name, p.arity))
        pred = preds[0]
        vars_ = tuple(Variable("H%d" % i) for i in range(pred.arity))
        query = CQ("q", vars_, (Atom(pred, vars_),))
        report = certain_answers(db, rules, query, Terminate())
        assert report.status is AnswerStatus.EXACT
        want = {row for row in eval_cq(re.instance, query)
                if all(isinstance(t, Constant) for t in row)}
        assert set(report.answers) == want


def test_sound_lower_bound_is_subset_of_exact():
    p = parse_program(EXAMPLE_CHASE + "query qq(X) :- r2(X).")
    shallow = certain_answers(p.facts, p.tgds, p.queries[0], Bounded(depth=2))
    deeper = certain_answers(p.facts, p.tgds, p.queries[0], Bounded(depth=6))
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
    bounded = certain_answers(p.facts, p.tgds, query, Bounded(depth=3))
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
    report = certain_answers(p.facts, [], p.queries[0], Terminate())
    assert report.answers == [(Constant("a"),), (Constant("b"),)]


# ---------------------------------------------------------------------------
# cq_to_bcq
# ---------------------------------------------------------------------------

def test_cq_to_bcq_construction():
    query = q("qq(X) :- r(X,Y)")
    bcq, fact = cq_to_bcq(query, (Constant("a"),))
    assert bcq.is_boolean()
    assert fact == Atom(Predicate("qq_t", 1), (Constant("a"),))
    assert bcq.body[-1] == Atom(Predicate("qq_t", 1), (Variable("X"),))


def test_cq_to_bcq_arity_mismatch():
    with pytest.raises(UsageError):
        cq_to_bcq(q("qq(X) :- r(X,Y)"), (Constant("a"), Constant("b")))


def test_cq_to_bcq_boolean_passthrough():
    query = q("qq() :- r(X,Y)")
    bcq, fact = cq_to_bcq(query, ())
    assert bcq.body[:-1] == query.body
    assert fact.predicate.arity == 0


def test_cq_to_bcq_equivalence_on_random_instances():
    for db, rules, ob, re in terminating_cases(seed=61, count=12):
        preds = sorted({a.predicate for a in ob.instance},
                       key=lambda p: (p.name, p.arity))
        pred = preds[-1]
        vars_ = tuple(Variable("H%d" % i) for i in range(pred.arity))
        query = CQ("q", vars_, (Atom(pred, vars_),))
        report = certain_answers(db, rules, query, Terminate())
        domain = sorted(
            (t for t in db.domain() if isinstance(t, Constant)),
            key=lambda c: c.name,
        )
        if not domain or pred.arity == 0:
            continue
        candidates = [tuple(domain[:1]) * pred.arity]
        candidates += [tuple(row) for row in report.answers[:2]]
        for tup in candidates:
            bcq, fact = cq_to_bcq(query, tup)
            extended = db.copy()
            extended.add(fact)
            bres = certain_answers(extended, rules, bcq, Terminate())
            assert (bres.boolean() is True) == (tup in set(report.answers))


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
