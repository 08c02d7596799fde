"""The UCQ-rewriting oracle for linear TGDs against the restricted chase
and `check_containment`, on terminating and on infinite chases."""

import random
from collections import Counter

from helpers import (
    random_containment_pair,
    random_join_query,
    random_linear_program,
    rewriting_answers,
    rewriting_containment,
    terminating_cases,
    ucq_rewriting,
    wg_cases,
)

from chasekit.chase import ChaseOptions, Mode, Status, run_chase
from chasekit.parser import parse_program
from chasekit.query import certain_answers, check_containment

CHAIN = parse_program("""
fact r(a,b).
tgd r(X,Y) -> exists Z: r(Y,Z).
tgd r(X,Y) -> s(Y).
query j(X) :- r(X,Y), r(Y,Z), s(Z).
query k(X) :- r(X,X).
query j2(X) :- r(X,Y).
query k2(X) :- r(X,Y), r(Y,Z), r(Z,X).
""")


def test_rewriting_agrees_with_the_restricted_chase_on_terminating_linear_cases():
    seen = Counter()
    cases = terminating_cases(seed=5, count=150, generator=random_linear_program)
    for n, (db, rules, _, re) in enumerate(cases):
        seen["existential"] += any(rule.existentials for rule in rules)
        rng = random.Random(n)
        for _ in range(4):
            query = random_join_query(rng, re.instance, rules)
            report = certain_answers(db, rules, query, ChaseOptions(Mode.RESTRICTED))
            assert rewriting_answers(db, rules, query) == set(report.answers), (rules, query)
            seen["answered"] += bool(report.answers)
            q1, q2 = random_containment_pair(rng, re.instance, rules)
            verdict = check_containment(q1, q2, rules).verdict
            # the chase of q1's frozen body may be infinite where the
            # database's is not
            if verdict != "unknown":
                assert verdict == rewriting_containment(q1, q2, rules), (rules, q1, q2)
            seen[verdict] += 1
    assert seen["unknown"] <= 5, seen
    assert all(seen[k] >= 100 for k in ("existential", "answered", "yes", "no")), seen


def test_containment_never_contradicts_the_rewriting_on_infinite_linear_chases():
    seen = Counter()
    for seed in (1, 2):
        for db, rules in wg_cases(seed, count=300):
            if any(len(rule.body) > 1 for rule in rules):
                continue
            chase = run_chase(db, rules, (),
                              ChaseOptions(Mode.RESTRICTED, max_steps=500, max_depth=64))
            if chase.status is Status.SATURATED:
                continue
            seen["cases"] += 1
            rng = random.Random(seen["cases"])
            for _ in range(8):
                q1, q2 = random_containment_pair(rng, chase.instance, rules)
                verdict = check_containment(q1, q2, rules, max_steps=300).verdict
                exact = rewriting_containment(q1, q2, rules)
                assert verdict in (exact, "unknown"), (db, rules, q1, q2)
                seen[verdict + "/" + exact] += 1
    assert seen["cases"] >= 20, seen
    assert all(seen[k] >= 10 for k in ("yes/yes", "no/no", "unknown/no")), seen


def test_rewriting_decides_what_the_chase_leaves_unknown():
    j, k, j2, k2 = (CHAIN.query(name) for name in ("j", "k", "j2", "k2"))
    assert {row[0].name for row in rewriting_answers(CHAIN.facts, CHAIN.tgds, j)} == {"a", "b"}
    assert rewriting_answers(CHAIN.facts, CHAIN.tgds, k) == set()
    # k2 rewrites only to itself and to k2(X) :- r(X,X)
    assert len(ucq_rewriting(k2, CHAIN.tgds)) == 2
    assert check_containment(j2, k2, CHAIN.tgds).verdict == "unknown"
    assert rewriting_containment(j2, k2, CHAIN.tgds) == "no"
    assert check_containment(k2, j2, CHAIN.tgds).verdict == "yes"
    assert rewriting_containment(k2, j2, CHAIN.tgds) == "yes"
