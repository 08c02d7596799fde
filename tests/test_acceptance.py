"""Acceptance suite: one test per criterion, each reporting a pass/fail
line in the terminal summary.  Budgets and tolerances are pinned here.
"""

import random
import time
from collections import Counter
from contextlib import contextmanager

import conftest
from helpers import (
    find_homomorphism,
    programs_equal,
    terminating_cases,
    three_colorable_oracle,
    wg_cases,
)

from chasekit.acyclic import s_join_forest, verify_squid_lemma
from chasekit.analysis import RuleClass, affected_positions, classify
from chasekit.chase import ChaseOptions, Mode, Status, run_chase, split_ground
from chasekit.clouds import (
    SaturateOptions,
    blocked_saturate,
    canonicalize,
    cloud_of,
    cloud_size_bound,
)
from chasekit.model import Atom, Constant, LabeledNull, Predicate
from chasekit.parser import (
    parse_atom,
    parse_instance,
    parse_program,
    render_program,
)
from chasekit.query import AnswerStatus, certain_answers
from chasekit.egdsep import FailureCheck, egd_failure_check, separated_answer
from chasekit.rulesets import (
    builtin_program,
    complete_graph,
    cycle_graph,
    fll_rules,
    grid_rules,
    three_col_program,
)

EXAMPLE_CHASE = """
fact r1(a,b).
tgd r3(X,Y) -> r2(X).
tgd r1(X,Y) -> exists Z: r3(Y,Z).
tgd r1(X,Y), r2(Y) -> exists Z: r1(Y,Z).
tgd r1(X,Y) -> r2(Y).
"""

AFFECTED_EXAMPLE = """
tgd p1(X,Y), p2(X,Y) -> exists Z: p2(Y,Z).
tgd p2(X,Y), p2(W,X) -> p1(Y,X).
"""


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        conftest.ACCEPTANCE_LINES.append(
            "criterion %2d FAIL  %s" % (number, description)
        )
        raise
    conftest.ACCEPTANCE_LINES.append(
        "criterion %2d PASS  %s" % (number, description)
    )


def test_criterion_1_running_example_regression():
    with criterion(1, "running-example chase: depth-1 atoms and provenance"):
        start = time.monotonic()
        p = parse_program(EXAMPLE_CHASE)
        res = run_chase(p.facts, p.tgds, [], ChaseOptions(
            mode=Mode.OBLIVIOUS, max_steps=20, max_depth=64))
        elapsed = time.monotonic() - start
        assert res.status is Status.BUDGET_EXHAUSTED
        level1 = [n for n in res.forest if n.depth == 1]
        shapes = Counter(
            (n.atom.predicate.name,
             tuple("null" if isinstance(t, LabeledNull) else t for t in n.atom.args),
             n.trigger.rule.label)
            for n in level1
        )
        assert shapes == Counter({
            ("r3", (Constant("b"), "null"), "tgd2"): 1,
            ("r2", (Constant("b"),), "tgd4"): 1,
            ("r1", (Constant("b"), "null"), "tgd3"): 1,
        })
        # provenance of the first three derivations matches the listing
        got = [(s.atom.predicate.name, s.trigger.rule.label) for s in res.steps[:3]]
        assert got == [("r3", "tgd2"), ("r2", "tgd4"), ("r1", "tgd3")]
        assert elapsed < 1.0


def test_criterion_2_affected_positions_exact():
    with criterion(2, "affected positions: worked example and object-logic set"):
        rules = parse_program(AFFECTED_EXAMPLE).tgds
        got = {repr(p) for p in affected_positions(rules)}
        assert got == {"p2[2]", "p1[1]"}
        fll = fll_rules()
        got_fll = {repr(p) for p in affected_positions(fll.tgds)}
        assert got_fll == {"data[3]", "member[1]", "type[1]", "mandatory[2]",
                           "funct[2]", "data[1]"}


def test_criterion_3_classification_labels():
    with criterion(3, "classification: weakly guarded vs guarded vs neither"):
        example = classify(parse_program(AFFECTED_EXAMPLE).tgds)
        assert example.overall is RuleClass.WEAKLY_GUARDED
        assert example.overall is not RuleClass.GUARDED
        assert classify(fll_rules().tgds).overall is RuleClass.WEAKLY_GUARDED
        grid = classify(grid_rules().tgds)
        assert grid.overall is RuleClass.UNGUARDED
        assert not grid.is_weakly_guarded_set()


def test_criterion_4_oblivious_universality_200_cases():
    with criterion(4, "oblivious-to-restricted homomorphism on 200 instances"):
        start = time.monotonic()
        count = 0
        for db, rules, ob, re in terminating_cases(seed=20240, count=200):
            mapping = find_homomorphism(ob.instance.atoms(), re.instance)
            assert mapping is not None, rules
            # verify the mapping really is a homomorphism
            for atom in ob.instance:
                image = atom.substitute(mapping)
                assert image in re.instance
            count += 1
        elapsed = time.monotonic() - start
        assert count == 200
        assert elapsed < 60.0, elapsed


def test_criterion_5_blocked_saturation_oracle_equivalence():
    with criterion(5, "blocked saturation vs naive chase on 100 WG instances"):
        from test_clouds import stabilized_oracle_ground_atoms

        start = time.monotonic()
        agree = 0
        for db, rules in wg_cases(seed=20241, count=100):
            out = blocked_saturate(db, rules, SaturateOptions(max_rounds=25))
            got = out.ground_atoms.atom_set()
            want = stabilized_oracle_ground_atoms(db, rules)
            assert got == want, rules
            agree += 1
        elapsed = time.monotonic() - start
        assert agree == 100
        assert elapsed < 120.0, elapsed


def test_criterion_6_join_forest_treewidth():
    with criterion(6, "null part admits [dom(D)]-join forest, width bound"):
        checked = 0
        for db, rules, ob, _ in terminating_cases(
            seed=20242, count=40, weakly_guarded_only=True
        ):
            _, nullpart = split_ground(ob.instance, db)
            out = s_join_forest(nullpart.atoms(), db.domain())
            assert out is not None, rules
            forest, td = out
            assert forest.validate(nullpart.atom_set())
            assert td.validate(nullpart.atoms())
            preds = {a.predicate for a in ob.instance}
            for r in rules:
                preds.update(a.predicate for a in r.body + r.head)
            w = max(p.arity for p in preds)
            assert td.width <= len(db.domain()) + w
            checked += 1
        assert checked == 40


def test_criterion_7_squid_lemma_50_triples():
    with criterion(7, "squid-split characterization on 50 terminating triples"):
        from helpers import random_query_for

        start = time.monotonic()
        rng = random.Random(20243)
        held = 0
        for db, rules, ob, _ in terminating_cases(
            seed=20243, count=50, weakly_guarded_only=True, max_atoms=80
        ):
            query = random_query_for(rng, ob.instance, rules)
            report = verify_squid_lemma(db, rules, query)
            assert not report.inconclusive
            assert report.holds, (rules, query)
            held += 1
        elapsed = time.monotonic() - start
        assert held == 50
        assert elapsed < 120.0, elapsed


def test_criterion_8_canonicalization_and_cloud_bound():
    with criterion(8, "canonical renaming worked example; cloud size bound"):
        db = parse_instance("dom(d), dom(b).")
        anchor = parse_atom("g(d,_:n1,_:n2,_:n1)")
        atoms = {parse_atom("p(_:n1)"), parse_atom("r(_:n2,_:n2)"),
                 parse_atom("s(_:n1,_:n2,b)")}
        can_anchor, can_atoms = canonicalize(anchor, atoms, db)
        xi1, xi2 = LabeledNull(1_000_000_001), LabeledNull(1_000_000_002)
        assert can_anchor == Atom(Predicate("g", 4),
                                  (Constant("d"), xi1, xi2, xi1))
        assert can_atoms == {
            Atom(Predicate("p", 1), (xi1,)),
            Atom(Predicate("r", 2), (xi2, xi2)),
            Atom(Predicate("s", 3), (xi1, xi2, Constant("b"))),
        }
        # cloud bound across a sample of weakly guarded runs
        for db2, rules, ob, _ in terminating_cases(
            seed=20244, count=20, weakly_guarded_only=True
        ):
            preds = {a.predicate for a in ob.instance}
            for r in rules:
                preds.update(a.predicate for a in r.body + r.head)
            w = max(p.arity for p in preds)
            bound = cloud_size_bound(len(preds), len(db2.domain()), w)
            for a in ob.instance:
                assert len(cloud_of(ob.instance, db2, a)) <= bound


FLL_CASES = [
    "fact mandatory(a,o). fact funct(a,o). fact data(o,a,c1).",
    "fact mandatory(a,o). fact funct(a,o). fact type(o,a,t).",
    "fact data(o,a,c1). fact type(o,a,t). fact sub(t,t2).",
    "fact data(o,a,c1). fact data(o,b,c2). fact funct(a,o). fact funct(b,o).",
    "fact mandatory(a,c). fact member(o,c). fact funct(a,c).",
    "fact mandatory(a,c). fact member(o,c). fact member(o2,c)."
    " fact funct(a,c).",
    "fact type(c,a,t). fact member(o,c). fact data(o,a,c1).",
    "fact sub(c,d). fact sub(d,e). fact member(o,c). fact mandatory(a,e)."
    " fact funct(a,e).",
    "fact data(o,a,c1). fact data(o2,a,c1). fact funct(a,o). fact funct(a,o2).",
    "fact mandatory(a,o). fact mandatory(b,o). fact funct(a,o)."
    " fact funct(b,o). fact type(o,a,t).",
    "fact member(o,c). fact type(c,a,t). fact mandatory(a,c). fact funct(a,c)."
    " fact sub(t,t2).",
]


def test_criterion_9_egd_separation_agreement():
    with criterion(9, "separated vs interleaved answers on object-logic cases"):
        from chasekit.egdsep import monitor_innocuousness
        from chasekit.model import CQ, Variable
        from chasekit.query import eval_cq

        agree = 0
        for facts in FLL_CASES:
            p = fll_rules()
            for atom in parse_program(facts).facts:
                p.facts.add(atom)
            check = egd_failure_check(p.facts, p.tgds, p.egds)
            assert check is FailureCheck.NO_FAILURE, facts
            queries = [
                CQ("q1", (Variable("U"), Variable("T")),
                   (parse_atom("member(U,T)"),)),
                CQ("q2", (Variable("A2"), Variable("O2")),
                   (parse_atom("funct(A2,O2)"),)),
                CQ("q3", (), (parse_atom("data(O,A,V)"),)),
            ]
            verdict, inter = monitor_innocuousness(p.facts, p.tgds, p.egds)
            assert not verdict.failed
            for q in queries:
                sep = separated_answer(p.facts, p.tgds, p.egds, q)
                assert sep.status is AnswerStatus.EXACT
                rows = {
                    row for row in eval_cq(inter.instance, q)
                    if all(isinstance(t, Constant) for t in row)
                }
                assert set(sep.answers) == rows, (facts, q)
            agree += 1
        assert agree >= 10
        # the constructed failing case is detected
        failing = fll_rules()
        for atom in parse_program(
            "fact data(o,a,c1). fact data(o,a,c2). fact funct(a,o)."
        ).facts:
            failing.facts.add(atom)
        assert egd_failure_check(
            failing.facts, failing.tgds, failing.egds
        ) is FailureCheck.FAILED


def test_criterion_10_three_colorability_gadget():
    with criterion(10, "3-colorability: K3 true, K4 false, C5 true, <1s each"):
        cases = [
            (complete_graph(3), True),
            (complete_graph(4), False),
            (cycle_graph(5), True),
        ]
        for graph, want in cases:
            assert three_colorable_oracle(graph.vertices, graph.edges) is want
            start = time.monotonic()
            p = three_col_program(graph)
            report = certain_answers(
                p.facts, p.tgds, p.query("color"), ChaseOptions(Mode.RESTRICTED), egds=p.egds
            )
            elapsed = time.monotonic() - start
            assert report.boolean() is want
            assert elapsed < 1.0, elapsed


def test_criterion_11_nontermination_surfaced():
    with criterion(11, "grid rules exhaust a 500-step budget, >=500 atoms"):
        p = grid_rules()
        res = run_chase(p.facts, p.tgds, [], ChaseOptions(
            mode=Mode.OBLIVIOUS, max_steps=500, max_depth=100_000))
        assert res.status is Status.BUDGET_EXHAUSTED
        assert res.status is not Status.SATURATED
        assert len(res.instance) - len(p.facts) >= 500


def test_criterion_12_parser_round_trip():
    with criterion(12, "parse/render fixpoint on builtins plus 500 fuzz programs"):
        from test_parser import random_program_text

        for name in ("fll", "grid", "3col-k3", "3col-k4", "3col-c5"):
            p = builtin_program(name)
            rendered = render_program(p)
            again = parse_program(rendered)
            assert programs_equal(p, again)
            assert render_program(again) == rendered
        rng = random.Random(20245)
        checked = 0
        mismatches = 0
        while checked < 500:
            text = random_program_text(rng)
            try:
                p = parse_program(text)
            except Exception:
                continue
            checked += 1
            rendered = render_program(p)
            again = parse_program(rendered)
            if not programs_equal(p, again) or render_program(again) != rendered:
                mismatches += 1
        assert mismatches == 0
