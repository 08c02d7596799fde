import random

import pytest

from helpers import three_colorable_oracle

from chasekit.analysis import RuleClass, classify
from chasekit.chase import ChaseOptions, Mode, Status, run_chase
from chasekit.egdsep import monitor_innocuousness
from chasekit.model import UsageError
from chasekit.parser import parse_atom, parse_program, render_program
from chasekit.query import certain_answers
from chasekit.rulesets import (
    GraphSpec,
    builtin_program,
    complete_graph,
    cycle_graph,
    encode_three_colorability,
    fll_rules,
    grid_rules,
    three_col_program,
)


def test_fll_rule_census():
    p = fll_rules()
    assert len(p.tgds) == 11 and len(p.egds) == 1
    preds = p.predicates()
    assert {n: preds[n].arity for n in preds} == {
        "data": 3, "member": 2, "type": 3, "sub": 2, "mandatory": 2, "funct": 2,
    }


def test_fll_single_existential_rule():
    p = fll_rules()
    existential = [t for t in p.tgds if t.existentials]
    assert len(existential) == 1
    assert existential[0].body[0] == parse_atom("mandatory(A,O)")
    assert existential[0].head[0] == parse_atom("data(O,A,V)")


def test_fll_is_weakly_guarded():
    assert classify(fll_rules().tgds).overall is RuleClass.WEAKLY_GUARDED


def test_fll_egd_applications_innocuous_on_regression_dbs():
    cases = [
        "fact mandatory(a,o). fact funct(a,o). fact data(o,a,c1).",
        "fact mandatory(a,o). fact funct(a,o). fact type(o,a,t).",
        "fact mandatory(a,o). fact mandatory(b,o). fact funct(a,o)."
        " fact funct(b,o). fact data(o,b,c2).",
    ]
    for facts in cases:
        p = fll_rules()
        for atom in parse_program(facts).facts:
            p.facts.add(atom)
        verdict, _ = monitor_innocuousness(p.facts, p.tgds, p.egds)
        assert not verdict.failed
        assert verdict.all_applications_innocuous, facts


def test_grid_rules_shape():
    p = grid_rules()
    assert len(p.tgds) == 3
    assert parse_atom("index(0)") in p.facts
    cls = classify(p.tgds)
    assert cls.per_rule[2] is RuleClass.UNGUARDED
    assert not cls.is_weakly_guarded_set()


def test_grid_chase_exhausts_budget():
    p = grid_rules()
    res = run_chase(p.facts, p.tgds, [], ChaseOptions(
        mode=Mode.OBLIVIOUS, max_steps=500, max_depth=10_000))
    assert res.status is Status.BUDGET_EXHAUSTED
    derived = len(res.instance) - len(p.facts)
    assert derived >= 500


def test_grid_first_two_rules_alone_are_guarded_and_infinite():
    p = grid_rules()
    sub = classify(p.tgds[:2])
    assert all(c in (RuleClass.LINEAR, RuleClass.GUARDED) for c in sub.per_rule)
    res = run_chase(p.facts, p.tgds[:2], [], ChaseOptions(
        mode=Mode.OBLIVIOUS, max_steps=100, max_depth=10_000))
    assert res.status is Status.BUDGET_EXHAUSTED


# ---------------------------------------------------------------------------
# 3-colorability
# ---------------------------------------------------------------------------

def test_color_database_is_the_six_ordered_pairs():
    facts, _ = encode_three_colorability(complete_graph(3))
    assert facts.atom_set() == {
        parse_atom("data(o,r,g)"), parse_atom("data(o,g,r)"),
        parse_atom("data(o,r,b)"), parse_atom("data(o,b,r)"),
        parse_atom("data(o,g,b)"), parse_atom("data(o,b,g)"),
    }


def test_query_has_two_atoms_per_edge_sharing_one_witness():
    g = complete_graph(3)
    _, q = encode_three_colorability(g)
    assert len(q.body) == 2 * len(g.edges)
    witnesses = {a.args[0] for a in q.body}
    assert len(witnesses) == 1


def test_self_loop_rejected():
    with pytest.raises(UsageError):
        GraphSpec(("v1",), (("v1", "v1"),))


def test_triangle_is_three_colorable():
    p = three_col_program(complete_graph(3))
    report = certain_answers(p.facts, p.tgds, p.query("color"), ChaseOptions(Mode.RESTRICTED),
                             egds=p.egds)
    assert report.boolean() is True


def test_k4_is_not_three_colorable():
    p = three_col_program(complete_graph(4))
    report = certain_answers(p.facts, p.tgds, p.query("color"), ChaseOptions(Mode.RESTRICTED),
                             egds=p.egds)
    assert report.boolean() is False


def test_empty_edge_set_trivially_colorable():
    g = GraphSpec(("v1", "v2"), ())
    facts, q = encode_three_colorability(g)
    report = certain_answers(facts, [], q, ChaseOptions(Mode.RESTRICTED))
    assert report.boolean() is True


def test_encoder_agrees_with_coloring_oracle_on_small_graphs():
    rng = random.Random(555)
    fll = fll_rules()
    for _ in range(25):
        n = rng.randint(1, 6)
        vertices = tuple("v%d" % i for i in range(1, n + 1))
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.55:
                    edges.append((vertices[i], vertices[j]))
        g = GraphSpec(vertices, tuple(edges))
        facts, q = encode_three_colorability(g)
        report = certain_answers(facts, fll.tgds, q, ChaseOptions(Mode.RESTRICTED), egds=fll.egds)
        want = three_colorable_oracle(vertices, edges)
        assert report.boolean() is want, edges


def test_builtin_lookup():
    assert len(builtin_program("fll").tgds) == 11
    assert builtin_program("grid").tgds[0].existentials
    assert builtin_program("3col-k4").query("color")
    with pytest.raises(UsageError):
        builtin_program("nope")


def test_builtin_programs_render_round_trip():
    from chasekit.parser import parse_program as pp
    from helpers import programs_equal

    for name in ("fll", "grid", "3col-k3", "3col-k4", "3col-c5"):
        p = builtin_program(name)
        assert programs_equal(p, pp(render_program(p)))
