import random

import pytest

from helpers import (
    affected_oracle,
    classify_oracle,
    random_stratified_program,
    random_wg_program,
    terminating_cases,
    wg_cases,
)

from chasekit.analysis import (
    Position,
    RuleClass,
    affected_positions,
    classify,
    normalize_heads,
    weak_guard_index,
)
from chasekit.chase import ChaseOptions, Mode, run_chase
from chasekit.model import TGD, Atom, LabeledNull, Predicate, Variable
from chasekit.parser import parse_atom, parse_program
from chasekit.query import eval_cq
from chasekit.rulesets import fll_rules, grid_rules

p1, p2 = Predicate("p1", 2), Predicate("p2", 2)

AFFECTED_EXAMPLE = """
tgd p1(X,Y), p2(X,Y) -> exists Z: p2(Y,Z).
tgd p2(X,Y), p2(W,X) -> p1(Y,X).
"""


def pos(p, k):
    return Position(p, k)


def test_affected_positions_worked_example():
    rules = parse_program(AFFECTED_EXAMPLE).tgds
    assert affected_positions(rules) == {pos(p2, 2), pos(p1, 1)}


def test_affected_through_a_variable_repeated_at_one_position():
    # Y sits at r[2] twice, and r[2] becoming affected covers both
    rules = parse_program("tgd s(X) -> exists Z: r(X,Z). tgd r(X,Y), r(W,Y) -> t(Y).").tgds
    want = {pos(Predicate("r", 2), 2), pos(Predicate("t", 1), 1)}
    assert affected_positions(rules) == affected_oracle(rules) == want


def test_affected_positions_fll():
    program = fll_rules()
    got = {repr(p) for p in affected_positions(program.tgds)}
    assert got == {"data[3]", "member[1]", "type[1]", "mandatory[2]", "funct[2]",
                   "data[1]"}


def test_no_existentials_no_affected():
    rules = parse_program("tgd r(X,Y) -> s(Y,X).").tgds
    assert affected_positions(rules) == set()


def test_affected_matches_oracle_on_random_sets():
    rng = random.Random(11)
    for _ in range(120):
        _, rules = random_stratified_program(rng, n_rules=rng.randint(1, 6))
        assert affected_positions(rules) == affected_oracle(rules)
    for seed in (1, 2):
        for _, rules in wg_cases(seed, 60):
            assert affected_positions(rules) == affected_oracle(rules)


def test_affected_worklist_on_a_long_chain_listed_against_its_flow():
    # nulls enter at p2000[2] and flow down to p0[2], one rule per step;
    # the rules are listed from p1 -> p0 up, against that flow
    X, Y = Variable("X"), Variable("Y")
    p = [Predicate("p%d" % i, 2) for i in range(2001)]
    rules = [TGD((p[i + 1](X, Y),), (p[i](X, Y),)) for i in range(2000)]
    rules.append(TGD((Predicate("s", 1)(X),), (p[2000](X, Y),), frozenset({Y})))
    assert affected_positions(rules) == {Position(q, 2) for q in p}
    cls = classify(rules)
    assert cls.affected == {Position(q, 2) for q in p}
    assert set(cls.per_rule) == {RuleClass.LINEAR}


def test_position_keeps_its_slot_check_and_repr():
    assert repr(Position(p1, 2)) == "p1[2]"
    assert Position(Predicate("b", 0), 1) == (Predicate("b", 0), 1)
    for slot in (0, 3):
        with pytest.raises(ValueError, match="out of range"):
            Position(p1, slot)


def test_affected_soundness_on_chased_instances():
    # every position holding a null in a chase is affected
    for db, rules, ob, _ in terminating_cases(seed=21, count=30):
        affected = affected_positions(rules)
        for atom in ob.instance:
            for i, t in enumerate(atom.args):
                if isinstance(t, LabeledNull):
                    assert Position(atom.predicate, i + 1) in affected


def test_classify_worked_example():
    rules = parse_program(AFFECTED_EXAMPLE).tgds
    cls = classify(rules)
    assert cls.per_rule == [RuleClass.GUARDED, RuleClass.WEAKLY_GUARDED]
    assert cls.forest_guards[0] == 0  # p1(X,Y) is the guard
    assert rules[1].body[cls.forest_guards[1]] == parse_atom("p2(X,Y)")  # the weak guard
    assert cls.overall is RuleClass.WEAKLY_GUARDED


def test_classify_grid_rules():
    program = grid_rules()
    cls = classify(program.tgds)
    assert cls.per_rule[2] is RuleClass.UNGUARDED
    assert cls.overall is RuleClass.UNGUARDED
    assert not cls.is_weakly_guarded_set()
    # the first two rules alone form a guarded set
    sub = classify(program.tgds[:2])
    assert all(c in (RuleClass.LINEAR, RuleClass.GUARDED) for c in sub.per_rule)
    assert sub.is_weakly_guarded_set()


def test_classify_fll_weakly_guarded():
    program = fll_rules()
    assert classify(program.tgds).overall is RuleClass.WEAKLY_GUARDED


def test_single_body_atom_is_linear_and_guarded():
    rules = parse_program("tgd r(X,Y) -> exists Z: s(Y,Z).").tgds
    cls = classify(rules)
    assert cls.per_rule == [RuleClass.LINEAR]
    assert cls.forest_guards == [0]


def test_existential_free_set_is_full():
    rules = parse_program("tgd r(X,Y) -> s(Y,X). tgd s(X,Y), r(Y,X) -> t(X).").tgds
    assert classify(rules).overall is RuleClass.FULL


def test_guarded_rules_are_weakly_guarded():
    rng = random.Random(5)
    for _ in range(80):
        _, rules = random_stratified_program(rng)
        cls = classify(rules)
        affected = cls.affected
        for rule, rule_class in zip(rules, cls.per_rule):
            if rule_class in (RuleClass.LINEAR, RuleClass.GUARDED):
                assert weak_guard_index(rule, affected) is not None


def test_classify_matches_the_definitions():
    def rule_sets():
        rng = random.Random(19)
        for _ in range(150):
            yield random_stratified_program(rng, n_rules=rng.randint(1, 8))[1]
        for _ in range(150):
            yield random_wg_program(rng)[1]  # unguarded sets too
        for seed in (1, 2):
            for _, rules in wg_cases(seed, 60):
                yield rules
        for _, rules, _, _ in terminating_cases(seed=23, count=20):
            yield rules

    seen = set()
    for rules in rule_sets():
        cls = classify(rules)
        per_rule, guard, weak, overall = classify_oracle(rules)
        assert cls.per_rule == [per_rule[r] for r in rules]
        assert cls.overall is overall
        assert cls.forest_guards == [weak[r] if guard[r] is None else guard[r] for r in rules]
        for rule, rule_class in zip(rules, cls.per_rule):
            # a full guard exactly when linear or guarded
            assert (guard[rule] is not None) == (
                rule_class in (RuleClass.LINEAR, RuleClass.GUARDED))
            assert weak_guard_index(rule, cls.affected) == weak[rule]
        seen.add(overall)
        seen.update(per_rule.values())
    assert seen == set(RuleClass)


def test_guard_tie_break_is_first_qualifying_atom():
    rules = parse_program("tgd r(X,Y), s(X,Y), t(X,Y) -> u(X).").tgds
    cls = classify(rules)
    assert cls.per_rule == [RuleClass.GUARDED]
    assert cls.forest_guards == [0]


def test_classify_lists_a_repeated_rule_once_per_entry():
    # per-rule facts are lists in rule order, so a rule listed twice
    # has a class and a forest guard at each of its places
    tgd1, tgd4 = fll_rules().tgds[0], fll_rules().tgds[3]
    cls = classify([tgd1, tgd4, tgd1])
    assert cls.per_rule == [RuleClass.WEAKLY_GUARDED, RuleClass.LINEAR,
                            RuleClass.WEAKLY_GUARDED]
    assert cls.forest_guards == [1, 0, 1]  # data(O,A,V), the weak guard of tgd1


# ---------------------------------------------------------------------------
# Head normalization
# ---------------------------------------------------------------------------

def test_split_full_multi_head():
    rules = parse_program("tgd t(X) -> a(X), b(X).").tgds
    out = normalize_heads(rules)
    assert len(out) == 2
    assert all(len(r.head) == 1 for r in out)
    assert all(r.body == rules[0].body for r in out)


def test_existential_multi_head_uses_aux_predicate():
    rules = parse_program("tgd t(X) -> exists Z: p(X,Z), q(Z).").tgds
    out = normalize_heads(rules)
    assert len(out) == 3
    first = out[0]
    assert first.head[0].predicate.name == "v.1"
    assert first.head[0].args == (Variable("X"), Variable("Z"))
    assert first.existentials == frozenset({Variable("Z")})
    assert out[1].body == (first.head[0],) and out[1].head[0] == parse_atom("p(X,Z)")
    assert out[2].head[0] == parse_atom("q(Z)")


def test_single_head_rules_pass_through():
    rules = parse_program("tgd r(X,Y) -> s(Y).").tgds
    assert normalize_heads(rules) == rules


def test_aux_predicate_name_avoids_clashes():
    rules = parse_program("tgd v1(X) -> exists Z: p(X,Z), q(Z).").tgds
    assert normalize_heads(rules)[0].head[0].predicate.name == "v.1"
    # a name the rules already hold is skipped, even one of the helpers':
    # library rules (a normalized set passed in again) can hold one
    X, Z = Variable("X"), Variable("Z")
    held = TGD((Atom(Predicate("v.1", 1), (X,)),),
               (parse_atom("p(X,Z)"), parse_atom("q(Z)")), frozenset({Z}))
    assert normalize_heads([held])[0].head[0].predicate.name == "v.2"


def test_renormalized_rules_keep_their_helpers_apart():
    r1 = parse_program("tgd t(X) -> exists Z: p(X,Z), q(Z).").tgds
    r2 = parse_program("tgd s(X) -> exists Z: q(Z), p(Z,X).").tgds
    first = normalize_heads(r1)
    out = normalize_heads(first + r2)
    assert out[:len(first)] == first
    helpers = [rule.head[0].predicate.name for rule in (first[0], out[len(first)])]
    assert helpers == ["v.1", "v.2"]


def test_normalization_preserves_certain_answers():
    # naive multi-head chase vs engine chase of the normalized set:
    # certain answers over the original predicates must coincide
    from helpers import naive_multihead_chase
    from chasekit.chase import Status
    from chasekit.model import CQ, Constant, TGD

    rng = random.Random(31)
    checked = 0
    while checked < 20:
        db, rules = random_stratified_program(rng, n_rules=3)
        if len(db) == 0:
            continue
        base = rules[0].body[0]
        Z = Variable("Z")
        extra = TGD(
            (base,),
            (Atom(Predicate("m1", 2), (base.args[0], Z)),
             Atom(Predicate("m2", 1), (Z,))),
            frozenset({Z}),
            label="multi",
        )
        sigma = list(rules) + [extra]
        reference = naive_multihead_chase(db, sigma, max_steps=800)
        if reference is None:
            continue
        norm = normalize_heads(sigma)
        engine = run_chase(db, norm, (), ChaseOptions(
            mode=Mode.OBLIVIOUS, max_steps=2000, max_depth=32))
        if engine.status is not Status.SATURATED:
            continue
        checked += 1
        original_preds = {a.predicate for a in db} | {
            a.predicate for r in sigma for a in r.body + r.head
        }
        from chasekit.model import Instance

        ref_inst = Instance(sorted(reference, key=repr))
        for pred in sorted(original_preds, key=lambda p: p.name):
            vars_ = tuple(Variable("Q%d" % i) for i in range(pred.arity))
            q = CQ("q", vars_, (Atom(pred, vars_),))
            lhs = {row for row in eval_cq(ref_inst, q)
                   if all(isinstance(t, Constant) for t in row)}
            rhs = {row for row in eval_cq(engine.instance, q)
                   if all(isinstance(t, Constant) for t in row)}
            assert lhs == rhs, pred
