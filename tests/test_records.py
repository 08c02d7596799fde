"""What the record classes promise their callers: value equality and
hashing, immutability, keyword construction, defaults, construction-time
checks and reprs.  Written against the dataclass records and kept for the
hand-written classes that replaced them."""

import copy
import pickle

import pytest

from chasekit.chase import (DEFAULT_MAX_DEPTH, DEFAULT_MAX_STEPS, ChaseOptions, Mode, Trigger)
from chasekit.clouds import DEFAULT_MAX_ROUNDS, CloudStore, SaturateOptions
from chasekit.model import CQ, EGD, TGD, Constant, Predicate, Program, UsageError, Variable
from chasekit.plan import RulePlan
from chasekit.query import BlockedAtomic

P, Q, R = Predicate("p", 2), Predicate("q", 2), Predicate("r", 1)
X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
A, B = Constant("a"), Constant("b")


def tgd(label="t1"):
    return TGD((P(X, Y),), (Q(Y, Z),), frozenset({Z}), label)


def egd(label="e1"):
    return EGD((P(X, Y), P(X, Z)), Y, Z, label)


def cq(name="j"):
    return CQ(name, (X,), (P(X, Y), R(Y)))


def test_trigger_compares_and_hashes_on_rule_and_key_only():
    rule = tgd()
    one, two = RulePlan(rule), RulePlan(rule)
    a, b = Trigger(rule, (A, B), one), Trigger(rule, (A, B), two)
    assert a == b and hash(a) == hash(b) == hash((rule, (A, B)))
    assert Trigger.of(one, (A, B)) == a
    assert a != Trigger(rule, (B, A), one)
    assert a != Trigger(tgd("t2"), (A, B), one)
    assert len({a, b, Trigger(rule, (B, A), one)}) == 2
    assert repr(a) == "Trigger(rule=%r, key=%r)" % (rule, (A, B))


@pytest.mark.parametrize("make", [tgd, egd, cq], ids=["tgd", "egd", "cq"])
def test_rules_and_queries_compare_and_hash_by_value(make):
    assert make() == make() and hash(make()) == hash(make())
    assert make() is not make()
    assert len({make(), make()}) == 1
    assert make() != make("other")


@pytest.mark.parametrize("make", [tgd, egd, cq], ids=["tgd", "egd", "cq"])
def test_rules_and_queries_copy_and_pickle_to_equal_values(make):
    for twin in (copy.copy(make()), copy.deepcopy(make()), pickle.loads(pickle.dumps(make()))):
        assert twin == make() and type(twin) is type(make()) and repr(twin) == repr(make())


def test_tgds_and_egds_of_equal_fields_differ_by_kind():
    assert tgd() != egd() and egd() != cq() and tgd() != cq()


@pytest.mark.parametrize("make", [tgd, egd, cq], ids=["tgd", "egd", "cq"])
@pytest.mark.parametrize("attr", ["body", "label", "name", "extra"])
def test_rules_and_queries_reject_attribute_assignment(make, attr):
    record = make()
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, attr, ())
    with pytest.raises(AttributeError):
        delattr(record, "body")
    assert repr(record) == before


def test_keyword_construction_and_defaults():
    rule = TGD(body=(P(X, Y),), head=(Q(Y, Z),), existentials=frozenset({Z}), label="t1")
    assert rule == tgd()
    bare = TGD((P(X, Y),), (R(X),))
    assert bare.existentials == frozenset() and bare.label == ""
    assert bare.is_full() and bare.frontier() == {X}
    assert EGD(body=(P(X, Y), P(X, Z)), lhs=Y, rhs=Z, label="e1") == egd()
    assert EGD((P(X, Y), P(X, Z)), Y, Z).label == ""
    query = CQ(name="j", head_vars=(X,), body=(P(X, Y), R(Y)))
    assert query == cq() and query.arity == 1 and not query.is_boolean()


@pytest.mark.parametrize("build, message", [
    (lambda: TGD((P(X, Y),), (Q(X, Z),), label="t"),
     "unsafe TGD t: head variable Z neither in body nor existential"),
    (lambda: TGD((P(X, Y),), (Q(X, Y),), frozenset({Y}), "t"),
     "TGD t: existential Y also occurs in the body"),
    (lambda: TGD((P(X, Y),), (Q(X, Y),), frozenset({Z}), "t"),
     "TGD t: existential Z does not occur in the head"),
    (lambda: TGD((P(X, Y),), (Q(X, Z),)),
     "unsafe TGD p(X,Y) -> q(X,Z): head variable Z neither in body nor existential"),
    (lambda: EGD((P(X, Y),), X, Z, "e"), "EGD e equates variable Z absent from its body"),
    (lambda: CQ("j", (Z,), (P(X, Y),)), "query j: head variable Z not in body"),
])
def test_construction_checks_raise_usage_errors(build, message):
    with pytest.raises(UsageError) as err:
        build()
    assert str(err.value) == message


def test_reprs_are_program_syntax_and_format_with_percent():
    assert repr(tgd()) == "p(X,Y) -> exists Z: q(Y,Z)"
    assert repr(egd()) == "p(X,Y), p(X,Z) -> Y = Z"
    assert repr(cq()) == "j(X) :- p(X,Y), r(Y)"
    assert "tgd %r." % tgd() == "tgd p(X,Y) -> exists Z: q(Y,Z)."
    assert "egd %r." % egd() == "egd p(X,Y), p(X,Z) -> Y = Z."
    assert "query %r." % cq() == "query j(X) :- p(X,Y), r(Y)."


def test_option_records_keep_their_defaults():
    opts = ChaseOptions()
    assert (opts.mode, opts.max_steps, opts.max_depth) == (
        Mode.RESTRICTED, DEFAULT_MAX_STEPS, DEFAULT_MAX_DEPTH)
    assert ChaseOptions() == ChaseOptions()
    assert ChaseOptions(Mode.OBLIVIOUS, max_depth=3).max_steps == DEFAULT_MAX_STEPS
    sat = SaturateOptions()
    assert (sat.max_rounds, sat.force) == (DEFAULT_MAX_ROUNDS, False)
    assert SaturateOptions(force=True).max_rounds == DEFAULT_MAX_ROUNDS


def test_programs_and_stores_share_no_mutable_default():
    one, two = Program(), Program()
    for name in ("facts", "tgds", "egds", "queries"):
        assert getattr(one, name) is not getattr(two, name)
    one.tgds.append(tgd())
    one.facts.add(R(A))
    assert two.tgds == [] and len(two.facts) == 0
    first, second = CloudStore(), CloudStore()
    first.put((R(A), 0, frozenset()))
    assert len(first) == 1 and len(second) == 0


def test_blocked_atomic_is_truthy():
    assert BlockedAtomic()
