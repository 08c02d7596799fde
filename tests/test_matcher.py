"""The one homomorphism matcher: chase.body_homomorphisms, and
query.homomorphisms on top of it.

The position-indexed matcher must yield exactly what a declaration-order
nested loop over `by_predicate` yields, in the same order: discovery
order fixes the chase's FIFO queue, and with it null numbering, the
forest and the step log.  The golden digests pin those step logs; they
were recorded with the nested-loop matcher the index replaced.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import exhaustive_eval, wg_cases

from chasekit.chase import ChaseOptions, Mode, body_homomorphisms, run_chase
from chasekit.model import CQ, Atom, Constant, Instance, LabeledNull, Predicate, Variable
from chasekit.query import homomorphisms

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
    assert list(body_homomorphisms(body, instance, seed, pinned)) == want


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


# sha256 over "<step log>\n<status>\n" of each case, recorded with the
# declaration-order nested-loop matcher before the position index
GOLDEN = {
    Mode.OBLIVIOUS: "77e47f95a975e4eabf6db75c6808aba519b81c4a92e5410795fac08dbb735457",
    Mode.RESTRICTED: "6d4ecf82f2582d491184b4ad317f194f6a2ddaac0707b295777ae955a799d9e8",
}


@pytest.mark.parametrize("mode", list(GOLDEN), ids=lambda m: m.value)
def test_step_logs_match_the_golden_digests(mode):
    h = hashlib.sha256()
    for db, rules in wg_cases(seed=20241, count=100):
        res = run_chase(db, rules, (), ChaseOptions(mode=mode, max_steps=3000, max_depth=64))
        h.update(("%s\n%s\n" % (res.step_log(), res.status.value)).encode())
    assert h.hexdigest() == GOLDEN[mode]
