import math
import random
from collections import Counter, deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    atom_isomorphism_class,
    classify_oracle,
    d_isomorphic,
    fll_cases,
    hom_key,
    naive_subtree_closure,
    random_stratified_program,
    random_wg_program,
    run_optimized,
    terminating_cases,
    wg_cases,
)

from chasekit import chase, clouds
from chasekit.analysis import classify, normalize_heads
from chasekit.chase import (
    ChaseOptions,
    Mode,
    Status,
    Trigger,
    body_homomorphisms,
    run_chase,
    split_ground,
    subtree_atoms,
    subtree_closure,
)
from chasekit.clouds import (
    SaturateOptions,
    SaturateStatus,
    blocked_saturate,
    canonicalize,
    cloud_of,
    cloud_size_bound,
)
from chasekit.egdsep import blocking_chase
from chasekit.model import (
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
from chasekit.query import AnswerStatus, BlockedAtomic, certain_answers

EXAMPLE_CHASE = """
fact r1(a,b).
tgd r3(X,Y) -> r2(X).
tgd r1(X,Y) -> exists Z: r3(Y,Z).
tgd r1(X,Y), r2(Y) -> exists Z: r1(Y,Z).
tgd r1(X,Y) -> r2(Y).
"""


# ---------------------------------------------------------------------------
# canonicalize: the worked example
# ---------------------------------------------------------------------------

def test_canonicalize_worked_example():
    db = parse_instance("dom(d), dom(b).")  # supplies d, b as database values
    anchor = parse_atom("g(d,_:n1,_:n2,_:n1)")
    atoms = {
        parse_atom("p(_:n1)"),
        parse_atom("r(_:n2,_:n2)"),
        parse_atom("s(_:n1,_:n2,b)"),
    }
    can_anchor, can_atoms = canonicalize(anchor, atoms, db)
    xi1, xi2 = LabeledNull(1_000_000_001), LabeledNull(1_000_000_002)
    g = Predicate("g", 4)
    assert can_anchor == Atom(g, (Constant("d"), xi1, xi2, xi1))
    assert can_atoms == {
        Atom(Predicate("p", 1), (xi1,)),
        Atom(Predicate("r", 2), (xi2, xi2)),
        Atom(Predicate("s", 3), (xi1, xi2, Constant("b"))),
    }


def test_canonicalize_idempotent():
    db = parse_instance("dom(d), dom(b).")
    anchor = parse_atom("g(d,_:n1,_:n2,_:n1)")
    atoms = {parse_atom("p(_:n1)"), parse_atom("s(_:n1,_:n2,b)")}
    once = canonicalize(anchor, atoms, db)
    twice = canonicalize(once[0], set(once[1]), db)
    assert once == twice


def test_canonicalize_rejects_foreign_nulls():
    db = parse_instance("dom(d).")
    with pytest.raises(UsageError):
        canonicalize(parse_atom("g(d,_:n1)"), {parse_atom("p(_:n7)")}, db)


# ---------------------------------------------------------------------------
# D-isomorphism: the worked examples
# ---------------------------------------------------------------------------

def test_d_isomorphic_examples():
    db = parse_instance("dom(a).")
    x = (parse_atom("p(a,_:n1,_:n2)"), set())
    y = (parse_atom("p(a,_:n3,_:n4)"), set())
    assert d_isomorphic(x, y, db)
    z = (parse_atom("p(a,_:n1,_:n1)"), set())
    assert not d_isomorphic(x, z, db)
    w = (parse_atom("p(_:n3,_:n1,_:n2)"), set())
    assert not d_isomorphic(x, w, db)
    # a null of the database is a database value, which renaming fixes
    db = parse_instance("d(_:n1). d(_:n2).")
    u = (parse_atom("p(_:n1,_:n5)"), set())
    v = (parse_atom("p(_:n2,_:n6)"), set())
    assert not d_isomorphic(u, v, db)
    assert d_isomorphic(u, (parse_atom("p(_:n1,_:n6)"), set()), db)


def test_d_isomorphic_with_atom_sets():
    db = parse_instance("dom(a).")
    x = (parse_atom("p(a,_:n3)"),
         {parse_atom("q(a,_:n3)"), parse_atom("q(_:n3,_:n3)"),
          parse_atom("r(_:n3)")})
    y = (parse_atom("p(a,_:n1)"),
         {parse_atom("q(a,_:n1)"), parse_atom("q(_:n1,_:n1)"),
          parse_atom("r(_:n1)")})
    assert d_isomorphic(x, y, db)


def test_d_isomorphic_reflexive():
    db = parse_instance("dom(a).")
    pair = (parse_atom("p(a,_:n1)"), {parse_atom("q(_:n1,_:n1)")})
    assert d_isomorphic(pair, pair, db)


def test_canonical_equality_matches_isomorphism_on_random_pairs():
    rng = random.Random(23)
    consts = [Constant(c) for c in "ab"]
    db = Instance([Atom(Predicate("dom", 1), (c,)) for c in consts])
    p2 = Predicate("p", 2)
    q1 = Predicate("q", 1)

    def rand_pair(offset):
        nulls = [LabeledNull(offset + i) for i in range(1, 3)]
        anchor = Atom(p2, (rng.choice(consts + nulls), rng.choice(consts + nulls)))
        anchor_nulls = [t for t in anchor.args if isinstance(t, LabeledNull)]
        pool = consts + anchor_nulls
        atoms = {
            Atom(q1, (rng.choice(pool),))
            for _ in range(rng.randint(0, 2))
        }
        return anchor, atoms

    for _ in range(200):
        x = rand_pair(10)
        y = rand_pair(20)
        by_canon = d_isomorphic(x, y, db)
        # reference: try all bijections between the null sets
        from itertools import permutations

        def nulls_of(pair):
            out = []
            for a in [pair[0]] + sorted(pair[1], key=repr):
                for t in a.args:
                    if isinstance(t, LabeledNull) and t not in out:
                        out.append(t)
            return out

        nx, ny = nulls_of(x), nulls_of(y)
        direct = False
        if len(nx) == len(ny):
            for perm in permutations(ny):
                sub = dict(zip(nx, perm))
                if (x[0].substitute(sub) == y[0]
                        and {a.substitute(sub) for a in x[1]} == set(y[1])):
                    direct = True
                    break
        assert by_canon == direct


# ---------------------------------------------------------------------------
# cloud_of
# ---------------------------------------------------------------------------

def test_cloud_of_ground_anchor_is_ground_part():
    db = parse_instance("r1(a,b).")
    inst = parse_instance("r1(a,b), r3(b,_:n1), r2(b).")
    cloud = cloud_of(inst, db, parse_atom("r2(b)"))
    assert cloud == {parse_atom("r1(a,b)"), parse_atom("r2(b)")}


def test_cloud_of_running_example_prefix():
    db = parse_instance("r1(a,b).")
    inst = parse_instance("r1(a,b), r3(b,_:n1), r2(b).")
    cloud = cloud_of(inst, db, parse_atom("r3(b,_:n1)"))
    assert cloud == inst.atom_set()


def test_database_contained_in_every_cloud():
    for db, rules, ob, _ in terminating_cases(seed=301, count=10):
        for anchor in list(ob.instance)[:10]:
            cloud = cloud_of(ob.instance, db, anchor)
            assert db.atom_set() <= cloud


def test_cloud_requires_member_anchor():
    db = parse_instance("r1(a,b).")
    with pytest.raises(UsageError):
        cloud_of(db, db, parse_atom("r2(a)"))


def test_cloud_size_bound_holds_on_suite():
    for db, rules, ob, _ in terminating_cases(
        seed=303, count=15, weakly_guarded_only=True
    ):
        preds = {a.predicate for a in ob.instance}
        for r in rules:
            preds.update(a.predicate for a in r.body + r.head)
        w = max(p.arity for p in preds)
        bound = cloud_size_bound(len(preds), len(db.domain()), w)
        for anchor in ob.instance:
            assert len(cloud_of(ob.instance, db, anchor)) <= bound


# ---------------------------------------------------------------------------
# subtree determination
# ---------------------------------------------------------------------------

def test_subtree_closure_trivial_cases():
    p = parse_program("fact r(a,b). tgd r(X,Y) -> exists Z: s(Y,Z).")
    res = run_chase(p.facts, p.tgds, [], ChaseOptions(mode=Mode.OBLIVIOUS))
    leaf = parse_atom("s(b,_:n1)")
    everything = res.instance.atom_set()
    assert subtree_closure(res, leaf, everything) == everything
    assert subtree_closure(res, leaf, set()) == {leaf}


def test_subtree_determination_on_terminating_wg_runs():
    # closing the cloud under in-subtree chase steps recovers the whole
    # subtree: nabla a = gcf[a, cloud(a)]
    checked = 0
    for db, rules, ob, _ in terminating_cases(
        seed=307, count=6, weakly_guarded_only=True, max_atoms=60
    ):
        for anchor_node in ob.forest:
            anchor = anchor_node.atom
            cloud = cloud_of(ob.instance, db, anchor)
            got = subtree_closure(ob, anchor, set(cloud))
            want = subtree_atoms(ob, anchor) | cloud
            assert got == want, (anchor, rules)
            checked += 1
    assert checked > 20


@pytest.mark.parametrize("generator", [random_stratified_program, random_wg_program],
                         ids=lambda g: g.__name__)
def test_subtree_closure_agrees_with_the_naive_fixpoint(generator):
    # side atoms are random subsets of the instance, not only clouds; a
    # subset that avoids the subtree makes the closure derive all of it
    rng = random.Random(41)
    checked = 0
    for db, rules, ob, _ in terminating_cases(seed=409, count=12, generator=generator,
                                              max_atoms=60):
        atoms = ob.instance.atoms()
        for node in ob.forest:
            scope = subtree_atoms(ob, node.atom)
            outside = [a for a in atoms if a not in scope]
            for pool in (atoms, outside):
                side = set(rng.sample(pool, rng.randint(0, len(pool))))
                want = naive_subtree_closure(ob, node.atom, side)
                assert subtree_closure(ob, node.atom, side) == want, (node.atom, rules)
                checked += 1
    assert checked > 200


def test_isomorphism_coherence_of_subtrees():
    # D-isomorphic (atom, cloud) pairs have D-isomorphic subtree closures
    from helpers import find_homomorphism

    for db, rules, ob, _ in terminating_cases(
        seed=311, count=5, weakly_guarded_only=True, max_atoms=60
    ):
        atoms = [n.atom for n in ob.forest]
        for i, a in enumerate(atoms):
            for b in atoms[i + 1:]:
                ca = cloud_of(ob.instance, db, a)
                cb = cloud_of(ob.instance, db, b)
                if not d_isomorphic((a, set(ca)), (b, set(cb)), db):
                    continue
                nabla_a = sorted(subtree_atoms(ob, a) | ca, key=repr)
                nabla_b = sorted(subtree_atoms(ob, b) | cb, key=repr)
                assert find_homomorphism(nabla_a, Instance(nabla_b)) is not None
                assert find_homomorphism(nabla_b, Instance(nabla_a)) is not None


# ---------------------------------------------------------------------------
# blocked saturation
# ---------------------------------------------------------------------------

def test_blocked_saturate_empty_rules():
    db = parse_instance("r(a,b), r(b,a), s(a).")
    out = blocked_saturate(db, [])
    assert out.status is SaturateStatus.STABILIZED
    assert out.ground_atoms.atom_set() == db.atom_set()
    assert len(out.store) == len(db)  # ground atoms are pairwise non-isomorphic


def test_blocked_saturate_running_example():
    p = parse_program(EXAMPLE_CHASE)
    out = blocked_saturate(p.facts, p.tgds)
    assert out.status is SaturateStatus.STABILIZED
    assert out.ground_atoms.atom_set() == {parse_atom("r1(a,b)"),
                                           parse_atom("r2(b)")}
    assert len(out.store) > 0
    # the infinite chase collapses onto finitely many cloud classes
    assert len(out.store) < 30
    # atomic queries are answerable from the stabilized ground atoms
    from chasekit.model import CQ, Variable
    from chasekit.query import eval_cq

    q = CQ("q", (Variable("X"),), (parse_atom("r2(X)"),))
    assert eval_cq(out.ground_atoms, q) == {(Constant("b"),)}


def test_blocked_saturate_rejects_unguarded_sets():
    from chasekit.rulesets import grid_rules

    g = grid_rules()
    with pytest.raises(UsageError):
        blocked_saturate(g.facts, g.tgds)
    # forcing works; without trans facts even the grid stabilizes
    out = blocked_saturate(g.facts, g.tgds, SaturateOptions(force=True))
    assert out.status is SaturateStatus.STABILIZED
    assert out.ground_atoms.atom_set() == {parse_atom("index(0)")}
    # a round that derives no ground atom is the fixpoint: the grid's
    # first round derives none, the running example's first derives r2(b)
    tight = blocked_saturate(g.facts, g.tgds,
                             SaturateOptions(max_rounds=1, force=True))
    assert (tight.status, tight.rounds) == (SaturateStatus.STABILIZED, 1)
    p = parse_program(EXAMPLE_CHASE)
    tight = blocked_saturate(p.facts, p.tgds, SaturateOptions(max_rounds=1))
    assert (tight.status, tight.rounds) == (SaturateStatus.BUDGET_EXHAUSTED, 1)
    enough = blocked_saturate(p.facts, p.tgds, SaturateOptions(max_rounds=2))
    assert (enough.status, enough.rounds) == (SaturateStatus.STABILIZED, 2)
    assert parse_atom("r2(b)") in enough.ground_atoms


saturation_cases = pytest.mark.parametrize("cases", [
    lambda: wg_cases(seed=20241, count=100),
    lambda: ((p.facts, p.tgds) for p in fll_cases(seed=5, count=20)),
], ids=["wg", "fll"])


@saturation_cases
def test_stabilized_saturation_is_a_fixpoint_of_the_round(cases):
    # one more round over the returned ground atoms, into a fresh store,
    # derives nothing and keys the returned store again, in order
    for db, rules in cases():
        out = blocked_saturate(db, rules)
        assert out.status is SaturateStatus.STABILIZED
        tgds = normalize_heads(rules)
        ground = Instance(out.ground_atoms)
        store = clouds.CloudStore()
        # the cloud-size bound only guards against a runaway cloud
        plans = [RulePlan(rule) for rule in tgds]
        guards = classify(tgds).forest_guards
        assert clouds._expand_round(db, plans, guards, ground, store, math.inf)
        assert len(ground) == len(out.ground_atoms)
        assert list(store.keys) == list(out.store.keys)


def test_blocked_saturate_sound_wrt_naive_chase():
    # every reported ground atom occurs in the plain chase
    for db, rules in wg_cases(seed=313, count=20):
        out = blocked_saturate(db, rules, SaturateOptions(max_rounds=20))
        naive = run_chase(db, rules, (), ChaseOptions(
            mode=Mode.OBLIVIOUS, max_steps=1500, max_depth=24))
        assert out.ground_atoms.atom_set() <= naive.instance.atom_set() | db.atom_set()


def stabilized_oracle_ground_atoms(db, rules, max_rounds=40, max_steps=8000):
    """Naive bounded chase until the atom set modulo single-atom
    D-isomorphism is quiet for two consecutive depth levels."""
    res = run_chase(db, rules, (), ChaseOptions(
        mode=Mode.OBLIVIOUS, max_steps=max_steps, max_depth=64))
    if res.status is Status.SATURATED:
        ground, _ = split_ground(res.instance, db)
        return ground.atom_set()
    # depth-stratified replay of the forest, tracking iso classes
    classes = set()
    quiet = 0
    ground = {a for a in db}
    by_depth = {}
    for node in res.forest:
        by_depth.setdefault(node.depth, []).append(node)
    for depth in sorted(by_depth):
        new = False
        for node in by_depth[depth]:
            cls = atom_isomorphism_class(node.atom)
            if cls not in classes:
                classes.add(cls)
                new = True
            if node.atom.domain() <= db.domain():
                ground.add(node.atom)
        quiet = 0 if new else quiet + 1
        if quiet >= 2:
            break
    return ground


def test_blocked_saturate_matches_oracle_on_ground_atoms():
    agree = 0
    for db, rules in wg_cases(seed=317, count=40):
        out = blocked_saturate(db, rules, SaturateOptions(max_rounds=25))
        want = stabilized_oracle_ground_atoms(db, rules)
        got = out.ground_atoms.atom_set()
        assert got == want, (rules, sorted(got, key=repr), sorted(want, key=repr))
        agree += 1
    assert agree == 40


def test_cloud_size_bound_is_checked_under_O():
    proc = run_optimized(
        "from chasekit import clouds\n"
        "from chasekit.parser import parse_program\n"
        "p = parse_program(%r)\n"
        "clouds.cloud_size_bound = lambda *args: 0\n"
        "try:\n"
        "    clouds.blocked_saturate(p.facts, p.tgds)\n"
        "except RuntimeError as e:\n"
        "    print('raised' if 'above the bound 0' in str(e) else e)\n"
        % EXAMPLE_CHASE)
    assert proc.stdout.split() == ["1", "raised"], proc.stderr


def test_expand_round_applies_each_trigger_once_per_round(monkeypatch):
    # r(a,a) pins both body atoms of the second rule, so discovery from
    # it reports the same trigger twice
    p = parse_program(
        "fact p(a). tgd p(X) -> r(X,X). tgd r(X,X), r(X,Y) -> exists Z: s(X,Z)."
    )
    expanded = Counter()
    real = RulePlan.head_image

    def spy(plan, key, alloc):
        expanded[(plan.rule, key)] += 1
        return real(plan, key, alloc)

    monkeypatch.setattr(RulePlan, "head_image", spy)
    result = blocked_saturate(p.facts, p.tgds)
    assert result.status is SaturateStatus.STABILIZED
    assert expanded and max(expanded.values()) <= result.rounds


@pytest.mark.parametrize("run", ["restricted", "oblivious", "blocking"])
def test_the_chase_applies_a_self_join_trigger_once(monkeypatch, run):
    # as above: discovery through r(a,a) finds the second rule's trigger
    # twice, and the chase keeps no run-long set that would drop the copy
    p = parse_program(
        "fact p(a). tgd p(X) -> r(X,X). tgd r(X,X), r(X,Y) -> exists Z: s(X,Z)."
    )
    # a trigger the loop handles reaches the restricted chase's head check,
    # and the oblivious chase's application
    handled = Counter()
    hook = "head_satisfied" if run == "restricted" else "apply_tgd"
    real = getattr(chase, hook)

    def spy(*args):
        trigger = args[0] if hook == "apply_tgd" else Trigger.of(*args[:2])
        handled[trigger] += 1
        return real(*args)

    monkeypatch.setattr(chase, hook, spy)
    if run == "blocking":
        result = blocking_chase(p.facts, p.tgds, p.egds)
        atoms = result.unblocked
    else:
        result = run_chase(p.facts, p.tgds, p.egds, ChaseOptions(Mode(run)))
        atoms = result.instance
    assert result.status is Status.SATURATED
    assert sorted(handled.values()) == [1, 1]
    assert [a.predicate.name for a in atoms].count("s") == 1


# ROADMAP item 9: blocked saturation loses ground atoms, so these
# programs get wrong exact answers under BlockedAtomic.  Program A is
# guarded and program B weakly guarded, and the restricted chase of both
# terminates; the random program's chase does not, and its depth-16
# oblivious prefix gives a lower bound.
ITEM_9_A = """
fact d(c2). fact d(c1).
tgd d(X) -> exists Y: p(X,Y).
tgd p(X,Y) -> exists Z: q(Y,Z).
tgd q(X,Y) -> exists Z: r(Y,Z).
tgd r(Y,Z) -> s2(Y).
tgd q(X,Y), s2(Y) -> w(X).
tgd p(X,Y), w(Y) -> got(X).
query g(X) :- got(X).
"""

ITEM_9_B_RULES = """
tgd d(X) -> exists Y: p(X,Y).
tgd p(X,Y) -> exists Z: q(Y,Z).
tgd p(X,Y), a(X) -> mk(Y).
tgd q(X,Y) -> exists Z: r(Y,Z).
tgd q(X,Y), mk(X) -> exists Z: h(Y,Z).
tgd h(Y,Z) -> s(Y).
tgd r(Y,Z), s(Y) -> exists W: t(Z,W).
tgd t(Z,W), e(A) -> got(A).
query g(A) :- got(A).
"""

ITEM_9_RANDOM = """
fact u0(a). fact u0(b). fact u1(a).
tgd u0(X) -> exists Y: b0(X,Y).
tgd b2(X,Y) -> exists Z: b0(Y,Z).
tgd b0(X,Y), u0(X) -> u2(Y).
tgd b0(X,Y), u0(Y) -> u1(X).
tgd b1(X,Y), u1(X) -> u0(Y).
tgd u2(X) -> exists Y: b0(X,Y).
tgd b0(X,Y), u1(Y) -> u2(X).
tgd b0(X,Y) -> u0(X).
query q(X) :- u2(X).
"""

item_9 = pytest.mark.xfail(strict=True, reason="ROADMAP item 9")
TERMINATE = ChaseOptions(Mode.RESTRICTED)
BOUNDED_16 = ChaseOptions(Mode.OBLIVIOUS, max_depth=16)


@pytest.mark.parametrize("text, chase", [
    pytest.param(ITEM_9_A, TERMINATE, marks=item_9, id="A"),
    pytest.param("fact d(c2). fact d(c1). fact a(c1). fact e(k)." + ITEM_9_B_RULES,
                 TERMINATE, marks=item_9, id="B"),
    pytest.param(ITEM_9_RANDOM, BOUNDED_16, marks=item_9, id="random"),
    pytest.param("fact d(c1). fact d(c2). fact a(c1). fact e(k)." + ITEM_9_B_RULES,
                 TERMINATE, id="B-swapped"),
])
def test_blocked_answers_contain_the_chase_answers(text, chase):
    p = parse_program(text)
    query = p.queries[0]
    blocked = certain_answers(p.facts, p.tgds, query, BlockedAtomic())
    bound = certain_answers(p.facts, p.tgds, query, chase)
    assert blocked.status is AnswerStatus.EXACT
    assert set(bound.answers) <= set(blocked.answers)
    if bound.status is AnswerStatus.EXACT:
        assert bound.answers == blocked.answers


# ---------------------------------------------------------------------------
# the store key against whole-cloud keying
# ---------------------------------------------------------------------------

def reference_triggers(tgds, instance, new_atom):
    """(rule index, homomorphism) of every trigger, or of those using
    new_atom (each body atom of its predicate pinned to it in turn)."""
    for idx, rule in enumerate(tgds):
        if new_atom is None:
            yield from ((idx, hom) for hom in body_homomorphisms(rule.body, instance))
            continue
        for i, atom in enumerate(rule.body):
            if atom.predicate == new_atom.predicate:
                for hom in body_homomorphisms(rule.body, instance):
                    if atom.substitute(hom) == new_atom:
                        yield idx, hom


def reference_head_image(rule, hom, alloc):
    """The head under hom, with fresh nulls for the existentials in name
    order."""
    extended = dict(hom)
    for v in sorted(rule.existentials, key=lambda x: x.name):
        extended[v] = alloc.fresh()
    return rule.head[0].substitute(extended)


def reference_saturate(database, rules):
    """Blocked saturation keyed by definition: each atom's cloud is taken
    over the whole instance and canonicalized in full.  Returns the
    ground atoms, the last store as (canonical anchor, cloud size)
    pairs, the status, the rounds, and every (atom, blocked) decision of
    every round in order."""
    tgds = normalize_heads(rules)
    _, guard, weak, _ = classify_oracle(tgds)
    # the guard, or else the weak guard, read off the definitions
    guard_of = {i: weak[r] if guard[r] is None else guard[r] for i, r in enumerate(tgds)}
    ground = Instance(database)
    status, rounds, decisions, keys = SaturateStatus.BUDGET_EXHAUSTED, 0, [], {}
    while rounds < SaturateOptions().max_rounds:
        rounds += 1
        known, keys, blocked = len(ground), {}, set()
        instance = Instance(ground)
        alloc = NullAllocator.after(instance)

        def register(atom):
            key = canonicalize(atom, set(cloud_of(instance, database, atom)),
                               database)
            decisions.append((atom, key in keys))
            if key in keys:
                blocked.add(atom)
            keys.setdefault(key, None)

        queue, seen = deque(), set()

        def discover(new_atom):
            for idx, hom in reference_triggers(tgds, instance, new_atom):
                if (idx, hom_key(hom)) not in seen:
                    seen.add((idx, hom_key(hom)))
                    queue.append((idx, hom))

        for atom in instance.atoms():
            register(atom)
        discover(None)
        steps, exhausted = 0, False
        while queue:
            idx, hom = queue.popleft()
            gi = guard_of[idx]
            if gi is not None and tgds[idx].body[gi].substitute(hom) in blocked:
                continue
            new_atom = reference_head_image(tgds[idx], hom, alloc)
            if not instance.add(new_atom):
                continue
            steps += 1
            exhausted = (steps > clouds.MAX_STEPS_PER_ROUND
                         or len(keys) > clouds.MAX_STORE_SIZE)
            if exhausted:
                break
            if new_atom.domain() <= database.domain():
                ground.add(new_atom)
            register(new_atom)
            discover(new_atom)
        if exhausted:
            break
        if len(ground) == known:
            status = SaturateStatus.STABILIZED
            break
    store = [(anchor, len(atoms)) for anchor, atoms in keys]
    return ground.atoms(), store, status, rounds, decisions


def assert_keyed_as_the_reference(monkeypatch, database, rules):
    """blocked_saturate decides, stores and derives as reference_saturate."""
    anchors, hits = [], []
    real_canonicalize = clouds.canonicalize
    real_contains = clouds.CloudStore.__contains__

    def canonicalize_spy(anchor, atoms, db):
        anchors.append(anchor)
        return real_canonicalize(anchor, atoms, db)

    def contains_spy(store, key):
        hits.append(real_contains(store, key))
        return hits[-1]

    with monkeypatch.context() as m:
        m.setattr(clouds, "canonicalize", canonicalize_spy)
        m.setattr(clouds.CloudStore, "__contains__", contains_spy)
        out = blocked_saturate(database, rules)
    ground, store, status, rounds, decisions = reference_saturate(database, rules)
    assert list(zip(anchors, hits)) == decisions
    assert [(k[0], k[1] + len(k[2])) for k in out.store.keys] == store
    assert out.ground_atoms.atoms() == ground
    assert (out.status, out.rounds) == (status, rounds)


@saturation_cases
def test_saturation_keys_as_whole_cloud_keying(monkeypatch, cases):
    for db, rules in cases():
        assert_keyed_as_the_reference(monkeypatch, db, rules)


REF_PREDS = [Predicate("q0", 1), Predicate("q1", 2), Predicate("q2", 3)]
REF_VARS = [Variable("X"), Variable("Y"), Variable("Z")]
REF_CONSTS = [Constant("a"), Constant("b")]


@st.composite
def ref_rules(draw, label):
    body = tuple(
        Atom(p, tuple(draw(st.sampled_from(REF_VARS)) for _ in range(p.arity)))
        for p in draw(st.lists(st.sampled_from(REF_PREDS), min_size=1, max_size=2))
    )
    body_vars = sorted({v for a in body for v in a.variables()}, key=lambda v: v.name)
    # up to two existentials, and a constant outside the database, which
    # only a rule built in the library can put into its head
    fresh = [Variable("E1"), Variable("E2"), Constant("k")]
    head_pred = draw(st.sampled_from(REF_PREDS))
    head = tuple(draw(st.sampled_from(body_vars + fresh)) for _ in range(head_pred.arity))
    existentials = frozenset(t for t in head if isinstance(t, Variable)
                             and t.name.startswith("E"))
    return TGD(body, (Atom(head_pred, head),), existentials, label=label)


@st.composite
def ref_programs(draw):
    values = REF_CONSTS + draw(st.sampled_from([[], [LabeledNull(1), LabeledNull(2)]]))
    db = Instance(
        Atom(p, tuple(draw(st.sampled_from(values)) for _ in range(p.arity)))
        for p in draw(st.lists(st.sampled_from(REF_PREDS), min_size=1, max_size=4))
    )
    rules = [draw(ref_rules("tgd%d" % (i + 1))) for i in range(draw(st.integers(1, 4)))]
    assume(classify(rules).is_weakly_guarded_set())
    return db, rules


@settings(max_examples=300, derandomize=True, deadline=None)
@given(ref_programs())
def test_saturation_keys_as_whole_cloud_keying_on_random_programs(program):
    # a database value may be a null, which canonical renaming fixes
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_keyed_as_the_reference(monkeypatch, *program)
