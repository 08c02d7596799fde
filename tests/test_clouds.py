import random

import pytest

from helpers import run_optimized, terminating_cases, wg_cases

from chasekit.chase import (
    ChaseOptions,
    Mode,
    Status,
    run_chase,
    split_ground,
    subtree_atoms,
    subtree_closure,
)
from chasekit.clouds import (
    SaturateOptions,
    SaturateStatus,
    atom_isomorphism_class,
    blocked_saturate,
    canonicalize,
    cloud_of,
    cloud_size_bound,
    d_isomorphic,
)
from chasekit.model import Atom, Constant, Instance, LabeledNull, Predicate, UsageError
from chasekit.parser import parse_atom, parse_instance, parse_program

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
    assert set(cloud.atoms) == {parse_atom("r1(a,b)"), parse_atom("r2(b)")}


def test_cloud_of_running_example_prefix():
    db = parse_instance("r1(a,b).")
    inst = parse_instance("r1(a,b), r3(b,_:n1), r2(b).")
    cloud = cloud_of(inst, db, parse_atom("r3(b,_:n1)"))
    assert set(cloud.atoms) == inst.atom_set()


def test_database_contained_in_every_cloud():
    for db, rules, ob, _ in terminating_cases(seed=301, count=10):
        for anchor in list(ob.instance)[:10]:
            cloud = cloud_of(ob.instance, db, anchor)
            assert db.atom_set() <= set(cloud.atoms)


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
            got = subtree_closure(ob, anchor, set(cloud.atoms))
            want = subtree_atoms(ob, anchor) | set(cloud.atoms)
            assert got == want, (anchor, rules)
            checked += 1
    assert checked > 20


def test_isomorphism_coherence_of_subtrees():
    # D-isomorphic (atom, cloud) pairs have D-isomorphic subtree closures
    from chasekit.query import find_homomorphism

    for db, rules, ob, _ in terminating_cases(
        seed=311, count=5, weakly_guarded_only=True, max_atoms=60
    ):
        atoms = [n.atom for n in ob.forest]
        for i, a in enumerate(atoms):
            for b in atoms[i + 1:]:
                ca = cloud_of(ob.instance, db, a)
                cb = cloud_of(ob.instance, db, b)
                if not d_isomorphic((a, set(ca.atoms)), (b, set(cb.atoms)), db):
                    continue
                nabla_a = sorted(subtree_atoms(ob, a) | set(ca.atoms), key=repr)
                nabla_b = sorted(subtree_atoms(ob, b) | set(cb.atoms), key=repr)
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
    # a one-round budget is never enough to observe stabilization
    tight = blocked_saturate(g.facts, g.tgds,
                             SaturateOptions(max_rounds=1, force=True))
    assert tight.status is SaturateStatus.BUDGET_EXHAUSTED


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
