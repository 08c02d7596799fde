import copy
import pickle
import random

import pytest

from helpers import copy_rewrite

from chasekit.clouds import CloudStore, canonicalize
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
    canonical_null,
    compare_terms,
)
from chasekit.parser import parse_atom
from chasekit.plan import RulePlan

a, b, zzz = Constant("a"), Constant("b"), Constant("zzz")
n1, n2 = LabeledNull(1), LabeledNull(2)
r = Predicate("r", 2)


def test_constants_compare_lexicographically():
    assert compare_terms(a, b) == -1
    assert compare_terms(b, a) == 1
    assert compare_terms(a, Constant("a")) == 0


def test_every_constant_precedes_every_null():
    assert compare_terms(zzz, n1) == -1
    assert compare_terms(n1, zzz) == 1


def test_nulls_compare_by_index():
    assert compare_terms(n2, n1) == 1
    assert compare_terms(n1, n2) == -1
    assert compare_terms(n1, LabeledNull(1)) == 0


def test_variables_are_not_comparable():
    with pytest.raises(UsageError):
        compare_terms(Variable("X"), a)


def test_compare_is_a_total_order():
    rng = random.Random(7)
    terms = [Constant(chr(97 + rng.randint(0, 25)) * rng.randint(1, 3))
             for _ in range(12)]
    terms += [LabeledNull(rng.randint(1, 9)) for _ in range(12)]
    for x in terms:
        for y in terms:
            sxy, syx = compare_terms(x, y), compare_terms(y, x)
            assert sxy == -syx  # antisymmetry
            assert (sxy == 0) == (x == y or repr(x) == repr(y))
            for z in terms:
                if sxy <= 0 and compare_terms(y, z) <= 0:
                    assert compare_terms(x, z) <= 0  # transitivity


def test_fresh_null_counter():
    alloc = NullAllocator()
    assert alloc.fresh() == LabeledNull(1)
    assert alloc.fresh() == LabeledNull(2)


def test_allocator_seeds_above_parsed_nulls():
    inst = Instance([Atom(r, (a, LabeledNull(5)))])
    alloc = NullAllocator.after(inst)
    assert alloc.fresh() == LabeledNull(6)


def test_fresh_nulls_never_collide_with_instance():
    inst = Instance([Atom(r, (LabeledNull(3), LabeledNull(9)))])
    alloc = NullAllocator.after(inst)
    for _ in range(20):
        assert alloc.fresh() not in inst.domain()


def test_atom_arity_checked():
    with pytest.raises(UsageError):
        Atom(r, (a,))


def test_instance_rejects_variables():
    inst = Instance()
    with pytest.raises(UsageError):
        inst.add(Atom(r, (a, Variable("X"))))
    # with atoms of the predicate indexed already, the rejected atom
    # leaves no trace in the instance
    inst = Instance([Atom(r, (a, b))])
    with pytest.raises(UsageError):
        inst.add(Atom(r, (a, Variable("X"))))
    assert inst.atoms() == [Atom(r, (a, b))] and inst.domain() == {a, b}
    assert inst.probe(r, (1,), (Variable("X"),)) == []
    # the kind tag decides, not the name
    assert inst.add(r(a, Constant("X")))
    with pytest.raises(UsageError):
        inst.add(r(a, Variable("X")))
    assert inst.atoms() == [Atom(r, (a, b)), r(a, Constant("X"))]


def assert_index_round_trips(inst, preds, terms):
    """Every position list, `by_predicate` and `distinct` as rebuilt
    from iteration order, and positions increasing along it."""
    atoms = inst.atoms()
    assert list(inst) == atoms and len(inst) == len(atoms)
    assert [inst.position(atom) for atom in atoms] == sorted(map(inst.position, atoms))
    assert len(set(map(inst.position, atoms))) == len(atoms)
    rebuilt = {}
    for atom in atoms:
        for i, t in enumerate(atom.args):
            rebuilt.setdefault((atom.predicate, i, t), []).append(atom)
    assert inst.domain() == {t for atom in atoms for t in atom.args}
    for p in preds:
        assert inst.by_predicate(p) == [atom for atom in atoms if atom.predicate == p]
        assert inst.probe(p, (), ()) == inst.by_predicate(p)
        for i in range(p.arity):
            assert inst.distinct(p, i) == len({atom.args[i] for atom in inst.by_predicate(p)})
            for t in terms:
                want = rebuilt.get((p, i, t), [])
                assert inst.probe(p, (i,), (t,)) == want
                if p.arity == 2:
                    # the shorter of two lists; both hold every match
                    other = rebuilt.get((p, 1 - i, a), [])
                    got = inst.probe(p, (i, 1 - i), (t, a))
                    assert got in (want, other) and len(got) == min(len(want), len(other))
                    if not want or not other:
                        assert got == []


def test_position_index_round_trips():
    rng = random.Random(3)
    preds = [Predicate("p%d" % i, 2) for i in range(3)] + [Predicate("u", 1)]
    atoms = []
    for _ in range(40):
        p = rng.choice(preds)
        atoms.append(Atom(p, tuple(rng.choice([a, b, n1, n2]) for _ in range(p.arity))))
    assert_index_round_trips(Instance(atoms), preds, (a, b, n1, n2, zzz))


s_, u = Predicate("s", 1), Predicate("u", 1)
c = Constant("c")


def test_rewrite_replaces_everywhere():
    inst = Instance([Atom(r, (a, n1)), Atom(r, (n1, n1)), Atom(r, (a, b))])
    added = inst.rewrite(n1, a)
    assert inst.atom_set() == {Atom(r, (a, a)), Atom(r, (a, b))}
    assert added == [Atom(r, (a, a))]
    assert n1 not in inst.domain()
    assert inst.rewrite(a, Constant("a")) == []
    assert inst.atoms() == [Atom(r, (a, a)), Atom(r, (a, b))]


def test_rewrite_onto_an_earlier_atom_drops_the_preimage():
    inst = Instance([Atom(r, (a, b)), Atom(s_, (c,)), Atom(r, (a, n1))])
    assert inst.rewrite(n1, b) == []
    assert inst.atoms() == [Atom(r, (a, b)), Atom(s_, (c,))]
    assert inst.probe(r, (1,), (b,)) == [Atom(r, (a, b))]
    assert inst.probe(r, (1,), (n1,)) == [] and inst.distinct(r, 1) == 1
    assert n1 not in inst.domain()


def test_rewrite_onto_a_later_atom_moves_it_up():
    later = Atom(r, (a, b))
    inst = Instance([Atom(s_, (c,)), Atom(r, (a, n1)), Atom(u, (c,)), later])
    assert inst.rewrite(n1, b) == []
    assert inst.atoms() == [Atom(s_, (c,)), later, Atom(u, (c,))]
    assert inst.position(Atom(s_, (c,))) < inst.position(later) < inst.position(Atom(u, (c,)))
    assert inst.by_predicate(r) == [later]
    assert inst.probe(r, (0,), (a,)) == [later] == inst.probe(r, (1,), (b,))


def test_two_preimages_take_the_first_place():
    inst = Instance([Atom(s_, (c,)), Atom(r, (n1, b)), Atom(u, (a,)),
                     Atom(r, (n1, n1)), Atom(r, (a, n1))])
    added = inst.rewrite(n1, b)
    assert added == [Atom(r, (b, b)), Atom(r, (a, b))]
    assert inst.atoms() == [Atom(s_, (c,)), Atom(r, (b, b)), Atom(u, (a,)), Atom(r, (a, b))]
    assert inst.probe(r, (1,), (b,)) == [Atom(r, (b, b)), Atom(r, (a, b))]
    assert inst.probe(r, (0,), (b,)) == [Atom(r, (b, b))]
    assert_index_round_trips(inst, [r, s_, u], (a, b, c, n1))


def test_rewrite_keeps_the_order_of_a_whole_instance_copy():
    rng = random.Random(11)
    preds = [Predicate("p%d" % i, 2) for i in range(3)] + [u]
    terms = [a, b, c] + [LabeledNull(i) for i in range(1, 9)]
    for _ in range(60):
        atoms = [Atom(p, tuple(rng.choice(terms) for _ in range(p.arity)))
                 for p in rng.choices(preds, k=rng.randint(1, 30))]
        inst = Instance(atoms)
        for _ in range(rng.randint(1, 5)):
            nulls = sorted((t for t in inst.domain() if isinstance(t, LabeledNull)),
                           key=lambda t: t.index)
            if not nulls:
                break
            old = rng.choice(nulls)
            new = rng.choice(sorted(inst.domain() - {old}, key=repr) or [a])
            # equal to the instance's term, but another object
            new = Constant(new.name) if isinstance(new, Constant) else LabeledNull(new.index)
            want = copy_rewrite(inst, old, new)
            before = inst.atom_set()
            added = inst.rewrite(old, new)
            assert inst.atoms() == want.atoms()
            assert added == [atom for atom in want if atom not in before]
            assert old not in inst.domain()
            assert_index_round_trips(inst, preds, terms)
            # atoms added after merges go last
            extra = Atom(u, (rng.choice(terms),))
            if inst.add(extra):
                assert inst.atoms()[-1] == extra
                assert_index_round_trips(inst, preds, terms)


def test_arity_zero_atoms_render_bare():
    stop = Predicate("stop", 0)
    assert repr(Atom(stop, ())) == "stop"


# ---------------------------------------------------------------------------
# Hash and equality: hashes are fixed at construction and must agree with ==
# ---------------------------------------------------------------------------

def assert_one_key(*atoms):
    """All equal, all hash alike, and one set entry between them."""
    assert all(atom == atoms[0] for atom in atoms)
    assert len({hash(atom) for atom in atoms}) == 1 and len(set(atoms)) == 1


def test_equal_atoms_hash_equal_however_built():
    X, Y = Variable("X"), Variable("Y")
    # plan templates, one with only variables and one keeping a constant
    copy_rule = RulePlan(TGD((Atom(r, (X, Y)),), (Atom(r, (X, Y)),)))
    const_rule = RulePlan(TGD((Atom(r, (a, Y)),), (Atom(r, (a, Y)),)))
    built = [
        Atom(r, (a, n1)),
        r(a, n1),
        parse_atom("r(a,_:n1)"),
        Atom(r, (X, n1)).substitute({X: a}),
        Atom(Predicate("r", 2), (Constant("a"), LabeledNull(1))),
        copy_rule.head_image((a, n1), None),
        *copy_rule.body_images((a, n1)),
        const_rule.head_image((n1,), None),
        *const_rule.body_images((n1,)),
    ]
    inst = Instance([Atom(r, (b, n1))])
    image, = inst.rewrite(b, a)
    assert_one_key(image, *built)
    assert inst.atoms()[0] is image and image in inst
    assert all(type(atom) is Atom for atom in [image, *built])


def test_canonical_output_hashes_like_a_built_atom():
    database = Instance([Atom(r, (a, b))])
    anchor, cloud = Atom(r, (a, LabeledNull(7))), {Atom(s_, (LabeledNull(7),))}
    can_anchor, can_cloud = canonicalize(anchor, cloud, database)
    assert_one_key(can_anchor, r(a, canonical_null(1)))
    assert_one_key(*can_cloud, s_(canonical_null(1)))


def test_a_constant_and_a_variable_of_one_name_stay_apart():
    terms = {Constant("X"), Variable("X")}
    assert len(terms) == 2 and Constant("X") != Variable("X")
    p = Predicate("p", 1)
    assert len({p(Constant("X")), p(Variable("X"))}) == 2


def test_predicates_of_one_name_and_two_arities_stay_apart():
    p1, p2 = Predicate("p", 1), Predicate("p", 2)
    assert p1 != p2 and len({p1, p2}) == 2 and len({p1(a), p2(a, a)}) == 2


def test_canonical_nulls_and_chase_nulls_are_distinct_store_keys():
    assert canonical_null(1) != LabeledNull(1) and len({canonical_null(1), LabeledNull(1)}) == 2
    database = Instance([Atom(r, (a, b))])
    can_anchor, can_cloud = canonicalize(Atom(r, (a, n1)), {Atom(r, (a, n1))}, database)
    store = CloudStore()
    store.put((can_anchor, 1, can_cloud))
    raw = Atom(r, (a, n1))
    assert (raw, 1, frozenset({raw})) not in store
    store.put((raw, 1, frozenset({raw})))
    assert len(store) == 2


# ---------------------------------------------------------------------------
# Terms, predicates and atoms are tuples: hashing and equality stay tuple's C slots
# ---------------------------------------------------------------------------

MODEL_VALUES = [a, n1, Variable("X"), r, Atom(r, (a, n1))]


@pytest.mark.parametrize("value", MODEL_VALUES, ids=lambda v: type(v).__name__)
def test_hash_and_equality_are_tuples_own(value):
    cls = type(value)
    assert isinstance(value, tuple)
    assert cls.__hash__ is tuple.__hash__ and cls.__eq__ is tuple.__eq__


@pytest.mark.parametrize("value", MODEL_VALUES, ids=lambda v: type(v).__name__)
def test_copies_and_pickles_rebuild_the_same_class(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and type(twin) is type(value) and repr(twin) == repr(value)


@pytest.mark.parametrize("value, field", [
    (a, "name"), (n1, "index"), (Variable("X"), "name"),
    (r, "name"), (r, "arity"), (Atom(r, (a, n1)), "predicate"), (Atom(r, (a, n1)), "args"),
])
def test_fields_are_read_only(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))


def test_wrong_arity_raises_usage_error_either_way():
    for args in ((), (a,), (a, b, a)):
        with pytest.raises(UsageError):
            Atom(r, args)
        with pytest.raises(UsageError):
            r(*args)


def test_kind_tags_keep_three_terms_of_one_field_apart():
    assert len({Constant("X"), Variable("X"), LabeledNull(1)}) == 3


def test_instance_domain_is_a_copy_the_caller_may_mutate():
    inst = Instance([Atom(r, (a, n1))])
    dom = inst.domain()
    dom.add(zzz)
    dom.discard(a)
    assert inst.domain() == {a, n1} == inst.domain_view()
    assert inst.domain() is not inst.domain()
