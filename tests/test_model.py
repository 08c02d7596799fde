import random

import pytest

from chasekit.model import (
    Atom,
    Constant,
    Instance,
    LabeledNull,
    NullAllocator,
    Predicate,
    UsageError,
    Variable,
    compare_terms,
)

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


def test_position_index_round_trips():
    rng = random.Random(3)
    preds = [Predicate("p%d" % i, 2) for i in range(3)] + [Predicate("u", 1)]
    atoms = []
    for _ in range(40):
        p = rng.choice(preds)
        atoms.append(Atom(p, tuple(rng.choice([a, b, n1, n2]) for _ in range(p.arity))))
    inst = Instance(atoms)
    rebuilt = {}
    for atom in inst:
        for i, t in enumerate(atom.args):
            rebuilt.setdefault((atom.predicate, i, t), []).append(atom)
    for p in preds:
        assert inst.probe(p, (), ()) == inst.by_predicate(p)
        for i in range(p.arity):
            assert inst.distinct(p, i) == len({atom.args[i] for atom in inst.by_predicate(p)})
            for t in (a, b, n1, n2, zzz):
                want = rebuilt.get((p, i, t), [])
                assert inst.probe(p, (i,), (t,)) == want
                if p.arity == 2:
                    # the shorter of two lists; both hold every match
                    other = rebuilt.get((p, 1 - i, a), [])
                    got = inst.probe(p, (i, 1 - i), (t, a))
                    assert got in (want, other) and len(got) == min(len(want), len(other))
                    if not want or not other:
                        assert got == []


def test_rewrite_replaces_everywhere():
    inst = Instance([Atom(r, (a, n1)), Atom(r, (n1, n1)), Atom(r, (a, b))])
    out = inst.rewrite(n1, a)
    assert out.atom_set() == {Atom(r, (a, a)), Atom(r, (a, b))}


def test_arity_zero_atoms_render_bare():
    stop = Predicate("stop", 0)
    assert repr(Atom(stop, ())) == "stop"
