import hashlib
import random

from helpers import gyo_acyclic_oracle, random_query_for, terminating_cases

from chasekit.acyclic import (
    SquidLimits,
    enumerate_squids,
    is_s_acyclic,
    make_squid,
    s_join_forest,
    squids_from_witnesses,
    validate_squid,
    verify_squid_lemma,
)
from chasekit.chase import ChaseOptions, Mode, run_chase, split_ground
from chasekit.model import CQ, Atom, Constant, Predicate, Variable
from chasekit.parser import parse_atom, parse_program, render_atom

r2 = Predicate("r", 2)
s3 = Predicate("s", 3)


def V(name):
    return Variable(name)


def atoms(*texts):
    return [parse_atom(t) for t in texts]


# ---------------------------------------------------------------------------
# s_join_forest
# ---------------------------------------------------------------------------

def test_chain_is_acyclic():
    out = s_join_forest(atoms("r(X,Y)", "r(Y,Z)"), set())
    assert out is not None
    forest, td = out
    assert forest.validate(set(atoms("r(X,Y)", "r(Y,Z)")))
    assert td.validate(atoms("r(X,Y)", "r(Y,Z)"))


def test_triangle_is_cyclic_until_hidden():
    tri = atoms("r(X,Y)", "r(Y,Z)", "r(Z,X)")
    assert s_join_forest(tri, set()) is None
    hidden = {V("X"), V("Y"), V("Z")}
    out = s_join_forest(tri, hidden)
    assert out is not None
    assert out[0].validate(set(tri))


def test_tree_decomposition_width_bound():
    tri = atoms("r(X,Y)", "r(Y,Z)", "r(Z,X)")
    hidden = {V("X"), V("Y"), V("Z")}
    _, td = s_join_forest(tri, hidden)
    w = max(a.predicate.arity for a in tri)
    assert td.width <= len(hidden) + w


def test_disconnected_components_form_a_forest():
    ats = atoms("r(X,Y)", "r(Y,Z)", "r(U,W)")
    out = s_join_forest(ats, set())
    assert out is not None
    forest, _ = out
    assert len(forest.roots()) == 2


def test_empty_atom_set():
    out = s_join_forest([], set())
    assert out is not None


def test_agrees_with_classical_gyo_on_random_hypergraphs():
    rng = random.Random(2024)
    for _ in range(250):
        n_vertices = rng.randint(2, 6)
        verts = [Constant("v%d" % i) for i in range(n_vertices)]
        ats = []
        for k in range(rng.randint(1, 8)):
            size = rng.randint(1, min(3, n_vertices))
            chosen = rng.sample(verts, size)
            ats.append(Atom(Predicate("e%d" % k, size), tuple(chosen)))
        got = is_s_acyclic(ats, set())
        want = gyo_acyclic_oracle([set(a.args) for a in ats])
        assert got == want, ats


def test_s_acyclicity_via_vertex_hiding_matches_reduced_oracle():
    rng = random.Random(31337)
    for _ in range(150):
        verts = [Constant("v%d" % i) for i in range(5)]
        ats = []
        for k in range(rng.randint(1, 6)):
            size = rng.randint(1, 3)
            ats.append(Atom(Predicate("e%d" % k, size),
                            tuple(rng.sample(verts, size))))
        hidden = set(rng.sample(verts, rng.randint(0, 3)))
        got = is_s_acyclic(ats, hidden)
        want = gyo_acyclic_oracle([set(a.args) - hidden for a in ats])
        assert got == want


def test_every_emitted_forest_and_decomposition_validates():
    rng = random.Random(904)
    for _ in range(120):
        verts = [Constant("v%d" % i) for i in range(5)]
        ats = []
        for k in range(rng.randint(1, 6)):
            size = rng.randint(1, 3)
            ats.append(Atom(Predicate("e%d" % k, size),
                            tuple(rng.sample(verts, size))))
        hidden = set(rng.sample(verts, rng.randint(0, 2)))
        out = s_join_forest(ats, hidden)
        if out is None:
            continue
        forest, td = out
        assert forest.validate(set(ats))
        assert td.validate(ats)
        w = max(a.predicate.arity for a in ats)
        assert td.width <= len(hidden) + w


def test_chase_null_part_is_domain_acyclic():
    # the null-carrying part of every terminating weakly guarded chase
    # admits a [dom(D)]-join forest
    for db, rules, ob, _ in terminating_cases(
        seed=401, count=12, weakly_guarded_only=True
    ):
        _, nullpart = split_ground(ob.instance, db)
        out = s_join_forest(nullpart.atoms(), db.domain())
        assert out is not None
        forest, td = out
        assert forest.validate(nullpart.atom_set())
        assert td.validate(nullpart.atoms())


# ---------------------------------------------------------------------------
# squid decompositions
# ---------------------------------------------------------------------------

SQUID_Q = atoms(
    "r(X,Y)", "r(X,Z)", "r(Y,Z)",
    "r(Z,V1)", "r(V1,V2)", "r(V2,V3)", "r(V3,V4)", "r(V4,V5)",
    "r(V1,V6)", "r(V6,V5)", "r(V5,V7)",
    "r(Z,U1)", "s(U1,U2,U3)",
    "r(U3,U4)", "r(U3,U5)", "r(U4,U5)",
)


def squid_example():
    query = CQ("q", (), tuple(SQUID_Q))
    q_plus = tuple(SQUID_Q) + (parse_atom("s(U3,U4,U5)"),)
    h = {v: v for a in q_plus for v in a.variables()}
    h[V("V6")] = V("V2")
    h[V("V4")] = V("V3")
    h[V("V5")] = V("V3")
    h[V("V7")] = V("V3")
    v_delta = {V("X"), V("Y"), V("Z")}
    return query, q_plus, h, v_delta


def test_worked_squid_decomposition_validates():
    query, q_plus, h, v_delta = squid_example()
    squid = make_squid(query, q_plus, h, v_delta)
    assert validate_squid(query, squid)
    assert squid.head_part == frozenset(atoms("r(X,Y)", "r(X,Z)", "r(Y,Z)"))
    assert parse_atom("s(U3,U4,U5)") in squid.tentacles


def test_worked_squid_needs_the_cover_atom():
    # without s(U3,U4,U5) the folded U-triangle stays cyclic
    query, q_plus, h, v_delta = squid_example()
    bare = make_squid(query, tuple(SQUID_Q), h, v_delta)
    assert not validate_squid(query, bare)


def test_cover_worked_example():
    # a cover may add up to |Q| extra atoms over existing variables;
    # with the identity fold and everything ground it validates
    query = CQ("q", (), tuple(atoms("r(X,Y)", "r(Y,Z)", "t(Z,X,X)")))
    q_plus = tuple(atoms("r(X,Y)", "r(Y,Z)", "t(Z,X,X)", "t(Y,Z,Z)", "s(Z,U,U)"))
    squid = make_squid(query, q_plus, {}, {V("X"), V("Y"), V("Z"), V("U")})
    assert validate_squid(query, squid)
    # one extra atom too many breaks the 2|Q| cap
    query_small = CQ("q", (), tuple(atoms("r(X,Y)", "r(Y,Z)")))
    too_many = tuple(atoms("r(X,Y)", "r(Y,Z)", "t(Z,X,X)", "t(Y,Z,Z)",
                           "s(Z,U,U)"))
    assert not validate_squid(
        query_small,
        make_squid(query_small, too_many, {}, {V("X"), V("Y"), V("Z"), V("U")}),
    )


def test_identity_decomposition_with_all_vars_ground():
    query = CQ("q", (), tuple(atoms("r(X,Y)", "r(Y,Z)", "r(Z,X)")))
    squid = make_squid(query, query.body, {}, query.variables())
    assert validate_squid(query, squid)
    assert squid.tentacles == frozenset()


def test_cover_size_cap_enforced():
    query = CQ("q", (), tuple(atoms("r(X,Y)")))
    too_big = tuple(atoms("r(X,Y)", "r(Y,U)", "r(U,W)"))
    squid = make_squid(query, too_big, {}, {V("X"), V("Y")})
    assert not validate_squid(query, squid)


def test_enumerate_single_atom_query():
    query = CQ("q", (), tuple(atoms("r(X,Y)")))
    found = list(enumerate_squids(query, SquidLimits(max_candidates=5000)))
    assert found
    assert all(validate_squid(query, s) for s in found)
    # the trivial all-ground decomposition is present
    assert any(
        s.v_delta == frozenset({V("X"), V("Y")}) and not s.tentacles
        for s in found
    )


def test_enumerate_yields_folds():
    query = CQ("q", (), tuple(atoms("r(X,Y)", "r(X,Z)")))
    found = list(enumerate_squids(query, SquidLimits(max_candidates=20000)))
    # some decomposition folds Z onto Y
    assert any(dict(s.h).get(V("Z")) == V("Y") for s in found)


def test_enumeration_truncates_at_budget():
    query = CQ("q", (), tuple(SQUID_Q))
    limits = SquidLimits(max_candidates=500)
    list(enumerate_squids(query, limits))
    assert limits.truncated


def test_reused_limits_do_not_carry_over():
    p = parse_program("query a() :- r(X,Y). query b() :- r(X,Y), r(Y,Z), s(Z).")
    a, b = p.query("a"), p.query("b")
    reused = SquidLimits(max_candidates=2000)
    list(enumerate_squids(a, reused))
    fresh = list(enumerate_squids(b, SquidLimits(max_candidates=2000)))
    assert list(enumerate_squids(b, reused)) == fresh
    # a cover bound left over from `a` (2 atoms) admits only b's 10
    # squids without extra cover atoms
    assert len(fresh) > 10
    small = SquidLimits(max_candidates=500)
    list(enumerate_squids(b, small))
    assert small.truncated
    list(enumerate_squids(a, small))
    assert not small.truncated


def _squid_text(squid):
    return "%s | %s | %s | %s | %s" % (
        ",".join(render_atom(a) for a in squid.q_plus),
        ",".join("%s->%s" % (v.name, w.name) for v, w in squid.h),
        ",".join(sorted(render_atom(a) for a in squid.head_part)),
        ",".join(sorted(render_atom(a) for a in squid.tentacles)),
        ",".join(sorted(v.name for v in squid.v_delta)),
    )


# sha256 over the ordered squids, one line each, recorded before the
# cover atoms were built by one helper
SQUID_GOLDEN = {
    "enumerate": "775b96de1feec0ce0e7c06313413edda369b46aa79804bd747dd283576fe2fc4",
    "witnesses": "9cdf9d122bc170a87eddb8c186cb125ff3cb40ff5d1659735e3541106d26c293",
}


def test_squid_streams_match_the_golden_digests():
    p = parse_program(
        "fact r(a,b). fact s(b,c). tgd r(X,Y) -> exists Z: s(Y,Z)."
        " tgd s(X,Y) -> exists Z: r(Y,Z)."
        " query q1() :- r(X,Y). query q2() :- r(X,Y), r(Y,Z)."
        " query q3() :- r(X,Y), s(Y,X). query q4() :- s(X,Y), r(Y,Z), s(Z,W)."
    )
    digests = {k: hashlib.sha256() for k in SQUID_GOLDEN}
    res = run_chase(p.facts, p.tgds, (), ChaseOptions(mode=Mode.OBLIVIOUS, max_steps=6))
    preds = sorted({a.predicate for a in res.instance}, key=lambda q: q.name)
    for name in ("q1", "q2", "q3", "q4"):
        query = p.query(name)
        limits = SquidLimits(max_candidates=3000)
        for squid in enumerate_squids(query, limits):
            digests["enumerate"].update((_squid_text(squid) + "\n").encode())
        digests["enumerate"].update(("truncated=%s\n" % limits.truncated).encode())
        for squid, theta in squids_from_witnesses(query, res.instance, p.facts, preds):
            line = "%s | %s\n" % (_squid_text(squid), sorted(
                "%s->%r" % (v.name, t) for v, t in theta.items()))
            digests["witnesses"].update(line.encode())
    assert {k: h.hexdigest() for k, h in digests.items()} == SQUID_GOLDEN


# ---------------------------------------------------------------------------
# squid lemma harness
# ---------------------------------------------------------------------------

def test_squid_lemma_trivial_empty_query():
    p = parse_program("fact r(a,b). tgd r(X,Y) -> exists Z: s(Y,Z).")
    report = verify_squid_lemma(p.facts, p.tgds, CQ("q", (), ()))
    assert report.holds and report.entailed


def test_squid_lemma_positive_case():
    p = parse_program("fact r(a,b). tgd r(X,Y) -> exists Z: s(Y,Z).")
    query = CQ("q", (), tuple(atoms("r(U,V)", "s(V,W)")))
    report = verify_squid_lemma(p.facts, p.tgds, query)
    assert report.entailed and report.holds
    assert report.witness is not None


def test_squid_lemma_negative_case():
    p = parse_program("fact r(a,b). tgd r(X,Y) -> exists Z: s(Y,Z).")
    query = CQ("q", (), tuple(atoms("s(V,V)",)))
    report = verify_squid_lemma(p.facts, p.tgds, query)
    assert not report.entailed and report.holds
    assert report.witness is None


def test_squid_lemma_query_reads_no_helper_atoms():
    # the multi-atom head goes through a helper predicate, which must not
    # take the query's name v1
    p = parse_program("fact p(c). tgd p(X) -> exists Y: q(X,Y), r(Y).")
    query = CQ("b", (), tuple(atoms("v1(X,Y)",)))
    report = verify_squid_lemma(p.facts, p.tgds, query)
    assert not report.entailed and report.holds
    assert report.witness is None


def test_squid_lemma_inconclusive_on_nontermination():
    p = parse_program("fact r(a,b). tgd r(X,Y) -> exists Z: r(Y,Z).")
    query = CQ("q", (), tuple(atoms("r(U,V)",)))
    report = verify_squid_lemma(p.facts, p.tgds, query, max_steps=20)
    assert report.inconclusive


def test_squid_lemma_on_random_terminating_triples():
    rng = random.Random(83)
    held = 0
    for db, rules, ob, _ in terminating_cases(
        seed=83, count=25, weakly_guarded_only=True, max_atoms=80
    ):
        query = random_query_for(rng, ob.instance, rules)
        report = verify_squid_lemma(db, rules, query)
        assert not report.inconclusive
        assert report.holds, (rules, query)
        held += 1
    assert held == 25
