"""Shared test helpers: instance generators and independent oracles.

The generators are seeded and deterministic.  Oracles are written
independently of the code paths they check: exhaustive substitution for
query evaluation, naive fixpoint scans for affected positions and
subtree closures, vertex deletion for hypergraph acyclicity, exhaustive coloring for the graph
gadget.  The reference parser at the end is the token-by-token parser
chasekit used before it read atoms by slices.
"""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
from itertools import product
from pathlib import Path
from typing import Callable, Dict, List, NoReturn, Optional, Sequence, Set, Tuple, TypeVar

import chasekit
from chasekit.analysis import Position, RuleClass, classify, normalize_heads
from chasekit.chase import (
    ChaseOptions,
    ChaseResult,
    Mode,
    Status,
    body_homomorphisms,
    run_chase,
    subtree_atoms,
)
from chasekit.clouds import canonicalize
from chasekit.egdsep import FailureCheck
from chasekit.model import (
    CANONICAL_NULL_BASE,
    CQ,
    EGD,
    TGD,
    Atom,
    Constant,
    Instance,
    LabeledNull,
    Predicate,
    Program,
    Term,
    UsageError,
    Variable,
)
from chasekit.parser import _error
from chasekit.query import eval_cq, homomorphisms
from chasekit.rulesets import fll_rules

CONSTS = [Constant(c) for c in "abcde"]


def run_optimized(code: str) -> subprocess.CompletedProcess:
    """Run code under `python -O`, which strips assert statements; the
    child prints sys.flags.optimize first so callers can see it took."""
    src = str(Path(chasekit.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-O", "-c", "import sys; print(sys.flags.optimize)\n" + code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)


# ---------------------------------------------------------------------------
# Random terminating programs (stratified rule sets)
# ---------------------------------------------------------------------------

def random_stratified_program(
    rng: random.Random,
    n_preds: int = 4,
    max_arity: int = 3,
    n_rules: int = 4,
    db_size: int = 5,
) -> Tuple[Instance, List[TGD]]:
    """Rule set whose chase always terminates: head predicates sit at or
    above every body predicate's stratum, strictly above for existential
    rules, so invented values only flow upward through finitely many
    strata."""
    preds = [
        Predicate("p%d" % i, rng.randint(1, max_arity)) for i in range(n_preds)
    ]
    rules: List[TGD] = []
    for r in range(n_rules):
        n_body = rng.choice((1, 1, 2))
        # bias bodies toward the low strata, where the database lives
        body_levels = sorted(
            rng.sample(range(n_preds), n_body)
            if rng.random() < 0.3
            else [rng.randint(0, max(0, n_preds - 2)) for _ in range(n_body)]
        )
        existential = rng.random() < 0.5
        lo = max(body_levels) + (1 if existential else 0)
        if lo >= n_preds:
            existential = False
            lo = max(body_levels)
        head_level = rng.randint(lo, n_preds - 1)
        head_pred = preds[head_level]
        pool = [Variable("X%d" % i) for i in range(3)]
        body = []
        for lvl in body_levels:
            p = preds[lvl]
            body.append(Atom(p, tuple(rng.choice(pool) for _ in range(p.arity))))
        body_vars = sorted({v for a in body for v in a.variables()},
                           key=lambda v: v.name)
        ex_var = Variable("Z")
        head_args: List[Term] = []
        used_ex = False
        for i in range(head_pred.arity):
            if existential and not used_ex and rng.random() < 0.6:
                head_args.append(ex_var)
                used_ex = True
            else:
                head_args.append(rng.choice(body_vars))
        exist = frozenset({ex_var}) if used_ex else frozenset()
        rules.append(
            TGD(tuple(body), (Atom(head_pred, tuple(head_args)),), exist,
                label="tgd%d" % (r + 1))
        )
    db = Instance()
    attempts = 0
    consts = CONSTS[:3]
    while len(db) < db_size and attempts < 50:
        attempts += 1
        p = preds[rng.randint(0, max(0, n_preds - 2))] if rng.random() < 0.8 \
            else rng.choice(preds)
        db.add(Atom(p, tuple(rng.choice(consts) for _ in range(p.arity))))
    return db, rules


def random_wg_program(
    rng: random.Random,
    n_preds: int = 3,
    n_rules: int = 4,
    db_size: int = 5,
) -> Tuple[Instance, List[TGD]]:
    """Weakly guarded sets over binary predicates, possibly nonterminating:
    a mix of linear existential rules (cycles allowed) and guarded or
    weakly guarded joins.  Callers filter by classification."""
    preds = [Predicate("q%d" % i, 2) for i in range(n_preds)]
    X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
    rules: List[TGD] = []
    for r in range(n_rules):
        kind = rng.random()
        p1, p2, p3 = (rng.choice(preds) for _ in range(3))
        if kind < 0.45:
            # linear, maybe existential
            if rng.random() < 0.7:
                rules.append(TGD((p1(X, Y),), (p2(Y, Z),), frozenset({Z}),
                                 label="tgd%d" % (r + 1)))
            else:
                rules.append(TGD((p1(X, Y),), (p2(Y, X),), frozenset(),
                                 label="tgd%d" % (r + 1)))
        elif kind < 0.8:
            # guarded join: guard carries both variables
            rules.append(TGD((p1(X, Y), p2(Y, Y)), (p3(X, Y),), frozenset(),
                             label="tgd%d" % (r + 1)))
        else:
            # null-joining composition; weak guardedness checked by caller
            rules.append(TGD((p1(X, Y), p2(Y, Z)), (p3(X, Z),), frozenset(),
                             label="tgd%d" % (r + 1)))
    db = Instance()
    attempts = 0
    while len(db) < db_size and attempts < 50:
        attempts += 1
        p = rng.choice(preds)
        db.add(Atom(p, tuple(rng.choice(CONSTS[:4]) for _ in range(2))))
    return db, rules


def random_linear_program(
    rng: random.Random,
    n_rules: int = 3,
    db_size: int = 5,
) -> Tuple[Instance, List[TGD]]:
    """Linear rule sets (one body atom each) over predicates of arity 1
    to 3, possibly nonterminating.  Bodies may repeat a variable or hold
    a constant; heads mix frontier variables, one or two existentials
    (possibly repeated) and body constants."""
    preds = [Predicate("l%d" % i, arity) for i, arity in enumerate((1, 2, 2, 3))]
    pool = [Variable("X%d" % i) for i in range(3)]
    existentials = [Variable("Z1"), Variable("Z2")]
    rules: List[TGD] = []
    for r in range(n_rules):
        p, h = rng.choice(preds), rng.choice(preds)
        body = Atom(p, tuple(CONSTS[0] if rng.random() < 0.1 else rng.choice(pool)
                             for _ in range(p.arity)))
        terms = sorted(body.domain(), key=repr)
        args = [rng.choice(existentials) if rng.random() < 0.3 else rng.choice(terms)
                for _ in range(h.arity)]
        rules.append(TGD((body,), (Atom(h, tuple(args)),),
                         frozenset(existentials) & set(args), label="tgd%d" % (r + 1)))
    db = Instance()
    for _ in range(db_size):
        p = rng.choice(preds)
        db.add(Atom(p, tuple(rng.choice(CONSTS[:3]) for _ in range(p.arity))))
    return db, rules


def terminating_cases(
    seed: int,
    count: int,
    generator=random_stratified_program,
    max_steps: int = 1500,
    weakly_guarded_only: bool = False,
    max_atoms: int = 400,
):
    """Stream of (database, rules, oblivious result, restricted result)."""
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        db, rules = generator(rng)
        if len(db) == 0:
            continue
        if weakly_guarded_only and not classify(rules).is_weakly_guarded_set():
            continue
        ob = run_chase(db, rules, (), ChaseOptions(
            mode=Mode.OBLIVIOUS, max_steps=max_steps, max_depth=64))
        if ob.status is not Status.SATURATED or len(ob.instance) > max_atoms:
            continue
        re = run_chase(db, rules, (), ChaseOptions(
            mode=Mode.RESTRICTED, max_steps=max_steps, max_depth=64))
        if re.status is not Status.SATURATED:
            continue
        produced += 1
        yield db, rules, ob, re


def wg_cases(seed: int, count: int):
    """Weakly guarded (possibly nonterminating) (database, rules) pairs."""
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        db, rules = random_wg_program(rng)
        if len(db) == 0:
            continue
        if not classify(rules).is_weakly_guarded_set():
            continue
        produced += 1
        yield db, rules


# ---------------------------------------------------------------------------
# Random object-logic databases (the built-in rules plus the funct EGD)
# ---------------------------------------------------------------------------

def random_fll_program(rng: random.Random, n_objects: int, failing: bool) -> Program:
    """An object-logic database over `rulesets.fll_rules()`.

    A random class tree under k0, attributes made mandatory and mostly
    functional on random classes, objects placed in random classes, and
    about half of the object slots filled with a constant value, so the
    chase invents data values that the EGD merges onto those constants.
    A failing database gives one object two constants on an attribute
    that is functional on its class, so the clash shows up only after
    the TGDs have derived `funct(af, o)`.
    """
    program = fll_rules()
    preds = program.predicates()

    def fact(name: str, *args: str) -> None:
        program.facts.add(Atom(preds[name], tuple(Constant(a) for a in args)))

    classes = ["k%d" % i for i in range(rng.randint(2, 4))]
    for i, k in enumerate(classes[1:], 1):
        fact("sub", k, classes[rng.randrange(i)])
    fact("sub", "t0", "t1")
    attrs = ["a%d" % i for i in range(rng.randint(1, 3))]
    for a in attrs:
        k = rng.choice(classes)
        fact("mandatory", a, k)
        if rng.random() < 0.8:
            fact("funct", a, k)
        if rng.random() < 0.5:
            fact("type", k, a, rng.choice(("t0", "t1")))
    objects = ["o%d" % i for i in range(n_objects)]
    placed = {o: rng.choice(classes) for o in objects}
    for o in objects:
        fact("member", o, placed[o])
        for a in attrs:
            if rng.random() < 0.5:
                fact("data", o, a, "v%d" % rng.randrange(100))
    if failing:
        o = rng.choice(objects)
        fact("funct", "af", placed[o])
        fact("data", o, "af", "w1")
        fact("data", o, "af", "w2")
    return program


def fll_cases(seed: int, count: int):
    """Seeded random_fll_program stream, every fourth one failing."""
    rng = random.Random(seed)
    for i in range(count):
        yield random_fll_program(rng, rng.randint(2, 6), failing=(i % 4 == 3))


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def find_homomorphism(
    source: Sequence[Atom], target: Instance
) -> Optional[Dict[Term, Term]]:
    """A homomorphism from one atom set into an instance, nulls as variables.

    Constants are fixed; each labeled null of the source may map to any
    term of the target.  Returns the full term mapping or None.
    """
    null_vars: Dict[LabeledNull, Variable] = {}
    pattern: List[Atom] = []
    for a in source:
        args = []
        for t in a.args:
            if isinstance(t, LabeledNull):
                args.append(null_vars.setdefault(t, Variable("_N%d" % t.index)))
            else:
                args.append(t)
        pattern.append(Atom(a.predicate, tuple(args)))
    for hom in homomorphisms(pattern, target):
        return {n: hom[v] for n, v in null_vars.items()}
    return None


def copy_rewrite(instance: Instance, old: Term, new: Term) -> Instance:
    """The whole-instance merge that `Instance.rewrite` replaced: every
    atom or its image added, in order, to an empty instance."""
    return Instance(atom.substitute({old: new}) for atom in instance)


def programs_equal(a: Program, b: Program) -> bool:
    """Same facts, and the same rules and queries in the same order."""
    return (
        a.facts.atom_set() == b.facts.atom_set()
        and [(t.body, t.head, t.existentials) for t in a.tgds]
        == [(t.body, t.head, t.existentials) for t in b.tgds]
        and [(e.body, e.lhs, e.rhs) for e in a.egds]
        == [(e.body, e.lhs, e.rhs) for e in b.egds]
        and a.queries == b.queries
    )


def d_isomorphic(x: Tuple[Atom, Set[Atom]], y: Tuple[Atom, Set[Atom]],
                 database: Instance) -> bool:
    """Do the two (atom, atom set) pairs differ only by a null bijection
    fixing the database domain?  Decided by comparing canonical forms."""
    try:
        cx = canonicalize(x[0], set(x[1]), database)
        cy = canonicalize(y[0], set(y[1]), database)
    except UsageError:
        return False
    return cx == cy


def atom_isomorphism_class(atom: Atom) -> Atom:
    """Canonical form of a single atom (nulls by first occurrence)."""
    return canonicalize(atom, set(), Instance())[0]


def hom_key(hom: Dict[Variable, Term]) -> Tuple[Tuple[Variable, Term], ...]:
    """A homomorphism as a hashable tuple, sorted by variable name."""
    return tuple(sorted(hom.items(), key=lambda kv: kv[0].name))


def exhaustive_eval(instance: Instance, query: CQ) -> Set[Tuple[Term, ...]]:
    """Query evaluation by brute force over the domain: the variables are
    bound in name order, each to every term of the domain, and a partial
    substitution is dropped as soon as a body atom that it grounds is
    missing from the instance."""
    variables = sorted(query.variables(), key=lambda v: v.name)
    domain = sorted(instance.domain(), key=repr)
    atoms = instance.atom_set()
    # checks[i]: the body atoms grounded once variables[:i] are bound
    checks = [[a for a in query.body
               if a.variables() <= set(variables[:i])
               and (i == 0 or not a.variables() <= set(variables[:i - 1]))]
              for i in range(len(variables) + 1)]
    out: Set[Tuple[Term, ...]] = set()

    def extend(sub: Dict[Variable, Term], i: int) -> None:
        if not all(a.substitute(sub) in atoms for a in checks[i]):
            return
        if i == len(variables):
            out.add(tuple(sub[v] for v in query.head_vars))
            return
        for t in domain:
            extend({**sub, variables[i]: t}, i + 1)

    extend({}, 0)
    return out


# UCQ rewriting for linear TGDs (Calì, Gottlob and Lukasiewicz, PODS
# 2009; Gottlob, Orsi and Pieris, ICDE 2011).  A rewritten query is a
# pair (head terms, body): resolution may bind an answer variable to a
# constant or to another answer variable, so its head holds terms.
Rewritten = Tuple[Tuple[Term, ...], Tuple[Atom, ...]]


def _unify(pairs) -> Optional[Dict[Term, Term]]:
    """The most general unifier that equates each pair of terms, or
    None.  It maps variables to terms, possibly through chains."""
    sub: Dict[Term, Term] = {}
    for s, t in pairs:
        while s in sub:
            s = sub[s]
        while t in sub:
            t = sub[t]
        if s == t:
            continue
        if isinstance(s, Variable):
            sub[s] = t
        elif isinstance(t, Variable):
            sub[t] = s
        else:
            return None
    return sub


def _apply(sub: Dict[Term, Term], head: Tuple[Term, ...],
           body: Sequence[Atom]) -> Rewritten:
    def term(t: Term) -> Term:
        while t in sub:
            t = sub[t]
        return t
    return (tuple(map(term, head)),
            tuple(Atom(a.predicate, tuple(map(term, a.args))) for a in body))


def _canonical(head: Tuple[Term, ...], body: Sequence[Atom]) -> Rewritten:
    """The query with its body deduplicated and sorted and its variables
    named V0, V1, ... by first occurrence: in the head, then in the body
    sorted by predicate and constants.  Isomorphic queries may still get
    two names, but the names come from a finite set for a bounded body,
    so the rewriting ends."""
    def shape(a: Atom):
        return (a.predicate, tuple("" if isinstance(t, Variable) else t.name for t in a.args))
    names: Dict[Term, Term] = {}
    for t in head + tuple(t for a in sorted(set(body), key=shape) for t in a.args):
        if isinstance(t, Variable) and t not in names:
            names[t] = Variable("V%d" % len(names))
    # one lookup per term: a renaming is no chain of bindings
    return (tuple(names.get(t, t) for t in head),
            tuple(sorted({Atom(a.predicate, tuple(names.get(t, t) for t in a.args))
                          for a in body}, key=repr)))


def _existential_free(t: Term, z: Variable, atom: Atom, head: Atom,
                      elsewhere: Set[Term]) -> bool:
    """May the query atom's term t, at a position of the existential z
    in the rule head, take z's invented value?  Only a variable that
    occurs nowhere else in the query and sits in the atom only at z's
    positions may."""
    return isinstance(t, Variable) and t not in elsewhere and all(
        w == z for u, w in zip(atom.args, head.args) if u == t)


def ucq_rewriting(query: CQ, rules: Sequence[TGD]) -> List[Rewritten]:
    """The perfect rewriting of a query under linear single-head TGDs:
    every query reached from it by two steps, up to `_canonical` naming.

    - Resolution replaces one body atom by a rule body, through the most
      general unifier of the atom with the rule head.  It applies only
      when each existential position of the head holds a variable that
      is not an answer variable, occurs in no other body atom, and sits
      in the atom only at that existential's positions.
    - Reduction unifies two body atoms.
    """
    assert all(len(r.body) == 1 and len(r.head) == 1 for r in rules)
    start = _canonical(query.head_vars, query.body)
    seen = {start}
    queue = [start]
    renamed = 0
    while queue:
        head, body = queue.pop()
        found: List[Rewritten] = []
        for i, atom in enumerate(body):
            others = body[:i] + body[i + 1:]
            elsewhere = set(head) | {t for a in others for t in a.args}
            for rule in rules:
                if rule.head[0].predicate != atom.predicate:
                    continue
                renamed += 1
                apart = {v: Variable("%s'%d" % (v.name, renamed))
                         for v in rule.body[0].variables() | rule.head_variables()}
                rhead, rbody = rule.head[0].substitute(apart), rule.body[0].substitute(apart)
                ex = {apart[z] for z in rule.existentials}
                if not all(_existential_free(t, z, atom, rhead, elsewhere)
                           for t, z in zip(atom.args, rhead.args) if z in ex):
                    continue
                sub = _unify(zip(atom.args, rhead.args))
                if sub is not None:
                    found.append(_apply(sub, head, others + (rbody,)))
            for other in body[i + 1:]:
                if other.predicate == atom.predicate:
                    sub = _unify(zip(atom.args, other.args))
                    if sub is not None:
                        found.append(_apply(sub, head, body))
        for rewritten in found:
            rewritten = _canonical(*rewritten)
            if rewritten not in seen:
                seen.add(rewritten)
                queue.append(rewritten)
    return sorted(seen, key=repr)


def rewriting_answers(database: Instance, rules: Sequence[TGD],
                      query: CQ) -> Set[Tuple[Term, ...]]:
    """Certain answers of a query under linear TGDs: the constant rows of
    the union of its rewriting, each member evaluated with `eval_cq`.
    Multi-atom heads are split first (`normalize_heads`)."""
    rules = normalize_heads(rules)
    out: Set[Tuple[Term, ...]] = set()
    for head, body in ucq_rewriting(query, rules):
        free = tuple(dict.fromkeys(t for t in head if isinstance(t, Variable)))
        for row in eval_cq(database, CQ("rewritten", free, body)):
            value = dict(zip(free, row))
            out.add(tuple(value.get(t, t) for t in head))
    return {row for row in out if all(isinstance(t, Constant) for t in row)}


def rewriting_containment(q1: CQ, q2: CQ, rules: Sequence[TGD]) -> str:
    """Containment of q1 in q2 under linear TGDs, "yes" or "no": is q1's
    head, frozen with its body to constants named apart from every
    parsed one, a rewriting answer of q2 over the frozen body?"""
    freeze = {v: Constant("?" + v.name) for v in q1.variables()}
    frozen = Instance(a.substitute(freeze) for a in q1.body)
    frozen_head = tuple(freeze[v] for v in q1.head_vars)
    return "yes" if frozen_head in rewriting_answers(frozen, rules, q2) else "no"


# The inequality relation of the failure oracle; no generated program
# uses this predicate name.
ORACLE_NEQ = Predicate("oracle_neq", 2)


def failure_by_inequality_oracle(database: Instance, tgds: Sequence[TGD],
                                 egds: Sequence[EGD], max_steps: int = 10_000,
                                 max_depth: int = 64) -> FailureCheck:
    """The paper's EGD failure check, built literally: over the TGD-only
    restricted chase plus an inequality relation on every pair of
    distinct database constants, one Boolean query per EGD, its body
    with `ORACLE_NEQ(lhs, rhs)` added, evaluated by `exhaustive_eval`.
    It agrees with `egd_failure_check` only when every constant of the
    chase comes from the database, that is when no rule head carries a
    constant of its own."""
    result = run_chase(database, tgds, (), ChaseOptions(
        mode=Mode.RESTRICTED, max_steps=max_steps, max_depth=max_depth))
    extended = result.instance.copy()
    constants = [t for t in database.domain() if isinstance(t, Constant)]
    for x in constants:
        for y in constants:
            if x != y:
                extended.add(ORACLE_NEQ(x, y))
    for egd in egds:
        query = CQ("fail", (), egd.body + (ORACLE_NEQ(egd.lhs, egd.rhs),))
        if exhaustive_eval(extended, query):
            return FailureCheck.FAILED
    if result.status is Status.SATURATED:
        return FailureCheck.NO_FAILURE
    return FailureCheck.UNKNOWN


def affected_oracle(rules: Sequence[TGD]) -> Set[Position]:
    """Affected positions by repeated full passes over a membership test."""
    all_positions = set()
    for rule in rules:
        for atom in list(rule.body) + list(rule.head):
            for i in range(atom.predicate.arity):
                all_positions.add(Position(atom.predicate, i + 1))
    affected: Set[Position] = set()
    while True:
        new = set()
        for pos in all_positions:
            if pos in affected:
                continue
            for rule in rules:
                for atom in rule.head:
                    if atom.predicate != pos.predicate:
                        continue
                    term = atom.args[pos.slot - 1]
                    if not isinstance(term, Variable):
                        continue
                    if term in rule.existentials:
                        new.add(pos)
                        continue
                    occurrences = [
                        Position(b.predicate, i + 1)
                        for b in rule.body
                        for i, t in enumerate(b.args)
                        if t == term
                    ]
                    if occurrences and all(o in affected for o in occurrences):
                        new.add(pos)
        if not new:
            return affected
        affected |= new


def classify_oracle(rules: Sequence[TGD]):
    """(per-rule class, guard index, weak guard index, overall class) of a
    TGD set, read off the definitions over `affected_oracle`'s positions."""
    affected = affected_oracle(rules)
    per_rule: Dict[TGD, RuleClass] = {}
    guard: Dict[TGD, Optional[int]] = {}
    weak: Dict[TGD, Optional[int]] = {}
    for rule in rules:
        universal = {t for a in rule.body for t in a.args if isinstance(t, Variable)}
        can_bind_null = {
            v for v in universal
            if all(Position(a.predicate, i + 1) in affected
                   for a in rule.body for i, t in enumerate(a.args) if t == v)
        }
        covering = [i for i, a in enumerate(rule.body) if universal <= set(a.args)]
        weakly_covering = [i for i, a in enumerate(rule.body) if can_bind_null <= set(a.args)]
        guard[rule] = covering[0] if covering else None
        weak[rule] = weakly_covering[0] if weakly_covering else None
        if not weakly_covering:
            per_rule[rule] = RuleClass.UNGUARDED
        elif not covering:
            per_rule[rule] = RuleClass.WEAKLY_GUARDED
        elif len(rule.body) == 1:
            per_rule[rule] = RuleClass.LINEAR
        else:
            per_rule[rule] = RuleClass.GUARDED
    weakest_first = [RuleClass.UNGUARDED, RuleClass.WEAKLY_GUARDED, RuleClass.GUARDED,
                     RuleClass.LINEAR]
    classes = set(per_rule.values())
    if RuleClass.UNGUARDED not in classes and not any(r.existentials for r in rules):
        overall = RuleClass.FULL
    else:
        overall = next(c for c in weakest_first if c in classes)
    return per_rule, guard, weak, overall


def gyo_acyclic_oracle(edges: Sequence[Set]) -> bool:
    """Classical GYO reduction in its vertex/edge-deletion formulation."""
    work = [set(e) for e in edges]
    changed = True
    while changed:
        changed = False
        counts: Dict[object, int] = {}
        for e in work:
            for v in e:
                counts[v] = counts.get(v, 0) + 1
        for e in work:
            lonely = {v for v in e if counts[v] == 1}
            if lonely:
                e -= lonely
                changed = True
        for i, e in enumerate(work):
            if not e:
                work.pop(i)
                changed = True
                break
            for j, f in enumerate(work):
                if i != j and e <= f:
                    work.pop(i)
                    changed = True
                    break
            if changed:
                break
    return not work


def three_colorable_oracle(vertices: Sequence[str],
                           edges: Sequence[Tuple[str, str]]) -> bool:
    for coloring in product(range(3), repeat=len(vertices)):
        color = dict(zip(vertices, coloring))
        if all(color[u] != color[v] for u, v in edges):
            return True
    return False


def naive_multihead_chase(
    database: Instance, rules: Sequence[TGD], max_steps: int = 2000
) -> Optional[Set[Atom]]:
    """Oblivious chase supporting multi-atom heads, by brute-force
    substitution search.  Independent of the engine.  None on budget."""
    atoms: Set[Atom] = set(database)
    applied: Set[Tuple[int, Tuple[Tuple[str, Term], ...]]] = set()
    next_null = max([t.index for a in atoms for t in a.args
                     if isinstance(t, LabeledNull)] + [0]) + 1
    steps = 0
    while True:
        domain = sorted({t for a in atoms for t in a.args}, key=repr)
        fired = False
        for ri, rule in enumerate(rules):
            variables = sorted({v for a in rule.body for v in a.variables()},
                               key=lambda v: v.name)
            for values in product(domain, repeat=len(variables)):
                sub: Dict[Term, Term] = dict(zip(variables, values))
                if not all(a.substitute(sub) in atoms for a in rule.body):
                    continue
                key = (ri, tuple((v.name, sub[v]) for v in variables))
                if key in applied:
                    continue
                applied.add(key)
                steps += 1
                if steps > max_steps:
                    return None
                full = dict(sub)
                for z in sorted(rule.existentials, key=lambda v: v.name):
                    full[z] = LabeledNull(next_null)
                    next_null += 1
                for h in rule.head:
                    atoms.add(h.substitute(full))
                fired = True
        if not fired:
            return atoms


def naive_subtree_closure(
    result: ChaseResult, atom: Atom, side_atoms: Set[Atom]
) -> Set[Atom]:
    """Subtree closure by naive fixpoint: every round rebuilds the closure
    and re-matches every rule against it for each pending subtree atom."""
    scope = subtree_atoms(result, atom)
    closure: Set[Atom] = set(side_atoms) | {atom}
    pending = set(scope) - closure
    changed = True
    while changed and pending:
        changed = False
        view = Instance(sorted(closure, key=repr))
        for candidate in sorted(pending, key=repr):
            for rule in result.tgds:
                produced = False
                for hom in body_homomorphisms(rule.body, view):
                    frontier = {v: t for v, t in hom.items() if v in rule.frontier()}
                    for _ in body_homomorphisms(rule.head, Instance([candidate]),
                                                seed=frontier):
                        produced = True
                        break
                    if produced:
                        break
                if produced:
                    closure.add(candidate)
                    changed = True
                    break
        pending = set(scope) - closure
    return closure


def random_query_for(
    rng: random.Random,
    chase_instance: Instance,
    rules: Sequence[TGD],
    boolean: bool = True,
) -> CQ:
    """Small query; half the time abstracted from actual chase atoms so
    entailed and non-entailed cases both show up."""
    preds = sorted(
        {a.predicate for a in chase_instance}
        | {a.predicate for r in rules for a in r.body + r.head},
        key=lambda p: (p.name, p.arity),
    )
    n_atoms = rng.choice((1, 1, 2))
    body: List[Atom] = []
    var_pool = [Variable(n) for n in ("U", "V", "W", "S")]
    if rng.random() < 0.5 and len(chase_instance) >= n_atoms:
        sample = rng.sample(chase_instance.atoms(), n_atoms)
        mapping: Dict[Term, Variable] = {}
        for a in sample:
            args = []
            for t in a.args:
                if t not in mapping:
                    mapping[t] = var_pool[len(mapping) % len(var_pool)]
                args.append(mapping[t])
            body.append(Atom(a.predicate, tuple(args)))
    else:
        for _ in range(n_atoms):
            p = rng.choice(preds)
            body.append(Atom(p, tuple(rng.choice(var_pool)
                                      for _ in range(p.arity))))
    return CQ("q", (), tuple(body))


def with_random_head(rng: random.Random, query: CQ, arity: Optional[int] = None) -> CQ:
    """The query with answer variables drawn from its body, repeats
    allowed: `arity` of them, or one up to one more than the body has
    when None.  A body without variables gives a Boolean query."""
    body_vars = sorted(query.variables(), key=lambda v: v.name)
    if arity is None:
        arity = rng.randint(1, len(body_vars) + 1) if body_vars else 0
    head = tuple(rng.choice(body_vars) for _ in range(arity))
    return CQ(query.name, head, query.body)


def random_join_query(rng: random.Random, chase_instance: Instance,
                      rules: Sequence[TGD], name: str = "q") -> CQ:
    """A query of two to four atoms: `random_query_for` bodies put
    together over one variable pool, so they usually share a variable.
    One argument in five becomes a constant of the instance, and the
    answer variables come from `with_random_head`."""
    body: List[Atom] = []
    while len(body) < 2:
        body += random_query_for(rng, chase_instance, rules).body
    consts = sorted({t for a in chase_instance for t in a.args
                     if isinstance(t, Constant)}, key=lambda c: c.name)
    if consts:
        body = [Atom(a.predicate, tuple(rng.choice(consts) if rng.random() < 0.2 else t
                                        for t in a.args))
                for a in body]
    return with_random_head(rng, CQ(name, (), tuple(body)))


def random_containment_pair(rng: random.Random, chase_instance: Instance,
                            rules: Sequence[TGD]) -> Tuple[CQ, CQ]:
    """(q1, q2) of equal arity for a containment check.  q1 is Boolean a
    third of the time.  Half the time q2 is q1 less one atom, so that
    both verdicts show up; otherwise q2 is a fresh `random_query_for`
    body.  q2's answer tuple may repeat a variable."""
    q1 = random_join_query(rng, chase_instance, rules, "q1")
    if rng.random() < 1 / 3:
        q1 = CQ("q1", (), q1.body)
    if rng.random() < 0.5:
        body = list(q1.body)
        del body[rng.randrange(len(body))]
        if set(q1.head_vars) <= {v for a in body for v in a.variables()}:
            return q1, CQ("q2", q1.head_vars, tuple(body))
    body = random_query_for(rng, chase_instance, rules).body
    return q1, with_random_head(rng, CQ("q2", (), body), q1.arity)


# ---------------------------------------------------------------------------
# Reference parser
# ---------------------------------------------------------------------------
# The parser chasekit had before it read atoms by slices of string tokens:
# one (kind, text, offset) tuple per token, and one method call per token.
# tests/test_parser.py compares chasekit's parser with it on a corpus of
# valid and broken texts.

_TOKEN = re.compile(r"""(?:\s|%[^\n]*)*(?:
    (?P<null>_:n\d*) | (?P<word>\w+) | (?P<punct>->|:-|[(),.:=])
    | (?P<end>\Z) | (?P<other>.))""", re.VERBOSE)

Token = Tuple[str, str, int]   # kind (ident, var, null, punct, end), text, offset
T = TypeVar("T")
R = TypeVar("R", TGD, EGD, CQ)


def _tokenize(text: str) -> List[Token]:
    toks: List[Token] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        word = m.group(kind)
        at = m.start(kind)
        if kind == "word":
            kind = "var" if word[0].isupper() else "ident"
        elif kind == "null" and len(word) == 3:
            raise _error(text, at, "malformed null, expected digits after _:n")
        elif kind == "other":
            raise _error(text, at, "unexpected character %r" % word)
        toks.append((kind, word, at))
        if kind == "end":
            break
    return toks


class _Parser:
    def __init__(self, text: str, allow_nulls: bool, allow_variables: bool = True):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.allow_nulls = allow_nulls
        self.allow_variables = allow_variables
        self.arities: Dict[str, int] = {}

    def peek(self) -> Token:
        return self.toks[self.pos]

    def fail(self, message: str, at: Optional[int] = None) -> NoReturn:
        """Raise at offset `at`, by default at the next token."""
        raise _error(self.text, self.peek()[2] if at is None else at, message)

    def expect(self, want: str, what: str = "") -> Token:
        """Take the next token if its text is `want`, or its kind when `what` names it."""
        t = self.peek()
        if t[0 if what else 1] != want:
            self.fail("expected %s, found %r" % (what or repr(want), t[1] or "end of input"))
        self.pos += 1
        return t

    def comma_list(self, item: Callable[[], T], stop: Optional[str] = None) -> List[T]:
        """`item {, item}`, or no items when the next token is `stop`."""
        out: List[T] = []
        if self.peek()[1] != stop:
            out.append(item())
            while self.peek()[1] == ",":
                self.pos += 1
                out.append(item())
        return out

    def cut_short(self) -> None:
        """Fail at a next `.` that ends a statement after an atom with no
        arguments but is followed by no statement: it cut a name short."""
        if self.peek()[1] != ".":
            return
        before, after = self.toks[self.pos - 1], self.toks[self.pos + 1]
        if before[0] == "ident" and after[0] != "end" \
                and after[1] not in ("fact", "tgd", "egd", "query"):
            self.fail("'.' ends the statement after %s: names hold no '.'" % before[1])

    def built(self, at: int, make: Callable[..., R], *args) -> R:
        """`make(*args)`, a rule or query, which checks its variables when
        it is built; a ParseError at offset `at` if they break the rules."""
        try:
            return make(*args)
        except UsageError as e:
            self.fail(str(e), at)

    # -- terms and atoms ----------------------------------------------------

    def term(self) -> Term:
        kind, word, _ = self.peek()
        if kind == "ident":
            self.pos += 1
            return Constant(word)
        if kind == "var":
            if not self.allow_variables:
                self.fail("variables are not allowed here")
            self.pos += 1
            return Variable(word)
        if kind == "null":
            if not self.allow_nulls:
                self.fail("labeled nulls are not allowed here")
            index = int(word[3:])
            if index >= CANONICAL_NULL_BASE:
                self.fail("null index %d is reserved for canonical nulls" % index)
            self.pos += 1
            return LabeledNull(index)
        self.fail("expected a term")

    def atom(self) -> Atom:
        _, name, at = self.expect("ident", "a predicate name")
        args: List[Term] = []
        if self.peek()[1] == "(":
            self.pos += 1
            args = self.comma_list(self.term, ")")
            self.expect(")")
        arity = self.arities.setdefault(name, len(args))
        if arity != len(args):
            self.fail("predicate %s used with arity %d, declared with %d"
                      % (name, len(args), arity), at)
        return Atom(Predicate(name, len(args)), tuple(args))

    def variable(self) -> Variable:
        return Variable(self.expect("var", "a variable")[1])

    # -- statements ----------------------------------------------------------

    def statement(self, program: Program) -> None:
        kind, kw, _ = self.peek()
        if kind != "ident" or kw not in ("fact", "tgd", "egd", "query"):
            self.fail("expected fact, tgd, egd or query")
        self.pos += 1
        at = self.peek()[2]
        if kw == "fact":
            atom = self.atom()
            if not atom.is_ground():
                self.fail("facts must be ground", at)
            program.facts.add(atom)
        elif kw == "tgd":
            body = self.comma_list(self.atom)
            self.expect("->")
            existentials: List[Variable] = []
            if self.peek()[1] == "exists":
                self.pos += 1
                existentials = self.comma_list(self.variable)
                self.expect(":")
            head = self.comma_list(self.atom)
            rule = self.built(at, TGD, tuple(body), tuple(head), frozenset(existentials),
                              "tgd%d" % (len(program.tgds) + 1))
            body_constants = {t for a in rule.body for t in a.args if isinstance(t, Constant)}
            for t in (t for a in rule.head for t in a.args):
                if isinstance(t, Constant) and t not in body_constants:
                    self.fail("unsafe TGD %s: head constant %s missing from body"
                              % (rule.label, t.name), at)
            program.tgds.append(rule)
        elif kw == "egd":
            body = self.comma_list(self.atom)
            self.expect("->")
            lhs = self.variable()
            self.expect("=")
            rhs = self.variable()
            program.egds.append(self.built(at, EGD, tuple(body), lhs, rhs,
                                           "egd%d" % (len(program.egds) + 1)))
        else:
            _, name, name_at = self.expect("ident", "a query name")
            if any(q.name == name for q in program.queries):
                self.fail("query %s is declared twice" % name, name_at)
            head_vars: List[Variable] = []
            if self.peek()[1] == "(":
                self.pos += 1
                head_vars = self.comma_list(self.variable, ")")
                self.expect(")")
            self.expect(":-")
            body = self.comma_list(self.atom, ".")
            self.cut_short()
            program.queries.append(self.built(at, CQ, name, tuple(head_vars), tuple(body)))
        self.cut_short()
        self.expect(".")

    def program(self) -> Program:
        p = Program()
        while self.peek()[0] != "end":
            self.statement(p)
        return p


def reference_parse_program(text: str) -> Program:
    return _Parser(text, allow_nulls=False).program()


def reference_parse_instance(text: str) -> Instance:
    p = _Parser(text, allow_nulls=True, allow_variables=False)
    inst = Instance()
    while p.peek()[0] != "end":
        inst.add(p.atom())
        if p.peek()[1] in (",", "."):
            p.pos += 1
    return inst


def reference_parse_atom(text: str) -> Atom:
    p = _Parser(text, allow_nulls=True)
    atom = p.atom()
    p.expect("end", "end of input")
    return atom
