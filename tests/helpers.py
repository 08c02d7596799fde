"""Shared test helpers: instance generators and independent oracles.

The generators are seeded and deterministic.  Oracles are written
independently of the code paths they check: exhaustive substitution for
query evaluation, naive fixpoint scans for affected positions, vertex
deletion for hypergraph acyclicity, exhaustive coloring for the graph
gadget.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

import chasekit
from chasekit.analysis import Position, classify
from chasekit.chase import ChaseOptions, Mode, Status, run_chase
from chasekit.model import (
    CQ,
    TGD,
    Atom,
    Constant,
    Instance,
    LabeledNull,
    Predicate,
    Term,
    Variable,
)

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
# Oracles
# ---------------------------------------------------------------------------

def exhaustive_eval(instance: Instance, query: CQ) -> Set[Tuple[Term, ...]]:
    """Query evaluation by enumerating every variable substitution."""
    variables = sorted(query.variables(), key=lambda v: v.name)
    domain = sorted(instance.domain(), key=repr)
    atoms = instance.atom_set()
    out: Set[Tuple[Term, ...]] = set()
    for values in product(domain, repeat=len(variables)):
        sub = dict(zip(variables, values))
        if all(a.substitute(sub) in atoms for a in query.body):
            out.add(tuple(sub[v] for v in query.head_vars))
    return out


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
