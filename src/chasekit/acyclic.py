"""[S]-acyclicity, join forests, tree decompositions, and squid decompositions.

An atom set is [S]-acyclic when it has a join forest in which every
value outside S induces a connected subtree.  Deciding it reduces to
classical hypergraph acyclicity after deleting the S-values from each
hyperedge, and a successful GYO reduction doubles as the join-forest
constructor.  Squid decompositions split a (covered, folded) query into
a head mapped to ground chase atoms and acyclic tentacles mapped to
null-carrying atoms; the harness here verifies that split
characterization on terminating instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque
from itertools import combinations_with_replacement
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from .chase import ChaseOptions, Mode, Status, run_chase, split_ground
from .model import (
    CQ,
    TGD,
    Atom,
    Instance,
    Predicate,
    Term,
    UsageError,
    Variable,
    atoms_domain,
    atoms_variables,
)
from .query import eval_cq, homomorphisms


# ---------------------------------------------------------------------------
# Join forests via GYO reduction
# ---------------------------------------------------------------------------

@dataclass
class JoinForest:
    atoms: List[Atom]                 # node i is labeled atoms[i]
    parents: List[Optional[int]]
    hidden: FrozenSet[Term]           # the set S

    def roots(self) -> List[int]:
        return [i for i, p in enumerate(self.parents) if p is None]

    def children(self) -> Dict[int, List[int]]:
        kids: Dict[int, List[int]] = {i: [] for i in range(len(self.atoms))}
        for i, p in enumerate(self.parents):
            if p is not None:
                kids[p].append(i)
        return kids

    def neighbors(self) -> Dict[int, Set[int]]:
        adj: Dict[int, Set[int]] = {i: set() for i in range(len(self.atoms))}
        for i, p in enumerate(self.parents):
            if p is not None:
                adj[i].add(p)
                adj[p].add(i)
        return adj

    def validate(self, atom_set: Set[Atom]) -> bool:
        """Check both join-forest conditions directly."""
        if set(self.atoms) != set(atom_set):
            return False
        adj = self.neighbors()
        values = atoms_domain(self.atoms) - set(self.hidden)
        for value in values:
            carriers = {i for i, a in enumerate(self.atoms) if value in a.args}
            if not carriers:
                continue
            start = next(iter(carriers))
            seen = {start}
            stack = [start]
            while stack:
                for nb in adj[stack.pop()]:
                    if nb in carriers and nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
            if seen != carriers:
                return False
        return True


@dataclass
class TreeDecomposition:
    bags: List[FrozenSet[Term]]
    parents: List[Optional[int]]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=1) - 1

    def neighbors(self) -> Dict[int, Set[int]]:
        adj: Dict[int, Set[int]] = {i: set() for i in range(len(self.bags))}
        for i, p in enumerate(self.parents):
            if p is not None:
                adj[i].add(p)
                adj[p].add(i)
        return adj

    def validate(self, atoms: Sequence[Atom]) -> bool:
        """The three tree-decomposition conditions over the atom set."""
        values = atoms_domain(atoms)
        covered = set().union(*self.bags) if self.bags else set()
        if not values <= covered:
            return False
        for a in atoms:
            if not any(set(a.args) <= bag for bag in self.bags):
                return False
        adj = self.neighbors()
        for value in values:
            carriers = {i for i, bag in enumerate(self.bags) if value in bag}
            start = next(iter(carriers))
            seen = {start}
            stack = [start]
            while stack:
                for nb in adj[stack.pop()]:
                    if nb in carriers and nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
            if seen != carriers:
                return False
        return True


def s_join_forest(
    atoms: Sequence[Atom], hidden: Set[Term]
) -> Optional[Tuple[JoinForest, TreeDecomposition]]:
    """Decide [S]-acyclicity; on success return a join forest and the
    tree decomposition it induces (auxiliary root bag S, width <= |S|+w).

    GYO-style ear removal on the hypergraph whose hyperedge for an atom
    is its domain minus S.  Returns None when the atom set is cyclic.
    """
    items = list(dict.fromkeys(atoms))  # dedupe, keep first-seen order
    sets = [frozenset(a.domain() - hidden) for a in items]
    n = len(items)
    parent: List[Optional[int]] = [None] * n
    active = set(range(n))

    changed = True
    while changed:
        changed = False
        degree: Dict[Term, int] = {}
        for i in active:
            for v in sets[i]:
                degree[v] = degree.get(v, 0) + 1
        for i in sorted(active):
            if len(active) == 1:
                break
            shared = {v for v in sets[i] if degree[v] > 1}
            if not shared:
                # isolated: a component root with no connectivity duties
                active.discard(i)
                changed = True
                break
            witness = None
            for j in sorted(active):
                if j != i and shared <= sets[j]:
                    witness = j
                    break
            if witness is not None:
                parent[i] = witness
                active.discard(i)
                changed = True
                break
    # Remaining active items must be pairwise disjoint component roots.
    for i in active:
        for j in active:
            if i < j and sets[i] & sets[j]:
                return None

    forest = JoinForest(items, parent, frozenset(hidden))
    bags = [frozenset(hidden)] + [frozenset(a.domain() | hidden) for a in items]
    td_parent: List[Optional[int]] = [None] + [
        0 if p is None else p + 1 for p in parent
    ]
    return forest, TreeDecomposition(bags, td_parent)


def is_s_acyclic(atoms: Sequence[Atom], hidden: Set[Term]) -> bool:
    return s_join_forest(atoms, hidden) is not None


# ---------------------------------------------------------------------------
# Squid decompositions
# ---------------------------------------------------------------------------

VarMap = Dict[Variable, Variable]


@dataclass(frozen=True)
class SquidDecomposition:
    q_plus: Tuple[Atom, ...]
    h: Tuple[Tuple[Variable, Variable], ...]  # endomap, sorted by source name
    head_part: FrozenSet[Atom]                # H, over v_delta only
    tentacles: FrozenSet[Atom]                # T, the [v_delta]-acyclic rest
    v_delta: FrozenSet[Variable]

    def mapping(self) -> VarMap:
        return dict(self.h)

    def folded(self) -> FrozenSet[Atom]:
        m = self.mapping()
        return frozenset(a.substitute(dict(m)) for a in self.q_plus)


def make_squid(
    query: CQ, q_plus: Sequence[Atom], h: VarMap, v_delta: Set[Variable]
) -> SquidDecomposition:
    hmap = {v: h.get(v, v) for v in atoms_variables(q_plus)}
    folded = frozenset(a.substitute(dict(hmap)) for a in q_plus)
    head_part = frozenset(a for a in folded if a.variables() <= v_delta)
    return SquidDecomposition(
        tuple(q_plus),
        tuple(sorted(hmap.items(), key=lambda kv: kv[0].name)),
        head_part,
        folded - head_part,
        frozenset(v_delta),
    )


def validate_squid(query: CQ, squid: SquidDecomposition) -> bool:
    """Check every squid-decomposition invariant directly."""
    q_atoms = set(query.body)
    plus_atoms = set(squid.q_plus)
    if not q_atoms <= plus_atoms:
        return False
    if len(plus_atoms) > 2 * len(q_atoms):
        return False
    variables = atoms_variables(squid.q_plus)
    h = squid.mapping()
    if set(h) != variables or not set(h.values()) <= variables:
        return False
    folded = squid.folded()
    if squid.head_part | squid.tentacles != folded or squid.head_part & squid.tentacles:
        return False
    if not squid.v_delta <= {h[v] for v in h}:
        return False
    expected_head = {a for a in folded if a.variables() <= squid.v_delta}
    if squid.head_part != expected_head:
        return False
    return is_s_acyclic(sorted(squid.tentacles, key=repr), set(squid.v_delta))


@dataclass
class SquidLimits:
    max_cover_atoms: Optional[int] = None   # default 2|Q|
    max_candidates: int = 1_000_000
    truncated: bool = False


def _canonical_partition(rep: VarMap) -> FrozenSet[FrozenSet[str]]:
    classes: Dict[Variable, Set[str]] = {}
    for v, r in rep.items():
        classes.setdefault(r, set()).add(v.name)
    return frozenset(frozenset(c) for c in classes.values())


def _fold_closure(atoms: Sequence[Atom], budget: int) -> Iterator[VarMap]:
    """All variable foldings reachable by repeatedly unifying two atoms.

    Breadth-first over partitions; each class is represented by its
    name-least variable.  The identity fold comes first.
    """
    variables = sorted(atoms_variables(atoms), key=lambda v: v.name)
    identity: VarMap = {v: v for v in variables}
    seen = {_canonical_partition(identity)}
    queue = deque([identity])
    emitted = 0
    while queue:
        rep = queue.popleft()
        yield rep
        emitted += 1
        if emitted >= budget:
            return
        folded = [a.substitute(dict(rep)) for a in atoms]
        image = sorted(set(folded), key=repr)
        for a, b in combinations_with_replacement(image, 2):
            if a == b or a.predicate != b.predicate:
                continue
            merged = _unify_fold(rep, a, b)
            if merged is None:
                continue
            key = _canonical_partition(merged)
            if key not in seen:
                seen.add(key)
                queue.append(merged)


def _unify_fold(rep: VarMap, a: Atom, b: Atom) -> Optional[VarMap]:
    """Merge the variable classes forced by unifying two folded atoms."""
    parent: Dict[Variable, Variable] = dict(rep)

    def find(v: Variable) -> Variable:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    # rep is a representative map (not a union-find tree); normalize.
    for v in list(parent):
        parent.setdefault(parent[v], parent[v])
    for x, y in zip(a.args, b.args):
        if isinstance(x, Variable) and isinstance(y, Variable):
            rx, ry = find(x), find(y)
            if rx != ry:
                low, high = sorted((rx, ry), key=lambda v: v.name)
                parent[high] = low
        elif x != y:
            return None
    return {v: find(v) for v in rep}


def enumerate_squids(
    query: CQ,
    limits: Optional[SquidLimits] = None,
    predicates: Optional[Sequence[Predicate]] = None,
) -> Iterator[SquidDecomposition]:
    """Stream squid decompositions of a query, smallest covers first.

    Covers extend the query with up to |Q| fresh-variable atoms over the
    given predicates (the query's own by default); foldings come from
    iterated pairwise atom unification, fresh cover variables may
    additionally be sent to any folded variable, and every subset of the
    folded variables is tried as the ground split.  Only candidates
    passing validate_squid are yielded.  When the candidate budget runs
    out the stream stops with limits.truncated set.
    """
    limits = limits or SquidLimits()
    if limits.max_cover_atoms is None:
        limits.max_cover_atoms = 2 * len(query.body)
    preds = list(predicates) if predicates else sorted(
        {a.predicate for a in query.body}, key=lambda p: (p.name, p.arity)
    )
    max_extra = min(len(query.body), max(limits.max_cover_atoms - len(query.body), 0))
    budget = limits.max_candidates
    spent = 0

    for extra in range(0, max_extra + 1):
        for combo in combinations_with_replacement(preds, extra):
            fresh_atoms: List[Atom] = []
            fresh_vars: List[Variable] = []
            for k, p in enumerate(combo):
                args = tuple(
                    Variable("F%d_%d" % (k + 1, i + 1)) for i in range(p.arity)
                )
                fresh_vars.extend(args)
                fresh_atoms.append(Atom(p, args))
            q_plus = tuple(query.body) + tuple(fresh_atoms)
            base_vars = sorted(atoms_variables(query.body), key=lambda v: v.name)
            for fold in _fold_closure(query.body, budget):
                targets: List[List[Variable]] = []
                reps = sorted(set(fold.values()), key=lambda v: v.name)
                for fv in fresh_vars:
                    targets.append([fv] + reps)
                for assignment in _product(targets):
                    h: VarMap = dict(fold)
                    for fv, tv in zip(fresh_vars, assignment):
                        h[fv] = tv
                    folded_vars = sorted(
                        {h.get(v, v) for v in atoms_variables(q_plus)},
                        key=lambda v: v.name,
                    )
                    for v_delta in _subsets(folded_vars):
                        spent += 1
                        if spent > budget:
                            limits.truncated = True
                            return
                        squid = make_squid(query, q_plus, h, set(v_delta))
                        if validate_squid(query, squid):
                            yield squid


def _product(pools: List[List[Variable]]) -> Iterator[Tuple[Variable, ...]]:
    if not pools:
        yield ()
        return
    for head in pools[0]:
        for rest in _product(pools[1:]):
            yield (head,) + rest


def _subsets(items: List[Variable]) -> Iterator[Tuple[Variable, ...]]:
    n = len(items)
    for mask in range(2 ** n - 1, -1, -1):  # larger ground splits first
        yield tuple(items[i] for i in range(n) if mask & (1 << i))


# ---------------------------------------------------------------------------
# Squid Lemma harness
# ---------------------------------------------------------------------------

@dataclass
class SquidLemmaReport:
    holds: bool
    entailed: bool
    witness: Optional[SquidDecomposition]
    inconclusive: bool = False
    note: str = ""


def squids_from_witnesses(
    query: CQ,
    chase_instance: Instance,
    database: Instance,
    predicates: Sequence[Predicate],
) -> Iterator[Tuple[SquidDecomposition, Dict[Variable, Term]]]:
    """Decompositions induced by homomorphisms of covers into a chase.

    Mirrors the constructive direction of the split characterization:
    fold variables with equal images, take the ground-mapped ones as the
    split set, and keep the decomposition when the tentacles come out
    acyclic.  Yields (decomposition, split homomorphism theta) pairs.
    """
    dom = database.domain()
    preds = sorted(set(predicates), key=lambda p: (p.name, p.arity))
    max_extra = len(query.body)
    seen: Set[Tuple] = set()
    for extra in range(0, max_extra + 1):
        for combo in combinations_with_replacement(preds, extra):
            fresh_atoms = []
            for k, p in enumerate(combo):
                args = tuple(
                    Variable("F%d_%d" % (k + 1, i + 1)) for i in range(p.arity)
                )
                fresh_atoms.append(Atom(p, args))
            q_plus = tuple(query.body) + tuple(fresh_atoms)
            for g in homomorphisms(q_plus, chase_instance):
                by_image: Dict[Term, Variable] = {}
                fold: VarMap = {}
                for v in sorted(atoms_variables(q_plus), key=lambda x: x.name):
                    rep = by_image.setdefault(g[v], v)
                    fold[v] = rep
                v_delta = {fold[v] for v in fold if g[v] in dom}
                squid = make_squid(query, q_plus, fold, v_delta)
                key = (squid.folded(), squid.v_delta)
                if key in seen:
                    continue
                seen.add(key)
                if validate_squid(query, squid):
                    theta = {fold[v]: g[v] for v in fold}
                    yield squid, theta


def verify_squid_lemma(
    database: Instance,
    tgds: Sequence[TGD],
    query: CQ,
    max_steps: int = 10_000,
    max_depth: int = 64,
) -> SquidLemmaReport:
    """Check, on one terminating instance, that the chase entails the
    query exactly when some squid decomposition splits into ground head
    and null-part tentacles under a homomorphism."""
    if query.head_vars:
        raise UsageError("the squid harness works on Boolean queries")
    result = run_chase(
        database, tgds, (),
        ChaseOptions(mode=Mode.OBLIVIOUS, max_steps=max_steps, max_depth=max_depth),
    )
    if result.status is not Status.SATURATED:
        return SquidLemmaReport(
            holds=False, entailed=False, witness=None, inconclusive=True,
            note="chase did not saturate within budget",
        )
    entailed = bool(eval_cq(result.instance, query)) or not query.body
    ground, nullpart = split_ground(result.instance, database)

    preds = {a.predicate for a in query.body}
    for rule in tgds:
        for a in rule.body + rule.head:
            preds.add(a.predicate)

    witness = None
    for squid, theta in squids_from_witnesses(
        query, result.instance, database, sorted(preds, key=lambda p: (p.name, p.arity))
    ):
        image_head = {a.substitute(dict(theta)) for a in squid.head_part}
        image_tent = {a.substitute(dict(theta)) for a in squid.tentacles}
        if image_head <= ground.atom_set() and image_tent <= nullpart.atom_set():
            witness = squid
            break
    if not query.body:
        # Empty-body queries hold trivially on both sides.
        return SquidLemmaReport(holds=True, entailed=True, witness=None)
    found = witness is not None
    return SquidLemmaReport(holds=(entailed == found), entailed=entailed,
                            witness=witness)


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def join_forest_dot(forest: JoinForest) -> str:
    from .parser import render_atom

    lines = ["graph join_forest {"]
    for i, atom in enumerate(forest.atoms):
        lines.append('  n%d [label="%s"];' % (i, render_atom(atom)))
    for i, p in enumerate(forest.parents):
        if p is not None:
            lines.append("  n%d -- n%d;" % (p, i))
    lines.append("}")
    return "\n".join(lines)


def squid_dot(squid: SquidDecomposition) -> str:
    from .parser import render_atom

    lines = ["graph squid {"]
    atoms = sorted(squid.head_part, key=repr) + sorted(squid.tentacles, key=repr)
    ids = {a: i for i, a in enumerate(atoms)}
    for a, i in ids.items():
        shape = "box" if a in squid.head_part else "ellipse"
        lines.append('  n%d [label="%s", shape=%s];' % (i, render_atom(a), shape))
    for a, b in combinations_with_replacement(atoms, 2):
        if a != b and a.variables() & b.variables():
            lines.append("  n%d -- n%d;" % (ids[a], ids[b]))
    lines.append("}")
    return "\n".join(lines)
