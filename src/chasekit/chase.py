"""TGD and EGD chase: triggers, fair runs with budgets, guarded chase forests.

The engine runs a fair FIFO strategy: triggers are queued in discovery
order and each (rule, homomorphism) pair is applied at most once.  When
EGDs are interleaved they are drained to fixpoint after every
instance-changing TGD step, and any merge rebuilds the trigger queue
from the rewritten instance rather than patching stale triggers.

Every applied TGD trigger contributes a node to the guarded chase
forest, parented at the (earliest node labeled with the) image of the
rule's guard.  Applications whose atom is already present still add a
duplicate-labeled node; the restricted forest prunes those subtrees.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from .analysis import classify
from .model import (
    EGD,
    TGD,
    Atom,
    Constant,
    Instance,
    NullAllocator,
    Term,
    UsageError,
    Variable,
    compare_terms,
)
from .parser import render_atom, render_term


class Mode(Enum):
    OBLIVIOUS = "oblivious"
    RESTRICTED = "restricted"


class Status(Enum):
    SATURATED = "saturated"
    BUDGET_EXHAUSTED = "budget-exhausted"
    FAILED = "failed"


Hom = Dict[Variable, Term]


@dataclass(frozen=True)
class Trigger:
    rule: Union[TGD, EGD]
    hom: Tuple[Tuple[Variable, Term], ...]  # sorted by variable name

    @classmethod
    def of(cls, rule, hom: Hom) -> "Trigger":
        return cls(rule, tuple(sorted(hom.items(), key=lambda kv: kv[0].name)))

    def mapping(self) -> Hom:
        return dict(self.hom)

    def image(self, atoms: Sequence[Atom]) -> List[Atom]:
        m = self.mapping()
        return [a.substitute(m) for a in atoms]


@dataclass
class ForestNode:
    id: int
    atom: Atom
    parent: Optional[int]
    rule: Optional[TGD]
    trigger: Optional[Trigger]
    generation: int
    depth: int


@dataclass
class TgdStep:
    atom: Atom
    rule: TGD
    hom: Tuple[Tuple[Variable, Term], ...]

    def render(self) -> str:
        binding = ",".join(
            "%s->%s" % (v.name, render_term(t)) for v, t in self.hom
        )
        return "+ %s BY %s WITH {%s}" % (render_atom(self.atom), self.rule.label, binding)


@dataclass
class EgdStep:
    kept: Term
    replaced: Term
    rule: EGD
    hom: Tuple[Tuple[Variable, Term], ...]
    innocuous: bool

    def render(self) -> str:
        tag = " [innocuous]" if self.innocuous else ""
        return "= %s<-%s BY %s%s" % (
            render_term(self.kept),
            render_term(self.replaced),
            self.rule.label,
            tag,
        )


Step = Union[TgdStep, EgdStep]


@dataclass
class ChaseResult:
    instance: Instance
    forest: List[ForestNode]
    status: Status
    steps: List[Step]
    failure_witness: Optional[Tuple[EGD, Trigger]] = None
    forest_complete: bool = True
    tgds: Tuple[TGD, ...] = ()

    def step_log(self) -> str:
        return "\n".join(s.render() for s in self.steps)


# ---------------------------------------------------------------------------
# Homomorphism search over rule bodies
# ---------------------------------------------------------------------------

def _match_atom(pattern: Atom, fact: Atom, hom: Hom) -> Optional[Hom]:
    """Extend hom so that pattern maps onto fact, or None."""
    if pattern.predicate != fact.predicate:
        return None
    out = hom
    extended = False
    for p, f in zip(pattern.args, fact.args):
        if isinstance(p, Variable):
            bound = out.get(p)
            if bound is None:
                if not extended:
                    out = dict(out)
                    extended = True
                out[p] = f
            elif bound != f:
                return None
        elif p != f:
            return None
    return out


def body_homomorphisms(
    body: Sequence[Atom],
    instance: Instance,
    seed: Optional[Hom] = None,
    pinned: Optional[Tuple[int, Atom]] = None,
) -> Iterator[Hom]:
    """All homomorphisms mapping body into the instance, in a fixed order.

    Body atoms are matched in declaration order, each against the
    candidates the position index gives (`Instance.candidates`).  Those
    keep insertion order, so the order is that of a nested loop over
    `by_predicate`.  With `pinned`, the body atom at the given index must
    map to the given fact (used for incremental trigger discovery); it
    is matched first and seeds the rest.
    """
    hom = dict(seed) if seed else {}
    rest = list(body)
    if pinned is not None:
        i, fact = pinned
        hom = _match_atom(body[i], fact, hom)
        if hom is None:
            return
        del rest[i]

    def extend(k: int, hom: Hom) -> Iterator[Hom]:
        if k == len(rest):
            yield hom
            return
        pattern = rest[k]
        for fact in instance.candidates(pattern, hom):
            nxt = _match_atom(pattern, fact, hom)
            if nxt is not None:
                yield from extend(k + 1, nxt)

    yield from extend(0, hom)


def head_satisfied(rule: TGD, hom: Hom, instance: Instance) -> bool:
    """Is there an extension of hom (on the frontier) mapping the head into B?"""
    frontier = rule.frontier()
    seed = {v: t for v, t in hom.items() if v in frontier}
    for _ in body_homomorphisms(rule.head, instance, seed=seed):
        return True
    return False


def find_triggers(
    rule: Union[TGD, EGD],
    instance: Instance,
    mode: Mode = Mode.OBLIVIOUS,
) -> List[Trigger]:
    """All triggers of one rule on an instance, in deterministic order."""
    if isinstance(rule, EGD):
        if mode is Mode.RESTRICTED:
            raise UsageError("restricted applicability is a TGD notion")
        out = []
        for hom in body_homomorphisms(rule.body, instance):
            if hom[rule.lhs] != hom[rule.rhs]:
                out.append(Trigger.of(rule, hom))
        return out
    out = []
    for hom in body_homomorphisms(rule.body, instance):
        if mode is Mode.RESTRICTED and head_satisfied(rule, hom, instance):
            continue
        out.append(Trigger.of(rule, hom))
    return out


# ---------------------------------------------------------------------------
# Single chase steps
# ---------------------------------------------------------------------------

def apply_tgd(
    rule: TGD,
    trigger: Trigger,
    instance: Instance,
    alloc: NullAllocator,
) -> Tuple[Instance, Atom, bool]:
    """Apply one TGD trigger in place; returns (instance, head image, added).

    Fresh nulls are drawn for the existential variables, strictly newer
    than everything in the instance.  The trigger must still match.
    """
    if not rule.single_head():
        raise UsageError("apply_tgd needs single-head rules; normalize first")
    hom = trigger.mapping()
    for atom in rule.body:
        if atom.substitute(hom) not in instance:
            raise UsageError("stale trigger: %r no longer matches" % (trigger,))
    extended = dict(hom)
    for v in sorted(rule.existentials, key=lambda x: x.name):
        extended[v] = alloc.fresh()
    new_atom = rule.head[0].substitute(extended)
    added = instance.add(new_atom)
    return instance, new_atom, added


@dataclass
class EgdOutcome:
    failed: bool
    instance: Optional[Instance] = None
    kept: Optional[Term] = None
    replaced: Optional[Term] = None
    innocuous: bool = False


def apply_egd(rule: EGD, trigger: Trigger, instance: Instance) -> EgdOutcome:
    """Apply one EGD trigger: merge the two values or report failure.

    Two distinct constants fail (unique name assumption); otherwise the
    term-order-greater value is replaced by the smaller one everywhere.
    The application is innocuous when the rewritten instance shrank.
    """
    hom = trigger.mapping()
    a, b = hom[rule.lhs], hom[rule.rhs]
    if a == b:
        raise UsageError("EGD trigger with equal values is not applicable")
    if isinstance(a, Constant) and isinstance(b, Constant):
        return EgdOutcome(failed=True)
    kept, replaced = (a, b) if compare_terms(a, b) < 0 else (b, a)
    rewritten = instance.rewrite(replaced, kept)
    return EgdOutcome(
        failed=False,
        instance=rewritten,
        kept=kept,
        replaced=replaced,
        innocuous=rewritten.atom_set() < instance.atom_set(),
    )


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------

@dataclass
class ChaseOptions:
    mode: Mode = Mode.RESTRICTED
    max_steps: int = 10_000
    max_depth: int = 64
    egd_interleave: bool = True
    memory_check: Optional[Callable[[], None]] = None


class _Engine:
    def __init__(self, database: Instance, tgds: Sequence[TGD], egds: Sequence[EGD],
                 opts: ChaseOptions):
        if opts.max_steps <= 0 or opts.max_depth <= 0:
            raise UsageError("chase budgets must be positive")
        for rule in tgds:
            if not rule.single_head():
                raise UsageError("run_chase needs single-head TGDs; normalize first")
        if not database.is_ground():
            # Frozen query bodies legitimately contain nulls; variables never.
            for a in database:
                if a.has_variables():
                    raise UsageError("chase input contains variables")
        self.opts = opts
        self.tgds = list(tgds)
        self.egds = list(egds) if opts.egd_interleave else []
        self.classification = classify(self.tgds)
        self.instance = database.copy()
        self.alloc = NullAllocator.after(database)
        self.steps: List[Step] = []
        self.forest: List[ForestNode] = []
        self.first_node_for: Dict[Atom, int] = {}
        self.forest_complete = True
        self.queue: deque = deque()
        self.queued: Set[Tuple[int, Tuple[Tuple[Variable, Term], ...]]] = set()
        self.applied: Set[Tuple[int, Tuple[Tuple[Variable, Term], ...]]] = set()
        self.rule_ids = {id(r): i for i, r in enumerate(self.tgds)}
        for atom in database:
            self._add_node(atom, parent=None, rule=None, trigger=None)

    # -- forest -------------------------------------------------------------

    def _add_node(self, atom, parent, rule, trigger) -> ForestNode:
        depth = 0 if parent is None else self.forest[parent].depth + 1
        node = ForestNode(
            id=len(self.forest),
            atom=atom,
            parent=parent,
            rule=rule,
            trigger=trigger,
            generation=len(self.forest),
            depth=depth,
        )
        self.forest.append(node)
        self.first_node_for.setdefault(atom, node.id)
        return node

    def _guard_parent(self, rule: TGD, hom: Hom) -> Optional[int]:
        gi = self.classification.forest_guard_index(rule)
        if gi is None:
            self.forest_complete = False
            return None
        guard_image = rule.body[gi].substitute(hom)
        return self.first_node_for.get(guard_image)

    # -- trigger queue ------------------------------------------------------

    def _key(self, trigger: Trigger):
        return (self.rule_ids[id(trigger.rule)], trigger.hom)

    def _enqueue(self, trigger: Trigger) -> None:
        key = self._key(trigger)
        if key in self.queued or key in self.applied:
            return
        self.queued.add(key)
        self.queue.append(trigger)

    def _discover_initial(self) -> None:
        for rule in self.tgds:
            for hom in body_homomorphisms(rule.body, self.instance):
                self._enqueue(Trigger.of(rule, hom))

    def _discover_from(self, new_atom: Atom) -> None:
        for rule in self.tgds:
            for i, atom in enumerate(rule.body):
                if atom.predicate != new_atom.predicate:
                    continue
                for hom in body_homomorphisms(
                    rule.body, self.instance, pinned=(i, new_atom)
                ):
                    self._enqueue(Trigger.of(rule, hom))

    def _rebuild_queue(self) -> None:
        self.queue.clear()
        self.queued.clear()
        self._discover_initial()

    # -- EGD drain ----------------------------------------------------------

    def _first_egd_trigger(self) -> Optional[Tuple[EGD, Trigger]]:
        for rule in self.egds:
            for hom in body_homomorphisms(rule.body, self.instance):
                if hom[rule.lhs] != hom[rule.rhs]:
                    return rule, Trigger.of(rule, hom)
        return None

    def _rewrite_bookkeeping(self, replaced: Term, kept: Term) -> None:
        sub = {replaced: kept}
        for node in self.forest:
            if replaced in node.atom.args:
                node.atom = node.atom.substitute(sub)
        self.first_node_for = {}
        for node in self.forest:
            self.first_node_for.setdefault(node.atom, node.id)
        self.applied = {
            (rid, tuple((v, sub.get(t, t)) for v, t in hom))
            for rid, hom in self.applied
        }

    def _drain_egds(self) -> Tuple[Optional[Status], bool]:
        """Apply EGDs to fixpoint; (status, merged).  A merge rebuilds
        the trigger queue, so callers must not discover from atoms that
        predate the drain."""
        if not self.egds:
            return None, False
        merged_any = False
        while True:
            found = self._first_egd_trigger()
            if found is None:
                break
            rule, trigger = found
            outcome = apply_egd(rule, trigger, self.instance)
            if outcome.failed:
                self.failure_witness = (rule, trigger)
                return Status.FAILED, merged_any
            if len(self.steps) >= self.opts.max_steps:
                return Status.BUDGET_EXHAUSTED, merged_any
            self.instance = outcome.instance
            self.steps.append(
                EgdStep(outcome.kept, outcome.replaced, rule, trigger.hom,
                        outcome.innocuous)
            )
            self._rewrite_bookkeeping(outcome.replaced, outcome.kept)
            merged_any = True
        if merged_any:
            self._rebuild_queue()
        return None, merged_any

    # -- main loop ----------------------------------------------------------

    def run(self) -> ChaseResult:
        self.failure_witness = None
        status, _ = self._drain_egds()
        if status is None:
            self._discover_initial()
            status = self._loop()
        return ChaseResult(
            instance=self.instance,
            forest=self.forest,
            status=status,
            steps=self.steps,
            failure_witness=self.failure_witness,
            forest_complete=self.forest_complete,
            tgds=tuple(self.tgds),
        )

    def _loop(self) -> Status:
        count = 0
        while self.queue:
            trigger = self.queue.popleft()
            key = self._key(trigger)
            self.queued.discard(key)
            if key in self.applied:
                continue
            rule = trigger.rule
            hom = trigger.mapping()
            stale = any(a.substitute(hom) not in self.instance for a in rule.body)
            if stale:
                # Only EGD merges invalidate triggers, and those rebuild
                # the queue, so a stale entry here is an engine bug.
                raise AssertionError("stale trigger survived a queue rebuild")
            if self.opts.mode is Mode.RESTRICTED and head_satisfied(
                rule, hom, self.instance
            ):
                self.applied.add(key)
                continue
            will_add = bool(rule.existentials) or (
                rule.head[0].substitute(hom) not in self.instance
            )
            if will_add and len(self.steps) >= self.opts.max_steps:
                return Status.BUDGET_EXHAUSTED
            parent = self._guard_parent(rule, hom)
            depth = 0 if parent is None else self.forest[parent].depth + 1
            if depth > self.opts.max_depth:
                return Status.BUDGET_EXHAUSTED
            self.applied.add(key)
            _, new_atom, added = apply_tgd(rule, trigger, self.instance, self.alloc)
            self._add_node(new_atom, parent, rule, trigger)
            if added:
                self.steps.append(TgdStep(new_atom, rule, trigger.hom))
                count += 1
                if self.opts.memory_check is not None and count % 128 == 0:
                    self.opts.memory_check()
                egd_status, merged = self._drain_egds()
                if egd_status is not None:
                    return egd_status
                if not merged:
                    # after a merge the queue was rebuilt from the
                    # rewritten instance; new_atom may be stale
                    self._discover_from(new_atom)
        return Status.SATURATED


def run_chase(
    database: Instance,
    tgds: Sequence[TGD],
    egds: Sequence[EGD] = (),
    opts: Optional[ChaseOptions] = None,
) -> ChaseResult:
    """Fair chase of a database, stopping at saturation, failure or budget."""
    return _Engine(database, tgds, egds, opts or ChaseOptions()).run()


# ---------------------------------------------------------------------------
# Forest post-processing
# ---------------------------------------------------------------------------

def restricted_gcf(forest: Sequence[ForestNode]) -> List[ForestNode]:
    """Prune every subtree rooted at a duplicate-labeled node.

    A node whose atom already labels an earlier-generation node is
    removed together with all of its descendants; afterwards each atom
    labels at most one node.
    """
    ordered = sorted(forest, key=lambda n: n.generation)
    removed: Set[int] = set()
    seen: Dict[Atom, int] = {}
    for node in ordered:
        if node.parent is not None and node.parent in removed:
            removed.add(node.id)
            continue
        if node.atom in seen:
            removed.add(node.id)
        else:
            seen[node.atom] = node.id
    return [n for n in ordered if n.id not in removed]


def forest_children(forest: Sequence[ForestNode]) -> Dict[int, List[int]]:
    kids: Dict[int, List[int]] = {n.id: [] for n in forest}
    for n in forest:
        if n.parent is not None and n.parent in kids:
            kids[n.parent].append(n.id)
    return kids


def subtree_atoms(result: ChaseResult, atom: Atom) -> Set[Atom]:
    """Atoms labeling the subtrees rooted at every node labeled `atom`."""
    by_id = {n.id: n for n in result.forest}
    kids = forest_children(result.forest)
    roots = [n.id for n in result.forest if n.atom == atom]
    if not roots:
        raise UsageError("%r does not occur in the forest" % (atom,))
    out: Set[Atom] = set()
    stack = list(roots)
    while stack:
        nid = stack.pop()
        out.add(by_id[nid].atom)
        stack.extend(kids.get(nid, ()))
    return out


def split_ground(instance: Instance, database: Instance) -> Tuple[Instance, Instance]:
    """Partition a chase result into its null-free part and the rest.

    The ground part collects the atoms over the database domain (the
    Herbrand-base fragment of the chase), the null part everything else.
    """
    dom = database.domain()
    for a in database:
        if a not in instance:
            raise UsageError("database is not contained in the instance")
    ground, nullpart = Instance(), Instance()
    for a in instance:
        if set(a.args) <= dom:
            ground.add(a)
        else:
            nullpart.add(a)
    return ground, nullpart


def subtree_closure(result: ChaseResult, atom: Atom, side_atoms: Set[Atom]) -> Set[Atom]:
    """Least set containing side_atoms and atom, closed under chase steps
    that stay inside atom's forest subtree.

    A subtree atom joins the closure as soon as some rule derives it
    with the whole body image already inside the closure.
    """
    scope = subtree_atoms(result, atom)
    for a in side_atoms:
        if a not in result.instance:
            raise UsageError("side atoms must come from the chase instance")
    closure: Set[Atom] = set(side_atoms) | {atom}
    rules = result.tgds or tuple(sorted(
        {n.rule for n in result.forest if n.rule is not None},
        key=lambda r: r.label,
    ))
    pending = set(scope) - closure
    changed = True
    while changed and pending:
        changed = False
        view = Instance(sorted(closure, key=repr))
        for candidate in sorted(pending, key=repr):
            for rule in rules:
                produced = False
                for hom in body_homomorphisms(rule.body, view):
                    frontier = {v: t for v, t in hom.items() if v in rule.frontier()}
                    for ext in body_homomorphisms(rule.head, Instance([candidate]),
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
