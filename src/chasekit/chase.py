"""TGD and EGD chase: triggers, fair runs with budgets, guarded chase forests.

The engine runs a fair FIFO strategy: triggers are queued in discovery
order, each found once (`rule_triggers`) and, up to merges, applied once.
Discovery is lazy: an atom a step adds is queued itself, pending behind
the triggers queued before it, and its triggers are found only when
the queue reaches it, over the atoms at or before its position, the
instance as it stood when it was added.  So the queue holds the same
triggers in the same order as if they were found at once, and a run
that a budget stops never pays for the triggers of the atoms it did not
reach.  When EGDs are interleaved they are drained to fixpoint after
every instance-changing TGD step; a run without EGDs queues the new atom
straight away.  A merge moves positions, so the drain first expands
every pending atom; it rewrites in place only the atoms and forest
labels that hold the replaced value.  After a TGD step the EGD searches
pin the new atom and the atoms the merges added (`_drain_egds`), and
keep the order of a full scan: by rule index, then by the insertion
positions of the body images, in body order.

Queued keys are not rewritten.  The loop drops a key that holds a
replaced value, and a drain that merged appends the TGD triggers
through its surviving pins.  Nothing is lost or applied twice.  A key
holds every value of its body image, so one without a replaced value
still matches.  The rewritten trigger of a dropped key maps its body
either into atoms that were there before the merge, and was found
already under its own key, since every pending atom was expanded
first; or onto an atom the merge added, never there before, since
nulls never come back, and the drain finds it through that pin.  It
may be the image of an applied trigger: each merge notes the image of
every applied trigger whose key holds the replaced value (each has a
forest node, indexed by term from the first merge on), and the loop
drops a key that is one.

A rule application is one `Trigger`: log steps, forest nodes and a
failed run's witness hold it and read its rule and bindings there.
`apply_egd` returns the step of the merge it decides, or None on a
clash, and the engine logs that step once it has rewritten the
instance; `_ends_run` says which steps stop the run.

Every applied TGD trigger contributes a node to the guarded chase
forest, parented at the (earliest node labeled with the) image of the
rule's guard.  The guards are classified when the first trigger is
about to be applied, so a run that applies none never classifies its
rules.  Applications whose atom is already present still add a
duplicate-labeled node; the restricted forest prunes those subtrees.
"""

from __future__ import annotations

import os
import resource
import sys
from collections import deque, namedtuple
from enum import Enum
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from .analysis import classify, normalize_heads
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
from .plan import Key, Plan, RulePlan


class Mode(Enum):
    OBLIVIOUS = "oblivious"
    RESTRICTED = "restricted"


class Status(Enum):
    SATURATED = "saturated"
    BUDGET_EXHAUSTED = "budget-exhausted"
    FAILED = "failed"


Hom = Dict[Variable, Term]
# the default budgets of every chase a command or a library call runs
DEFAULT_MAX_STEPS = 10_000
DEFAULT_MAX_DEPTH = 64
# the depth of the oblivious prefix a bounded answer reads
BOUNDED_DEPTH = 16


class Trigger:
    """A rule with the values of its body variables, in name order (the
    key of its `RulePlan`): one rule application, the record that steps,
    forest nodes and failure witnesses hold.  Triggers equal and hash on
    their rule and key; the plan only serves them."""

    __slots__ = ("rule", "key", "plan")

    def __init__(self, rule: Union[TGD, EGD], key: Key, plan: RulePlan):
        self.rule = rule
        self.key = key
        self.plan = plan

    @classmethod
    def of(cls, plan: RulePlan, key: Key) -> "Trigger":
        """The trigger of the planned rule under a key of it."""
        return cls(plan.rule, key, plan)

    @property
    def hom(self) -> Tuple[Tuple[Variable, Term], ...]:
        """The (variable, value) pairs, sorted by variable name."""
        return tuple(zip(self.plan.vars, self.key))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.rule == other.rule and self.key == other.key

    def __hash__(self):
        return hash((self.rule, self.key))

    def __repr__(self):
        return "Trigger(rule=%r, key=%r)" % (self.rule, self.key)


# ForestNode, TgdStep and EgdStep are built once per step: plain slotted
# classes, as cheap to build and read as a class gets, equal by identity.

class ForestNode:
    """A node of the chase forest; `trigger` is None for a database atom.
    `id` is its index in the forest, `parent` an earlier node's id."""

    __slots__ = ("id", "atom", "parent", "trigger", "depth")

    def __init__(self, id: int, atom: Atom, parent: Optional[int],
                 trigger: Optional[Trigger], depth: int):
        self.id = id
        self.atom = atom
        self.parent = parent
        self.trigger = trigger
        self.depth = depth


class TgdStep:
    __slots__ = ("atom", "trigger")

    def __init__(self, atom: Atom, trigger: Trigger):
        self.atom = atom
        self.trigger = trigger

    def render(self, show: Callable[[object], str] = repr) -> str:
        """The log line, with `show` rendering the atom and the terms,
        filled into the rule's line format (`RulePlan.step_format`)."""
        trigger = self.trigger
        return trigger.plan.step_format % (show(self.atom), *map(show, trigger.key))


class EgdStep:
    __slots__ = ("kept", "replaced", "trigger", "innocuous")

    def __init__(self, kept: Term, replaced: Term, trigger: Trigger, innocuous: bool):
        self.kept = kept
        self.replaced = replaced
        self.trigger = trigger
        self.innocuous = innocuous

    def render(self, show: Callable[[object], str] = repr) -> str:
        """The log line, with `show` rendering the terms."""
        tag = " [innocuous]" if self.innocuous else ""
        return "= %s<-%s BY %s%s" % (show(self.kept), show(self.replaced),
                                     self.trigger.rule.label, tag)


Step = Union[TgdStep, EgdStep]


class ChaseResult(namedtuple("ChaseResult", "instance forest status steps failure_witness "
                             "forest_complete tgds", defaults=(None, True, ()))):
    """One run: its instance, forest (a list of `ForestNode`), status and
    steps; the trigger that failed it, if one did; whether the forest
    holds every step; and the rules it ran: the input's, heads
    normalized.  The forest is in the order the run built it: node i
    has id i and comes after its parent, so one forward pass sees every
    parent before its children."""

    __slots__ = ()

    def step_log(self) -> str:
        return "\n".join(s.render() for s in self.steps)


# ---------------------------------------------------------------------------
# Homomorphism search over rule bodies
# ---------------------------------------------------------------------------

def body_homomorphisms(
    body: Sequence[Atom],
    instance: Instance,
    seed: Optional[Hom] = None,
) -> Iterator[Hom]:
    """All homomorphisms mapping body into the instance that extend the
    seed, in a fixed order.

    The body is compiled into a `Plan` that matches its atoms in the
    given order, each against the position-index list its known
    arguments select.  Those lists keep insertion order, so the order is
    that of a nested loop over `by_predicate`.
    """
    seed = seed or {}
    plan = Plan(body, tuple(seed))
    names, width = plan.vars, plan.width
    for match in plan.matches(instance, tuple(seed.values())):
        yield dict(zip(names, match[width:]))


def rule_triggers(
    plans: Sequence[RulePlan],
    instance: Instance,
    new_atom: Optional[Atom] = None,
    cutoff: Optional[int] = None,
) -> Iterator[Tuple[int, Key]]:
    """(rule index, trigger key) for every trigger of the planned rules.

    With `new_atom`, only the triggers whose body image uses it: each
    body atom of its predicate is pinned to it in turn, so a trigger
    that uses it twice comes up twice and callers keep the first.  A
    rule whose body lacks that predicate is skipped before its plans
    are asked for.  With a `cutoff` position, the other body atoms map
    to atoms at or before it (`Plan.matches`).  Asked for each atom as
    it is added, or with its position as the cutoff, it finds each
    trigger once, through the latest atom of its body image: a merge
    replaces a null, and nulls never come back, nor the atoms they held.
    """
    which = None if new_atom is None else new_atom.predicate
    for idx, rule_plan in enumerate(plans):
        if which is not None and which not in rule_plan.body_predicates:
            continue
        for plan, key in rule_plan.plans(instance, new_atom):
            for match in plan.matches(instance, (), new_atom, cutoff):
                yield idx, key(match)


def egd_violations(
    plans: Sequence[RulePlan],
    instance: Instance,
    new_atom: Optional[Atom] = None,
) -> Iterator[Tuple[int, Key]]:
    """(EGD index, trigger key) for every trigger of the planned EGDs that
    equates two distinct values, in `rule_triggers` order and with its
    `new_atom` pinning."""
    for idx, key in rule_triggers(plans, instance, new_atom):
        lhs, rhs = plans[idx].equated(key)
        if lhs != rhs:
            yield idx, key


def head_satisfied(plan: RulePlan, key: Key, instance: Instance) -> bool:
    """Is there an extension of a trigger key of the planned rule, on
    the frontier, mapping the head into the instance?"""
    return plan.head_holds(key, instance)


# ---------------------------------------------------------------------------
# Single chase steps
# ---------------------------------------------------------------------------

def apply_tgd(
    trigger: Trigger,
    instance: Instance,
    alloc: NullAllocator,
) -> Tuple[Instance, Atom, bool]:
    """Apply one TGD trigger in place; returns (instance, head image, added).

    Fresh nulls are drawn for the existential variables, strictly newer
    than everything in the instance.  The trigger must still match.
    """
    if not trigger.rule.single_head():
        raise UsageError("apply_tgd needs single-head rules; normalize first")
    plan, key = trigger.plan, trigger.key
    for atom in plan.body_images(key):
        if atom not in instance:
            raise UsageError("stale trigger: %r no longer matches" % (trigger,))
    new_atom = plan.head_image(key, alloc)
    added = instance.add(new_atom)
    return instance, new_atom, added


def apply_egd(trigger: Trigger, instance: Instance) -> Optional[EgdStep]:
    """Decide one EGD trigger: the step of the merge it makes, or None
    when it fails.

    Two distinct constants fail (unique name assumption); otherwise the
    term-order-greater value is to be replaced by the smaller one
    everywhere, which the caller does with
    `instance.rewrite(step.replaced, step.kept)` once it goes on, and
    then logs the step: the instance is not changed here, so a run that
    stops at this merge keeps the instance it had.  The merge is
    innocuous when every atom it rewrites becomes one already there, so
    that the instance shrinks.
    """
    a, b = trigger.plan.equated(trigger.key)
    if a == b:
        raise UsageError("EGD trigger with equal values is not applicable")
    if isinstance(a, Constant) and isinstance(b, Constant):
        return None
    kept, replaced = (a, b) if compare_terms(a, b) < 0 else (b, a)
    sub = {replaced: kept}
    innocuous = all(atom.substitute(sub) in instance for atom in instance.holders(replaced))
    return EgdStep(kept, replaced, trigger, innocuous)


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------

class MemoryBudgetExceeded(Exception):
    pass


def _rss_kb() -> int:
    """The resident set size now, in KB; the peak one where /proc is
    missing, which macOS reports in bytes and other systems in KB.  The
    peak cannot measure a run: it keeps whatever the process, or the
    process that started it, once used."""
    try:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * resource.getpagesize() // 1024
    except OSError:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return peak // 1024 if sys.platform == "darwin" else peak


def memory_guard() -> Optional[Callable[[], None]]:
    """The soft memory cap `CHASEKIT_MAX_MEMORY_MB`, as a check that
    raises MemoryBudgetExceeded once the process's RSS has grown by more
    than the cap since the check was fetched; None when the variable is
    unset.  The chase loops fetch it when they start and poll it every
    128 steps, so each run is measured by its own growth, whatever the
    process used before it."""
    cap_mb = os.environ.get("CHASEKIT_MAX_MEMORY_MB")
    if not cap_mb:
        return None
    try:
        cap_kb = int(cap_mb) * 1024
    except ValueError:
        cap_kb = 0
    if cap_kb <= 0:
        raise UsageError("CHASEKIT_MAX_MEMORY_MB must be a positive integer, not %r"
                         % cap_mb)

    start_kb = _rss_kb()

    def check():
        if _rss_kb() - start_kb > cap_kb:
            raise MemoryBudgetExceeded(
                "memory budget of %s MB exceeded" % cap_mb
            )

    return check


# a chase's mode and budgets
ChaseOptions = namedtuple("ChaseOptions", "mode max_steps max_depth",
                          defaults=(Mode.RESTRICTED, DEFAULT_MAX_STEPS, DEFAULT_MAX_DEPTH))


class _Engine:
    """The fair FIFO chase.  Subclasses change which EGD merges end the
    run (`_ends_run`); everything else is shared."""

    def __init__(self, database: Instance, tgds: Sequence[TGD], egds: Sequence[EGD],
                 opts: ChaseOptions):
        if opts.max_steps <= 0 or opts.max_depth <= 0:
            raise UsageError("chase budgets must be positive")
        self.opts = opts
        self.check_memory = memory_guard()
        self.tgds = normalize_heads(tgds)
        self.egds = list(egds)
        # compiled on first use, kept for the run
        self.plans = [RulePlan(rule) for rule in self.tgds]
        self.egd_plans = [RulePlan(rule) for rule in self.egds]
        # the forest guard of each rule, classified on first use
        self.guards: Optional[List[Optional[int]]] = None
        self.instance = database.copy()
        self.alloc = NullAllocator.after(database)
        self.steps: List[Step] = []
        self.forest: List[ForestNode] = []
        self.first_node_for: Dict[Atom, int] = {}
        self.forest_complete = True
        # (rule index, trigger key) pairs, and the atoms added after the
        # queued triggers were found, whose own are still to be found
        self.queue: deque = deque()
        self.pending: deque = deque()
        # replaced value -> kept value, per merge: a key holding one is stale
        self.replaced: Dict[Term, Term] = {}
        # term -> ids of the forest nodes whose label or trigger key
        # holds it, built at the first merge; applied keys merges rewrote
        self.nodes_by_term: Optional[Dict[Term, List[int]]] = None
        self.applied_images: Set[Tuple[RulePlan, Key]] = set()
        for atom in database:
            self._add_node(atom, parent=None, trigger=None, depth=0)

    def _record(self, step: Step) -> None:
        """Log a step; every 128th polls the memory cap."""
        self.steps.append(step)
        if self.check_memory is not None and len(self.steps) % 128 == 0:
            self.check_memory()

    # -- forest -------------------------------------------------------------

    def _add_node(self, atom, parent, trigger, depth) -> ForestNode:
        node = ForestNode(len(self.forest), atom, parent, trigger, depth)
        self.forest.append(node)
        self.first_node_for.setdefault(atom, node.id)
        if self.nodes_by_term is not None:
            self._index_node(node)
        return node

    def _index_node(self, node: ForestNode) -> None:
        for t in node.atom.args + (node.trigger.key if node.trigger else ()):
            self.nodes_by_term.setdefault(t, []).append(node.id)

    def _guard_parent(self, idx: int, key: Key) -> Optional[int]:
        if self.guards is None:
            self.guards = classify(self.tgds).forest_guards
        gi = self.guards[idx]
        if gi is None:
            self.forest_complete = False
            return None
        return self.first_node_for.get(self.plans[idx].body_image(gi, key))

    # -- trigger queue ------------------------------------------------------

    def _discover(self, new_atom: Optional[Atom] = None) -> None:
        """Queue every trigger of the instance, or queue a new atom as
        pending: its triggers are found when the queue reaches it."""
        if new_atom is None:
            self.queue.extend(rule_triggers(self.plans, self.instance))
        else:
            self.pending.append(new_atom)

    def _expand(self) -> None:
        """Queue the triggers through the next pending atom, over the
        instance as it stood when the atom was added: the atoms at or
        before its position, which no merge has moved since."""
        atom = self.pending.popleft()
        self.queue.extend(dict.fromkeys(rule_triggers(
            self.plans, self.instance, atom, self.instance.position(atom))))

    # -- EGD drain ----------------------------------------------------------

    def _first_egd_trigger(self, pins: Optional[List[Atom]] = None) -> Optional[Trigger]:
        """The EGD trigger a full scan of the instance finds first.  With
        `pins`, every EGD trigger uses one of those atoms: only the
        homomorphisms pinned to them are enumerated, and the least in
        scan order is the first."""
        plans, position = self.egd_plans, self.instance.position
        if pins is None:
            found = next(egd_violations(plans, self.instance), None)
        else:
            found = min((t for atom in pins for t in egd_violations(plans, self.instance, atom)),
                        default=None,
                        key=lambda e: (e[0], tuple(map(position, plans[e[0]].body_images(e[1])))))
        if found is None:
            return None
        idx, key = found
        return Trigger.of(plans[idx], key)

    def _ends_run(self, step: Optional[EgdStep]) -> bool:
        """Does this merge (None: a failing EGD trigger) stop the run as
        FAILED?"""
        return step is None

    def _rewrite_bookkeeping(self, replaced: Term, kept: Term) -> None:
        """Note a merge: relabel the forest nodes that hold `replaced`, and
        note the images of the applied triggers that do (module docstring)."""
        self.replaced[replaced] = kept
        if self.nodes_by_term is None:
            self.nodes_by_term = {}
            for node in self.forest:
                self._index_node(node)
        sub, first = {replaced: kept}, self.first_node_for
        nodes = sorted(set(self.nodes_by_term.pop(replaced, ())))
        for nid in nodes:
            node = self.forest[nid]
            if node.trigger is not None:  # its key under every merge so far
                key = node.trigger.key
                while not self.replaced.keys().isdisjoint(key):
                    key = tuple(self.replaced.get(t, t) for t in key)
                self.applied_images.add((node.trigger.plan, key))
            if replaced not in node.atom.args:
                continue
            if first.get(node.atom) == nid:
                del first[node.atom]
            node.atom = node.atom.substitute(sub)
            if first.get(node.atom, nid) >= nid:
                first[node.atom] = nid
        self.nodes_by_term.setdefault(kept, []).extend(nodes)

    def _drain_egds(self, new_atom: Optional[Atom] = None) -> Optional[Status]:
        """Apply EGDs to fixpoint, then queue the new TGD triggers; the
        status when the run must stop.

        `new_atom` is the atom a TGD step just added.  The drain before
        left no EGD trigger, and every TGD trigger queued or applied,
        except through it; a merge makes new ones only through the atoms
        it adds.  So the searches pin these atoms, and after merges the
        TGD triggers through the surviving pins are appended, each once
        and with no cutoff, as no atom is pending (module docstring).
        The drain that starts a run (no `new_atom`) scans the whole
        instance and leaves discovery to the caller.
        """
        pins = None if new_atom is None else [new_atom]
        merged = False
        while self.egds:
            trigger = self._first_egd_trigger(pins)
            if trigger is None:
                break
            step = apply_egd(trigger, self.instance)
            if self._ends_run(step):
                self.failure_witness = trigger
                return Status.FAILED
            if len(self.steps) >= self.opts.max_steps:
                return Status.BUDGET_EXHAUSTED
            while self.pending:  # a merge moves positions
                self._expand()
            added = self.instance.rewrite(step.replaced, step.kept)
            self._record(step)
            self._rewrite_bookkeeping(step.replaced, step.kept)
            merged = True
            if pins is not None:
                pins = [atom for atom in pins if atom in self.instance] + added
        if pins is None:
            return None
        if not merged:
            self._discover(new_atom)
        else:
            self.queue.extend(dict.fromkeys(
                entry for atom in pins for entry in rule_triggers(self.plans, self.instance, atom)))
        return None

    # -- main loop ----------------------------------------------------------

    def run(self) -> ChaseResult:
        self.failure_witness = None
        status = self._drain_egds()
        if status is None:
            self._discover()
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
        """Drain the queue.  A trigger deeper than max_depth is skipped,
        not applied, and makes the run budget-exhausted at the end."""
        restricted = self.opts.mode is Mode.RESTRICTED
        max_steps, max_depth = self.opts.max_steps, self.opts.max_depth
        plans, forest, steps = self.plans, self.forest, self.steps
        replaced, images = self.replaced, self.applied_images
        skipped = False
        while self.queue or self.pending:
            if not self.queue:
                self._expand()
                continue
            idx, key = self.queue.popleft()
            plan = plans[idx]
            if replaced and (not replaced.keys().isdisjoint(key) or (plan, key) in images):
                continue  # stale, or an applied trigger under the merges since
            if restricted and head_satisfied(plan, key, self.instance):
                continue
            # at the budget, a step that would add an atom ends the run
            if len(steps) >= max_steps and (
                    plan.rule.existentials or plan.head_image(key, None) not in self.instance):
                return Status.BUDGET_EXHAUSTED
            parent = self._guard_parent(idx, key)
            depth = 0 if parent is None else forest[parent].depth + 1
            if depth > max_depth:
                skipped = True
                continue
            trigger = Trigger.of(plan, key)
            # apply_tgd checks that the trigger still matches
            _, new_atom, added = apply_tgd(trigger, self.instance, self.alloc)
            self._add_node(new_atom, parent, trigger, depth)
            if added:
                self._record(TgdStep(new_atom, trigger))
                if not self.egds:  # no EGD to drain
                    self._discover(new_atom)
                    continue
                status = self._drain_egds(new_atom)
                if status is not None:
                    return status
        return Status.BUDGET_EXHAUSTED if skipped else Status.SATURATED


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

    A node whose atom already labels an earlier node is removed
    together with all of its descendants; afterwards each atom labels at
    most one node, and every kept node's parent is kept.  One pass, in
    the forest's parents-first order (`ChaseResult`).
    """
    removed: Set[int] = set()
    seen: Set[Atom] = set()
    kept = []
    for node in forest:
        if node.parent in removed or node.atom in seen:
            removed.add(node.id)
        else:
            seen.add(node.atom)
            kept.append(node)
    return kept


def subtree_atoms(result: ChaseResult, atom: Atom) -> Set[Atom]:
    """Atoms labeling the subtrees rooted at every node labeled `atom`.
    One pass, parents first: a node is inside when it is labeled `atom`
    or its parent is inside."""
    inside: Set[int] = set()
    out: Set[Atom] = set()
    for node in result.forest:
        if node.atom == atom or node.parent in inside:
            inside.add(node.id)
            out.add(node.atom)
    if not inside:
        raise UsageError("%r does not occur in the forest" % (atom,))
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
    with the whole body image already inside the closure.  Semi-naive:
    triggers are discovered once over the starting set and then only
    through each atom that joins.
    """
    scope = subtree_atoms(result, atom)
    for a in side_atoms:
        if a not in result.instance:
            raise UsageError("side atoms must come from the chase instance")
    closure = Instance(side_atoms)
    closure.add(atom)
    pending = Instance(a for a in scope if a not in closure)
    plans = [RulePlan(rule) for rule in result.tgds]
    work: List[Optional[Atom]] = [None]
    while work:
        for idx, key in list(rule_triggers(plans, closure, work.pop())):
            rule = plans[idx].rule
            frontier = rule.frontier()
            seed = {v: t for v, t in zip(plans[idx].vars, key) if v in frontier}
            for ext in body_homomorphisms(rule.head, pending, seed=seed):
                derived = rule.head[0].substitute(ext)
                if closure.add(derived):
                    work.append(derived)
    return closure.atom_set()
