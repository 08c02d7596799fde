"""Clouds, canonical renaming, D-isomorphism, and cloud-store blocking.

The cloud of an atom collects every chase atom whose values stay inside
the atom's own values plus the database domain; it determines the whole
chase subtree below the atom.  Canonical renaming maps an anchor's
nulls outside dom(D), in first-occurrence order, onto the canonical
nulls xi_1, xi_2, ... (`_:n-1, _:n-2, ...`, which no database and no
chase holds), giving one representative per D-isomorphism class.
Blocked saturation expands the guarded chase forest but stops every
branch whose (atom, cloud) pair canonicalizes to an already-stored key;
because a cloud computed against a chase prefix can still grow, the
expansion is re-run, keeping the derived ground atoms, until a round
derives no new ground atom.  A round depends only on the ground atoms
it starts from, so that round is already the fixpoint.

A store key is (canonical anchor, ground count, canonical null part).
The null part is the cloud's atoms with a term outside dom(D); the rest
of the cloud is every atom over dom(D) so far, which is the round's
ground atoms.  Those only grow within a round and canonical renaming
leaves them alone, so their count names them: two keys of one round are
equal exactly when the full canonical (atom, cloud) pairs are.  The null
part is found through an index from each term outside dom(D) to the
atoms carrying it, so keying an atom costs its neighbourhood, not the
instance.
"""

from __future__ import annotations

from collections import deque, namedtuple
from enum import Enum
from typing import Collection, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .analysis import classify, normalize_heads
from .chase import memory_guard, rule_triggers
from .model import (
    TGD,
    Atom,
    Instance,
    LabeledNull,
    NullAllocator,
    Term,
    UsageError,
    canonical_null,
)
from .plan import RulePlan


def cloud_of(instance: Collection[Atom], database: Instance, anchor: Atom
             ) -> FrozenSet[Atom]:
    """The cloud of the anchor: the atoms of the instance whose values
    lie in dom(anchor) + dom(database), the anchor among them.

    Against a chase prefix this is a lower approximation of the true
    cloud; callers re-run when the instance grows.
    """
    if anchor not in instance:
        raise UsageError("anchor %r not in the instance" % (anchor,))
    allowed = database.domain_view().union(anchor.args)
    return frozenset(a for a in instance if allowed.issuperset(a.args))


def cloud_size_bound(num_predicates: int, dom_size: int, max_arity: int) -> int:
    """Upper bound |R| * (|dom(D)| + w)^w on the size of any cloud."""
    return num_predicates * (dom_size + max_arity) ** max(max_arity, 1)


def canonicalize(anchor: Atom, atoms: Set[Atom], database: Instance
                 ) -> Tuple[Atom, FrozenSet[Atom]]:
    """Rename the anchor's nulls outside dom(D) to xi_1, xi_2, ... in
    first-occurrence order: `model.canonical_null(i)`, index -i, which
    no parsed input and no chase null has.

    Constants and the database's values, nulls among them, map to
    themselves, as D-isomorphism fixes dom(D).  Every other null
    occurring in the atom set must come from the anchor, otherwise the
    pair is not canonicalizable.
    """
    mapping: Dict[Term, Term] = {}
    counter = 0
    dom = database.domain_view()
    for t in anchor.args:
        if isinstance(t, LabeledNull) and t not in mapping and t not in dom:
            counter += 1
            mapping[t] = canonical_null(counter)
    for atom in atoms:
        for t in atom.args:
            if isinstance(t, LabeledNull) and t not in mapping and t not in dom:
                raise UsageError(
                    "atom set carries null %r absent from anchor and database" % (t,)
                )
    can_anchor = anchor.substitute(mapping)
    can_atoms = frozenset(a.substitute(mapping) for a in atoms)
    return can_anchor, can_atoms


# ---------------------------------------------------------------------------
# Cloud-store blocked saturation
# ---------------------------------------------------------------------------

# (canonical anchor, ground count, canonical null part); see the module docstring
StoreKey = Tuple[Atom, int, FrozenSet[Atom]]


class CloudStore:
    """The keys of one expansion, in insertion order."""

    __slots__ = ("keys",)

    def __init__(self):
        self.keys: Dict[StoreKey, None] = {}

    def __len__(self):
        return len(self.keys)

    def __contains__(self, key: StoreKey) -> bool:
        return key in self.keys

    def put(self, key: StoreKey) -> None:
        self.keys[key] = None

    def max_cloud_size(self) -> int:
        # canonical renaming is injective, so a key has its cloud's size
        return max((n + len(atoms) for _, n, atoms in self.keys), default=0)


# Per-round budgets of the blocked expansion (a round that exceeds one
# ends the saturation as budget-exhausted), and the default round budget.
MAX_STEPS_PER_ROUND = 200_000
MAX_STORE_SIZE = 100_000
DEFAULT_MAX_ROUNDS = 50


class SaturateStatus(Enum):
    STABILIZED = "stabilized"
    BUDGET_EXHAUSTED = "budget-exhausted"


SaturateOptions = namedtuple("SaturateOptions", "max_rounds force",
                             defaults=(DEFAULT_MAX_ROUNDS, False))
# the last round's store, the ground atoms of every round, and the count
SaturationResult = namedtuple("SaturationResult", "store ground_atoms status rounds")


def blocked_saturate(
    database: Instance,
    tgds: Sequence[TGD],
    opts: Optional[SaturateOptions] = None,
) -> SaturationResult:
    """Cloud-store-blocked saturation of a weakly guarded TGD set.

    Deterministic counterpart of the cloud-store construction: the
    forest is expanded breadth-first; a branch is blocked at any atom
    whose canonicalized (atom, cloud) pair already keys the store.
    Rounds repeat, keeping the accumulated ground atoms but resetting
    the store, until one full round derives no new ground atom; `rounds`
    counts the rounds run, that one included.  A round is a function of
    the ground atoms it starts from, so another round would repeat it.
    The ground atoms then approximate the null-free part of the chase,
    which is what ground atomic queries need.
    """
    opts = opts or SaturateOptions()
    if opts.max_rounds <= 0:
        raise UsageError("the round budget must be positive")
    tgds = normalize_heads(tgds)
    cls = classify(tgds)
    if not cls.is_weakly_guarded_set() and not opts.force:
        raise UsageError(
            "blocked saturation needs a weakly guarded set (use force to override)"
        )

    preds = {a.predicate for a in database}
    for rule in tgds:
        for a in rule.body + rule.head:
            preds.add(a.predicate)
    max_arity = max((p.arity for p in preds), default=1)
    bound = cloud_size_bound(len(preds), len(database.domain()), max_arity)

    ground = Instance(database)
    rounds = 0
    status = SaturateStatus.BUDGET_EXHAUSTED
    store = CloudStore()
    plans = [RulePlan(rule) for rule in tgds]
    while rounds < opts.max_rounds:
        rounds += 1
        store = CloudStore()
        known = len(ground)
        if not _expand_round(database, plans, cls.forest_guards, ground, store, bound):
            break
        if len(ground) == known:
            status = SaturateStatus.STABILIZED
            break
    return SaturationResult(store, ground, status, rounds)


def _expand_round(
    database: Instance,
    plans: Sequence[RulePlan],
    guards: Sequence[Optional[int]],
    ground: Instance,
    store: CloudStore,
    bound: int,
) -> bool:
    """One blocked forest expansion under each rule's forest guard in
    `guards`; False when a budget was hit.  The memory cap is polled
    every 128 steps.  Each trigger is found once (`rule_triggers`), so a
    discovery drops only its own repeats."""
    check_memory = memory_guard()
    instance = Instance(ground)
    dom = database.domain()
    # term outside dom(D) -> the atoms carrying it; instance starts ground
    by_term: Dict[Term, List[Atom]] = {}
    alloc = NullAllocator.after(instance)
    blocked: Set[Atom] = set()

    def register(atom: Atom) -> None:
        """Key the atom's current cloud; an already-present key blocks it."""
        count = len(ground)
        near = {a for t in atom.args if t not in dom for a in by_term[t]}
        part = cloud_of(near, database, atom) if near else frozenset()
        if count + len(part) > bound:
            raise RuntimeError("cloud of %r has %d atoms, above the bound %d"
                               % (atom, count + len(part), bound))
        can_anchor, can_part = canonicalize(atom, part, database)
        key = (can_anchor, count, can_part)
        if key in store:
            blocked.add(atom)
        else:
            store.put(key)

    for atom in instance:
        register(atom)
    queue = deque(rule_triggers(plans, instance))

    steps = 0
    while queue:
        rule_idx, key = queue.popleft()
        plan = plans[rule_idx]
        gi = guards[rule_idx]
        if gi is not None and plan.body_image(gi, key) in blocked:
            continue
        new_atom = plan.head_image(key, alloc)
        if not instance.add(new_atom):
            continue
        steps += 1
        if steps > MAX_STEPS_PER_ROUND or len(store) > MAX_STORE_SIZE:
            return False
        if check_memory is not None and steps % 128 == 0:
            check_memory()
        terms = new_atom.domain()
        if terms <= dom:
            ground.add(new_atom)
        for t in terms - dom:
            by_term.setdefault(t, []).append(new_atom)
        register(new_atom)
        queue.extend(dict.fromkeys(rule_triggers(plans, instance, new_atom)))
    return True
