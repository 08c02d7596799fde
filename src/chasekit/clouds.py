"""Clouds, canonical renaming, D-isomorphism, and cloud-store blocking.

The cloud of an atom collects every chase atom whose values stay inside
the atom's own values plus the database domain; it determines the whole
chase subtree below the atom.  Canonical renaming maps an anchor's
nulls, in first-occurrence order, onto reserved nulls xi_1, xi_2, ...,
giving one representative per D-isomorphism class.  Blocked saturation
expands the guarded chase forest but stops every branch whose
(atom, cloud) pair canonicalizes to an already-stored key; because a
cloud computed against a chase prefix can still grow, the expansion is
re-run, keeping the derived ground atoms, until neither the ground
atoms nor the store keys change.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, FrozenSet, Optional, Sequence, Set, Tuple

from .analysis import classify
from .chase import body_homomorphisms
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


@dataclass(frozen=True)
class Cloud:
    anchor: Atom
    atoms: FrozenSet[Atom]

    def __len__(self):
        return len(self.atoms)


def cloud_of(instance: Instance, database: Instance, anchor: Atom) -> Cloud:
    """Atoms of the instance whose values lie in dom(anchor) + dom(database).

    Against a chase prefix this is a lower approximation of the true
    cloud; callers re-run when the instance grows.
    """
    if anchor not in instance:
        raise UsageError("anchor %r not in the instance" % (anchor,))
    allowed = anchor.domain() | database.domain()
    members = frozenset(a for a in instance if a.domain() <= allowed)
    return Cloud(anchor, members)


def cloud_size_bound(num_predicates: int, dom_size: int, max_arity: int) -> int:
    """Upper bound |R| * (|dom(D)| + w)^w on the size of any cloud."""
    return num_predicates * (dom_size + max_arity) ** max(max_arity, 1)


CanonicalPair = Tuple[Atom, FrozenSet[Atom]]


def canonicalize(anchor: Atom, atoms: Set[Atom], database: Instance) -> CanonicalPair:
    """Rename the anchor's nulls to xi_1, xi_2, ... in first-occurrence order.

    Constants map to themselves.  Every null occurring in the atom set
    must come from the anchor (database values are constants), otherwise
    the pair is not canonicalizable.
    """
    mapping: Dict[Term, Term] = {}
    counter = 0
    for t in anchor.args:
        if isinstance(t, LabeledNull) and t not in mapping:
            counter += 1
            mapping[t] = canonical_null(counter)
    allowed = set(mapping) | database.domain()
    for atom in atoms:
        for t in atom.args:
            if isinstance(t, LabeledNull) and t not in allowed:
                raise UsageError(
                    "atom set carries null %r absent from anchor and database" % (t,)
                )
    can_anchor = anchor.substitute(mapping)
    can_atoms = frozenset(a.substitute(mapping) for a in atoms)
    return can_anchor, can_atoms


def d_isomorphic(
    x: Tuple[Atom, Set[Atom]],
    y: Tuple[Atom, Set[Atom]],
    database: Instance,
) -> bool:
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
    mapping: Dict[Term, Term] = {}
    counter = 0
    for t in atom.args:
        if isinstance(t, LabeledNull) and t not in mapping:
            counter += 1
            mapping[t] = canonical_null(counter)
    return atom.substitute(mapping)


# ---------------------------------------------------------------------------
# Cloud-store blocked saturation
# ---------------------------------------------------------------------------

@dataclass
class StoreEntry:
    entry_id: int
    representative: Tuple[Atom, Cloud]


@dataclass
class CloudStore:
    entries: Dict[CanonicalPair, StoreEntry] = field(default_factory=dict)

    def __len__(self):
        return len(self.entries)

    def __contains__(self, key: CanonicalPair) -> bool:
        return key in self.entries

    def put(self, key: CanonicalPair, anchor: Atom, cloud: Cloud) -> StoreEntry:
        entry = StoreEntry(len(self.entries), (anchor, cloud))
        self.entries[key] = entry
        return entry

    def keys(self) -> Set[CanonicalPair]:
        return set(self.entries)

    def max_cloud_size(self) -> int:
        return max((len(e.representative[1]) for e in self.entries.values()), default=0)


class SaturateStatus(Enum):
    STABILIZED = "stabilized"
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass
class SaturateOptions:
    max_rounds: int = 50
    max_store_size: int = 100_000
    max_steps_per_round: int = 200_000
    force: bool = False


@dataclass
class SaturationResult:
    store: CloudStore
    ground_atoms: Instance
    status: SaturateStatus
    rounds: int


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
    the store, until one full round changes neither the ground atoms nor
    the store key set.  The ground atoms then approximate the null-free
    part of the chase, which is what ground atomic queries need.
    """
    opts = opts or SaturateOptions()
    classification = classify(tgds)
    if not classification.is_weakly_guarded_set() and not opts.force:
        raise UsageError(
            "blocked saturation needs a weakly guarded set (use force to override)"
        )
    for rule in tgds:
        if not rule.single_head():
            raise UsageError("blocked_saturate needs single-head rules; normalize first")

    preds = {a.predicate for a in database}
    for rule in tgds:
        for a in rule.body + rule.head:
            preds.add(a.predicate)
    max_arity = max((p.arity for p in preds), default=1)
    bound = cloud_size_bound(len(preds), len(database.domain()), max_arity)

    ground = Instance(database)
    prev_keys: Optional[Set[CanonicalPair]] = None
    rounds = 0
    status = SaturateStatus.BUDGET_EXHAUSTED
    store = CloudStore()
    while rounds < opts.max_rounds:
        rounds += 1
        store = CloudStore()
        ground_before = ground.atom_set()
        completed = _expand_round(database, tgds, classification, ground, store, bound, opts)
        if not completed:
            break
        keys = store.keys()
        if ground.atom_set() == ground_before and keys == prev_keys:
            status = SaturateStatus.STABILIZED
            break
        prev_keys = keys
    return SaturationResult(store, ground, status, rounds)


def _expand_round(
    database: Instance,
    tgds: Sequence[TGD],
    classification,
    ground: Instance,
    store: CloudStore,
    bound: int,
    opts: SaturateOptions,
) -> bool:
    """One blocked forest expansion; False when a budget was hit."""
    instance = Instance(ground)
    alloc = NullAllocator.after(instance)
    blocked: Set[Atom] = set()
    rule_ids = {id(r): i for i, r in enumerate(tgds)}
    guard_of: Dict[int, Optional[int]] = {
        i: classification.forest_guard_index(r) for i, r in enumerate(tgds)
    }

    def register(atom: Atom) -> None:
        """Key the atom's current cloud; an already-present key blocks it."""
        cloud = cloud_of(instance, database, atom)
        if len(cloud) > bound:
            raise RuntimeError("cloud of %r has %d atoms, above the bound %d"
                               % (atom, len(cloud), bound))
        key = canonicalize(atom, set(cloud.atoms), database)
        if key in store:
            blocked.add(atom)
        else:
            store.put(key, atom, cloud)

    queue: deque = deque()
    seen: Set[Tuple[int, Tuple]] = set()
    homs: Dict[Tuple[int, Tuple], Dict] = {}

    def enqueue(rule_idx: int, hom: Dict) -> None:
        key = (rule_idx, tuple(sorted(hom.items(), key=lambda kv: kv[0].name)))
        if key not in seen:
            seen.add(key)
            homs[key] = hom
            queue.append(key)

    def discover(new_atom: Optional[Atom]) -> None:
        for idx, rule in enumerate(tgds):
            if new_atom is None:
                for hom in body_homomorphisms(rule.body, instance):
                    enqueue(idx, hom)
                continue
            for i, atom in enumerate(rule.body):
                if atom.predicate != new_atom.predicate:
                    continue
                for hom in body_homomorphisms(rule.body, instance,
                                               pinned=(i, new_atom)):
                    enqueue(idx, hom)

    for atom in instance:
        register(atom)
    discover(None)

    steps = 0
    while queue:
        key = queue.popleft()
        rule_idx, _ = key
        rule = tgds[rule_idx]
        hom = homs.pop(key)
        gi = guard_of[rule_idx]
        if gi is not None and rule.body[gi].substitute(hom) in blocked:
            continue
        extended = dict(hom)
        for v in sorted(rule.existentials, key=lambda x: x.name):
            extended[v] = alloc.fresh()
        new_atom = rule.head[0].substitute(extended)
        if not instance.add(new_atom):
            continue
        steps += 1
        if steps > opts.max_steps_per_round or len(store) > opts.max_store_size:
            return False
        if new_atom.domain() <= database.domain():
            ground.add(new_atom)
        register(new_atom)
        discover(new_atom)
    return True
