"""Static analysis of TGD sets: affected positions, guardedness, head normalization.

A position p[k] is affected when some chase can place a labeled null
there: either an existential head variable sits at it, or a head
variable sits at it whose body occurrences are all at affected
positions.  Guards cover all universal variables of a rule; weak guards
only need to cover the variables that can ever bind a null, i.e. those
whose body occurrences are all at affected positions.  Each rule's
body is read once, into a map from its variables to their positions,
and the fixpoint is a worklist, linear in the size of the rules.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from typing import Collection, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .model import TGD, Atom, Predicate, Variable, first_occurrences, fresh_names


class Position(namedtuple("Position", "predicate slot")):
    """Argument place p[k], k 1-based: the tuple (predicate, slot)."""

    __slots__ = ()

    def __new__(cls, predicate: Predicate, slot: int):
        if not (1 <= slot <= max(predicate.arity, 1)):
            raise ValueError("slot %d out of range for %r" % (slot, predicate))
        return tuple.__new__(cls, (predicate, slot))

    def __repr__(self):
        return "%s[%d]" % (self.predicate.name, self.slot)


class RuleClass(Enum):
    FULL = "full"
    LINEAR = "linear"
    GUARDED = "guarded"
    WEAKLY_GUARDED = "weakly-guarded"
    UNGUARDED = "unguarded"


# Weakest first, for computing the overall class of a set.
_WEAKNESS = [
    RuleClass.UNGUARDED,
    RuleClass.WEAKLY_GUARDED,
    RuleClass.GUARDED,
    RuleClass.LINEAR,
    RuleClass.FULL,
]


class Classification(namedtuple("Classification", "per_rule overall affected forest_guards")):
    """Each per-rule fact is a list in rule order: `per_rule` the
    `RuleClass`es and `forest_guards` the body index whose image parents
    the derived atom in the chase forest, the guard or else the weak
    guard.  A rule has a full guard exactly when it is linear or
    guarded, and its forest guard is then that guard.  `affected` is the
    set of affected `Position`s."""

    __slots__ = ()

    def is_weakly_guarded_set(self) -> bool:
        return self.overall is not RuleClass.UNGUARDED


# positions are plain (predicate, slot) tuples inside, Positions outside
Occurrences = Dict[Variable, List[Tuple[Predicate, int]]]


def _occurrences(rule: TGD) -> Occurrences:
    """Each body variable's body positions."""
    occ: Occurrences = {}
    for atom in rule.body:
        for slot, t in enumerate(atom.args, 1):
            if isinstance(t, Variable):
                occ.setdefault(t, []).append((atom.predicate, slot))
    return occ


def _affected(rules: Sequence[TGD], occurrences: Sequence[Occurrences]) -> Set[Position]:
    """Least fixpoint of the affected-position rules, by a worklist; each
    head atom of a multi-atom head counts on its own."""
    work = []
    # body position -> [count of body occurrences not yet affected, head
    # positions] of each variable occurring there, once per occurrence
    waiting: Dict[tuple, List[list]] = {}
    for rule, occ in zip(rules, occurrences):
        heads: Occurrences = {}
        for atom in rule.head:
            for slot, t in enumerate(atom.args, 1):
                pos = (atom.predicate, slot)
                if t in rule.existentials:
                    work.append(pos)
                elif t in occ:
                    heads.setdefault(t, []).append(pos)
        for v, targets in heads.items():
            waiter = [len(occ[v]), targets]
            for pos in occ[v]:
                waiting.setdefault(pos, []).append(waiter)
    affected = set()
    while work:
        pos = work.pop()
        affected.add(pos)
        for waiter in waiting.pop(pos, ()):
            waiter[0] -= 1
            if not waiter[0]:
                work.extend(waiter[1])
    return {tuple.__new__(Position, pos) for pos in affected}


def affected_positions(rules: Sequence[TGD]) -> Set[Position]:
    """Least fixpoint of the affected-position rules over a TGD set."""
    return _affected(rules, [_occurrences(rule) for rule in rules])


def _first_cover(body: Sequence[Atom], need: Collection[Variable]) -> Optional[int]:
    """Index of the first body atom holding every variable of `need`."""
    for i, atom in enumerate(body):
        if need <= set(atom.args):
            return i
    return None


def _weak_guard(rule: TGD, occ: Occurrences, affected: Set[Position]) -> Optional[int]:
    """Index of the first body atom holding every variable that can bind a null."""
    need = {v for v, slots in occ.items() if affected.issuperset(slots)}
    return _first_cover(rule.body, need)


def weak_guard_index(rule: TGD, affected: Set[Position]) -> Optional[int]:
    """Index of the first body atom covering all null-capable variables."""
    return _weak_guard(rule, _occurrences(rule), affected)


def classify(rules: Sequence[TGD]) -> Classification:
    """Per-rule and overall guardedness of a TGD set.

    Per rule: Linear for single-body-atom rules, Guarded when a full
    guard exists, WeaklyGuarded when only a weak guard does, Unguarded
    otherwise.  The guard is always the first qualifying body atom in
    declaration order.  The overall label is the weakest per-rule class,
    except that a set without any existential variable is reported as
    Full (its chase always terminates regardless of guards).
    """
    occurrences = [_occurrences(rule) for rule in rules]
    affected = _affected(rules, occurrences)
    per_rule: List[RuleClass] = []
    forest_guards: List[Optional[int]] = []
    for rule, occ in zip(rules, occurrences):
        g = _first_cover(rule.body, occ.keys())
        if g is not None:  # a guard covers the weak guard's variables too
            per_rule.append(RuleClass.LINEAR if len(rule.body) == 1 else RuleClass.GUARDED)
        else:
            g = _weak_guard(rule, occ, affected)
            per_rule.append(RuleClass.UNGUARDED if g is None else RuleClass.WEAKLY_GUARDED)
        forest_guards.append(g)
    if not rules:
        overall = RuleClass.FULL
    elif RuleClass.UNGUARDED not in per_rule and all(r.is_full() for r in rules):
        overall = RuleClass.FULL
    else:
        overall = min(per_rule, key=_WEAKNESS.index)
    return Classification(per_rule, overall, affected, forest_guards)


# ---------------------------------------------------------------------------
# Head normalization
# ---------------------------------------------------------------------------

def normalize_heads(rules: Sequence[TGD]) -> List[TGD]:
    """Rewrite every multi-atom head into single-atom heads.

    Heads without existentials split into one rule per head atom over
    the same body.  Heads with existentials route through a fresh
    predicate v.<i> collecting all head variables: body -> v(Y), then
    v(Y) -> head_i for each head atom.  Certain answers over the
    original predicates are preserved.  No program spells a name with
    `.` (see `model`), so the helpers skip only the rules' predicates,
    which may hold an earlier normalization's helpers.  A chase and a
    blocked saturation normalize the rules they start from.
    """
    names: Optional[Iterator[str]] = None
    out: List[TGD] = []
    for rule in rules:
        if len(rule.head) == 1:
            out.append(rule)
            continue
        if not rule.existentials:
            for k, atom in enumerate(rule.head):
                out.append(
                    TGD(rule.body, (atom,), frozenset(),
                        label="%s.%d" % (rule.label or "tgd", k + 1))
                )
            continue
        if names is None:  # the used names are gathered when the first helper is made
            names = fresh_names("v.", {a.predicate.name for r in rules
                                       for a in r.body + r.head})
        head_vars = first_occurrences(rule.head)
        aux = Predicate(next(names), len(head_vars))
        aux_atom = Atom(aux, tuple(head_vars))
        out.append(
            TGD(rule.body, (aux_atom,), rule.existentials,
                label="%s.0" % (rule.label or "tgd"))
        )
        for k, atom in enumerate(rule.head):
            out.append(
                TGD((aux_atom,), (atom,), frozenset(),
                    label="%s.%d" % (rule.label or "tgd", k + 1))
            )
    return out
