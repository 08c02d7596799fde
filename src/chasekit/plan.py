"""Compiled matching plans: rule bodies and queries as slot programs.

A `Plan` compiles a conjunction of atoms, in a fixed match order, once.
A match is a flat tuple of slots: first the constants of the atoms, then
the seed variables, then every other variable in the order the match
binds it.  Each atom becomes one step, with one operation per argument:
check a slot (a constant, a seed or an earlier binding), check the
argument a variable repeated inside the atom took first, or bind a new
slot.  The checked positions are also the index columns the step probes
(`Instance.probe`), fixed at compile time; only their values come from
the slots.  Index lists keep insertion order, so the matches come out in
the order of a nested loop over `Instance.by_predicate` in match order.
With a cutoff position, every step but a pinned one probes only the
prefix of its list up to that position, so the matches are those over
the instance as it stood when the atom at that position was added, in
the same order: the chase finds a queued atom's triggers that way when
its FIFO queue reaches the atom.  A pinned fact is checked and bound
by `Plan.matches` itself, and only the other atoms go through the
recursive step generator, so a one-atom body needs none.
The matcher recurses once per atom, so a plan takes at most half of
`sys.getrecursionlimit()` atoms and rejects a longer conjunction with a
`UsageError`; raising the recursion limit raises the plan limit with it.

A `RulePlan` holds what the chase needs of one rule, which checked its
variables when it was built (`model.TGD`, `model.EGD`).  Its trigger key is
the tuple of the body variables' values in name order.  The plans of
the body, in declaration order and with each body position pinned first
to a new fact (`chase.rule_triggers` runs them), are compiled on first
use.  Templates build the body images, the head image (existentials
drawn in name order) and the equated values of an EGD from a key; an
image template has one position per argument of its atom, so it builds
the `Atom` tuple directly, without `Atom`'s arity check.  A full rule's
head image reads the key alone; a rule with existentials appends its
fresh nulls to it.  `rule_triggers` runs a rule for a new fact only when
the fact's predicate is among the rule's `body_predicates`.  A TGD
step's log line fills a `%` format the plan builds once (`step_format`),
with the rendered head image and the rendered values of the key.
"""

from __future__ import annotations

import sys
from functools import cached_property
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .model import Atom, Instance, NullAllocator, Predicate, Term, UsageError, Variable

Key = Tuple[Term, ...]
# a compiled body plan and the function taking its matches to keys
Compiled = Tuple["Plan", Callable[[tuple], Key]]


def _picker(positions: Tuple[int, ...]) -> Callable[[Sequence], tuple]:
    """The items at the given positions of a tuple, as a tuple."""
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions) if positions else itemgetter(slice(0, 0))


class Plan:
    """A conjunction of atoms compiled for matching, in the given order.

    `seed` names the variables whose values `matches` receives up
    front.  With `pinned`, the atom at that index is matched first, and
    only against the fact `matches` receives.  `vars` lists the
    variables in slot order, from slot `width` on.
    """

    def __init__(self, atoms: Sequence[Atom], seed: Sequence[Variable] = (),
                 pinned: Optional[int] = None):
        order = list(atoms)
        limit = sys.getrecursionlimit() // 2
        if len(order) > limit:
            raise UsageError("a body of %d atoms is over the limit of %d atoms, "
                             "half the recursion limit" % (len(order), limit))
        if pinned:
            order.insert(0, order.pop(pinned))
        # variables are keyed by name: their hash is computed in Python
        consts: Dict[Term, int] = {}
        for atom in order:
            for t in atom.args:
                if not isinstance(t, Variable):
                    consts.setdefault(t, len(consts))
        self.width = width = len(consts)
        self.consts = tuple(consts)
        slot_of = {v.name: width + i for i, v in enumerate(seed)}
        variables = list(seed)
        self.steps: List[tuple] = []
        for atom in order:
            known = []     # positions checked against a slot
            sources = []   # ... and those slots
            first = {}     # new variable -> the position binding it
            repeats = []   # (first, later) positions of a new variable
            for p, t in enumerate(atom.args):
                if isinstance(t, Variable):
                    if t.name in first:
                        repeats.append((first[t.name], p))
                        continue
                    slot = slot_of.get(t.name)
                    if slot is None:
                        first[t.name] = p
                        slot_of[t.name] = width + len(variables)
                        variables.append(t)
                        continue
                else:
                    slot = consts[t]
                known.append(p)
                sources.append(slot)
            same = (_picker(tuple(a for a, _ in repeats)),
                    _picker(tuple(b for _, b in repeats))) if repeats else None
            self.steps.append((atom.predicate, tuple(known), _picker(tuple(sources)),
                               _picker(tuple(known)), same, _picker(tuple(first.values()))))
        self.vars: Tuple[Variable, ...] = tuple(variables)

    def matches(self, instance: Instance, seed: Sequence[Term] = (),
                fact: Optional[Atom] = None,
                cutoff: Optional[int] = None) -> Iterator[tuple]:
        """Every match into the instance, as a slot tuple, extending the
        seed values (in the order of the plan's `seed`).  A `fact` is
        checked and bound here, as the first atom's only candidate, and
        the rest of the atoms are matched into the instance.  With a
        `cutoff` position, every atom but the pinned fact sits at or
        before it."""
        start = self.consts + tuple(seed)
        if not self.steps:
            return iter((start,))
        if fact is None:
            return self._step(instance, 0, start, cutoff)
        predicate, _, wanted, checked, same, bind = self.steps[0]
        args = fact.args
        if fact.predicate != predicate or checked(args) != wanted(start) or (
                same is not None and same[0](args) != same[1](args)):
            return iter(())
        hom = start + bind(args)
        return iter((hom,)) if len(self.steps) == 1 else self._step(instance, 1, hom, cutoff)

    def _step(self, instance: Instance, k: int, hom: tuple,
              cutoff: Optional[int]) -> Iterator[tuple]:
        predicate, columns, wanted, checked, same, bind = self.steps[k]
        want = wanted(hom)
        k += 1
        last = k == len(self.steps)
        for f in instance.probe(predicate, columns, want, cutoff):
            args = f.args
            if checked(args) != want:
                continue
            if same is not None and same[0](args) != same[1](args):
                continue
            if last:
                yield hom + bind(args)
            else:
                yield from self._step(instance, k, hom + bind(args), cutoff)


def _template(atom: Atom, layout: Dict[str, int]) -> Callable[[tuple], Atom]:
    """The atom's image under a tuple of values, the variable named n at
    position layout[n]; other arguments are kept as they are."""
    kept: List[Term] = []
    positions = []
    for t in atom.args:
        at = layout.get(t.name) if isinstance(t, Variable) else None
        if at is None:
            at = len(layout) + len(kept)
            kept.append(t)
        positions.append(at)
    pick, predicate, extra = _picker(tuple(positions)), atom.predicate, tuple(kept)
    new = tuple.__new__  # one position per argument: no arity check needed
    if extra:
        return lambda values: new(Atom, (predicate, pick(values + extra)))
    return lambda values: new(Atom, (predicate, pick(values)))


class RulePlan:
    """One TGD or EGD compiled for trigger discovery and application.

    Nothing is compiled before it is used: the body plans, the head
    check, the templates and a TGD's step-line format each on first use.
    """

    def __init__(self, rule):
        self.rule = rule
        self.body_predicates = frozenset(atom.predicate for atom in rule.body)
        named = {t.name: t for atom in rule.body for t in atom.args if isinstance(t, Variable)}
        # the body variables in name order: the layout of a trigger key
        self.vars: Tuple[Variable, ...] = tuple(named[n] for n in sorted(named))
        self._index = {v.name: i for i, v in enumerate(self.vars)}
        self._plans: Dict[int, Compiled] = {}
        # None (declaration order) or a predicate -> the plans for it
        self._ready: Dict[Optional[Predicate], List[Compiled]] = {}
        self._body: Optional[List[Callable[[tuple], Atom]]] = None
        self._head: Optional[Tuple[int, Callable[[tuple], Atom]]] = None
        self._head_check: Optional[Tuple[Callable[[Key], tuple], Plan]] = None
        self._equated: Optional[Callable[[Key], Tuple[Term, Term]]] = None

    def plans(self, instance: Instance,
              new_atom: Optional[Atom] = None) -> List[Compiled]:
        """The plans whose matches give the rule's triggers, each with the
        function taking a match to its key: the declaration-order plan,
        or, with `new_atom`, one plan per body position of its predicate,
        that position pinned first.  A plan is compiled on first use, but
        not while another body atom's predicate has no atom in the
        instance: the rule has no trigger then."""
        which = None if new_atom is None else new_atom.predicate
        ready = self._ready.get(which)
        if ready is not None:
            return ready
        body = self.rule.body
        if new_atom is None:
            positions: Sequence[int] = (0,)
        else:
            positions = [i for i, atom in enumerate(body) if atom.predicate == which]
        out = []
        for i in positions:
            found = self._plans.get(i)
            if found is None:
                pinned = -1 if new_atom is None else i
                if any(j != pinned and not instance.by_predicate(atom.predicate)
                       for j, atom in enumerate(body)):
                    return []
                # pinning the first atom keeps the declaration order
                plan = Plan(body, pinned=i)
                slot = {v.name: plan.width + k for k, v in enumerate(plan.vars)}
                found = (plan, _picker(tuple(slot[v.name] for v in self.vars)))
                self._plans[i] = found
            out.append(found)
        self._ready[which] = out
        return out

    def body_image(self, i: int, key: Key) -> Atom:
        return self.body_images(key)[i] if self._body is None else self._body[i](key)

    def body_images(self, key: Key) -> List[Atom]:
        if self._body is None:
            self._body = [_template(atom, self._index) for atom in self.rule.body]
        return [image(key) for image in self._body]

    def head_image(self, key: Key, alloc: Optional[NullAllocator]) -> Atom:
        """The (first) head atom under the key, with fresh nulls for the
        existential variables, drawn in variable-name order (a full rule
        needs no allocator)."""
        if self._head is None:
            layout = dict(self._index)
            for v in sorted(self.rule.existentials, key=lambda v: v.name):
                layout[v.name] = len(layout)
            self._head = (len(layout) - len(self.vars),
                          _template(self.rule.head[0], layout))
        fresh, image = self._head
        if not fresh:
            return image(key)
        return image(key + tuple(alloc.fresh() for _ in range(fresh)))

    @cached_property
    def step_format(self) -> str:
        """The `%` format of a TGD step's log line: the added atom, then
        the key's values, each rendered (`chase.TgdStep.render`)."""
        binding = ",".join(v.name.replace("%", "%%") + "->%s" for v in self.vars)
        return "+ %s BY " + self.rule.label.replace("%", "%%") + " WITH {" + binding + "}"

    def head_holds(self, key: Key, instance: Instance) -> bool:
        """Does some extension of the key on the frontier map the head
        into the instance?  For a full rule, is its head image there?"""
        if not self.rule.existentials:
            return self.head_image(key, None) in instance
        if self._head_check is None:
            frontier = {v.name for v in self.rule.frontier()}
            seed = [v for v in self.vars if v.name in frontier]
            self._head_check = (_picker(tuple(self._index[v.name] for v in seed)),
                                Plan(self.rule.head, seed=seed))
        seed_of, plan = self._head_check
        for _ in plan.matches(instance, seed_of(key)):
            return True
        return False

    def equated(self, key: Key) -> Tuple[Term, Term]:
        """An EGD's two equated values under the key."""
        if self._equated is None:
            self._equated = itemgetter(self._index[self.rule.lhs.name],
                                       self._index[self.rule.rhs.name])
        return self._equated(key)
