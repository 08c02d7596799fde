"""Core data model: terms, atoms, instances, dependencies, queries.

Terms come in three kinds. Constants are the ordinary database values,
labeled nulls are the fresh placeholders invented for existential head
variables, and variables only ever appear inside rules and queries.
Constants and nulls share a total order in which every null follows
every constant; that order decides which value survives an equality
merge.

Terms, predicates and atoms are immutable tagged tuples: a constant is
`(0, name)`, a labeled null `(1, index)`, a variable `(2, name)`, a
predicate `(name, arity)` and an atom `(predicate, args)`.  They key
every dict and set of the chase, so hashing and equality are tuple's
own C slots, with no Python frame per lookup; each class subclasses a
namedtuple, whose fields are read in C too.  The kind tag keeps
`Constant("X")` and `Variable("X")` apart.  Being tuples, they also
order, iterate and serialize as tuples, and each equals the plain
tuple it holds: `Constant("a") == (0, "a")`.

`Atom(...)` and `Predicate.__call__` check the arity, for library
callers.  The parser and the chase's own constructions skip that check,
building the tuple with `tuple.__new__`, because their arity is right by
construction: the parser makes an atom's predicate from the arguments
it read, a plan template (`plan.py`) has one position per argument of
its atom, and `Atom.substitute` and `Instance.rewrite` map an atom's
arguments one for one.

Names that hold `.` are chasekit's, as nulls with a negative index
are: the grammar reads `.` only as a statement's end, and only digits
after `_:n`, so no program spells either.  Helper predicates (`v.1,
v.2, ...`) and containment's frozen constants (`c.1, c.2, ...`) live
there, apart from every program name by construction.  Library callers
must not build such names.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import count
from operator import itemgetter
from typing import (AbstractSet, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
                    Union)


class UsageError(Exception):
    """Raised when an operation is invoked outside its contract."""


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class Constant(namedtuple("Constant", "kind name")):
    """A database value: the tuple (0, name)."""

    __slots__ = ()

    def __new__(cls, name: str):
        return tuple.__new__(cls, (0, name))

    def __getnewargs__(self):
        return (self[1],)

    def __repr__(self):
        return self[1]


class LabeledNull(namedtuple("LabeledNull", "kind index")):
    """A labeled null: the tuple (1, index).  The chase numbers its nulls
    from 1 (`NullAllocator`); canonical renaming uses negative indexes
    (`canonical_null`)."""

    __slots__ = ()

    def __new__(cls, index: int):
        return tuple.__new__(cls, (1, index))

    def __getnewargs__(self):
        return (self[1],)

    def __repr__(self):
        return "_:n%d" % self[1]


class Variable(namedtuple("Variable", "kind name")):
    """A rule or query variable: the tuple (2, name)."""

    __slots__ = ()

    def __new__(cls, name: str):
        return tuple.__new__(cls, (2, name))

    def __getnewargs__(self):
        return (self[1],)

    def __repr__(self):
        return self[1]


Term = Union[Constant, LabeledNull, Variable]
_kind = itemgetter(0)


def canonical_null(i: int) -> LabeledNull:
    """The i-th canonical null (1-based), `_:n-i`: no input spells a
    negative index and no chase allocates one."""
    return LabeledNull(-i)


def term_sort_key(t: Term) -> Tuple[int, object]:
    """The total order on constants and nulls, as a sort key.

    Constants are ordered byte-lexicographically on their name and all
    of them precede every labeled null; nulls are ordered by index.
    Variables are not comparable.
    """
    if isinstance(t, Constant):
        return (0, t.name.encode("utf-8"))
    if isinstance(t, LabeledNull):
        return (1, t.index)
    raise UsageError("variables have no place in the term order")


def compare_terms(a: Term, b: Term) -> int:
    """The term order of `term_sort_key` as -1, 0 or 1."""
    ka, kb = term_sort_key(a), term_sort_key(b)
    return (ka > kb) - (ka < kb)


# ---------------------------------------------------------------------------
# Predicates and atoms
# ---------------------------------------------------------------------------

class Predicate(namedtuple("Predicate", "name arity")):
    __slots__ = ()

    def __repr__(self):
        return "%s/%d" % self

    def __call__(self, *args: Term) -> "Atom":
        return Atom(self, args)


class Atom(namedtuple("Atom", "predicate args")):
    """args is a tuple of terms, as many as the predicate's arity."""

    __slots__ = ()

    def __new__(cls, predicate: Predicate, args: Tuple[Term, ...]):
        if len(args) != predicate.arity:
            raise UsageError("%s expects %d arguments, got %d"
                             % (predicate.name, predicate.arity, len(args)))
        return tuple.__new__(cls, (predicate, args))

    def domain(self) -> Set[Term]:
        return set(self.args)

    def variables(self) -> Set[Variable]:
        return {t for t in self.args if isinstance(t, Variable)}

    def is_ground(self) -> bool:
        return all(isinstance(t, Constant) for t in self.args)

    def substitute(self, mapping: Dict[Term, Term]) -> "Atom":
        args = self.args
        return tuple.__new__(Atom, (self.predicate, tuple(map(mapping.get, args, args))))

    def __repr__(self):
        if not self.args:
            return self.predicate.name
        return "%s(%s)" % (self.predicate.name, ",".join(map(repr, self.args)))


def atoms_domain(atoms: Iterable[Atom]) -> Set[Term]:
    dom: Set[Term] = set()
    for a in atoms:
        dom.update(a.args)
    return dom


def atoms_variables(atoms: Iterable[Atom]) -> Set[Variable]:
    return {t for a in atoms for t in a.args if isinstance(t, Variable)}


def first_occurrences(atoms: Iterable[Atom]) -> List[Variable]:
    """The variables of the atoms, each once, in order of first occurrence."""
    return list(dict.fromkeys(t for a in atoms for t in a.args if isinstance(t, Variable)))


def fresh_names(base: str, used: AbstractSet[str]) -> Iterator[str]:
    """base1, base2, ..., skipping every name in `used`."""
    return (name for name in ("%s%d" % (base, i) for i in count(1)) if name not in used)


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

class Instance:
    """A set of variable-free atoms with an argument-position index.

    Atoms are kept in insertion order so that trigger enumeration and
    rendering are deterministic; `position` gives an atom's place in
    that order.  Each atom is also listed under every
    (predicate, position, term) it carries; those lists keep insertion
    order too, so each one is a subsequence of `by_predicate`.  A merge
    (`rewrite`) keeps all of these orders.
    Instances are single-writer: the chase that builds one is the only
    mutator, afterwards they are shared read-only.
    """

    def __init__(self, atoms: Iterable[Atom] = ()):
        # atom -> position, in position order unless _unsorted is set
        self._atoms: Dict[Atom, int] = {}
        self._positions = count()
        self._unsorted = False
        self._by_predicate: Dict[Predicate, List[Atom]] = {}
        # predicate -> one {term: atoms} column per argument position
        self._by_position: Dict[Predicate, Tuple[Dict[Term, List[Atom]], ...]] = {}
        self._domain: Set[Term] = set()
        for a in atoms:
            self.add(a)

    def add(self, atom: Atom) -> bool:
        """Add an atom; returns True when it was new.  Membership is
        tested first: an atom holding a variable is never in the
        instance, so only a new atom has its kind tags scanned."""
        if atom in self._atoms:
            return False
        if 2 in map(_kind, atom.args):  # a variable is (2, name)
            raise UsageError("instances hold no variables: %r" % (atom,))
        self._atoms[atom] = next(self._positions)
        self._by_predicate.setdefault(atom.predicate, []).append(atom)
        columns = self._by_position.get(atom.predicate)
        if columns is None:
            columns = self._by_position[atom.predicate] = tuple({} for _ in atom.args)
        for column, t in zip(columns, atom.args):
            column.setdefault(t, []).append(atom)
        self._domain.update(atom.args)
        return True

    def __contains__(self, atom: Atom) -> bool:
        return atom in self._atoms

    def _ordered(self) -> Dict[Atom, int]:
        """The atoms in position order; a merge may have left the dict
        out of it, and only iteration pays to sort it back."""
        if self._unsorted:
            self._atoms = dict(sorted(self._atoms.items(), key=itemgetter(1)))
            self._unsorted = False
        return self._atoms

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._ordered())

    def __len__(self) -> int:
        return len(self._atoms)

    def position(self, atom: Atom) -> int:
        """The atom's place in insertion order, as a sort key.  Positions
        grow with every atom added; a merge leaves gaps where atoms went,
        so they order the atoms but do not count them."""
        return self._atoms[atom]

    def atoms(self) -> List[Atom]:
        return list(self._ordered())

    def atom_set(self) -> Set[Atom]:
        return set(self._atoms)

    def by_predicate(self, p: Predicate) -> List[Atom]:
        return self._by_predicate.get(p, [])

    def probe(self, p: Predicate, columns: Sequence[int],
              values: Sequence[Term], cutoff: Optional[int] = None) -> List[Atom]:
        """A subsequence of by_predicate(p) holding every atom with
        values[i] at argument position columns[i]: the shortest of those
        position lists, or all atoms of p when no column is given.  With
        a `cutoff` position, only the prefix of that list up to it: the
        lists keep position order, so a bisection finds its end."""
        index = self._by_position.get(p)
        if index is None:
            return []
        best = None
        for column, value in zip(columns, values):
            atoms = index[column].get(value)
            if atoms is None:
                return []
            if best is None or len(atoms) < len(best):
                best = atoms
        found = self._by_predicate[p] if best is None else best
        if cutoff is None or self._atoms[found[-1]] <= cutoff:
            return found
        return found[:bisect_right(found, cutoff, key=self._atoms.__getitem__)]

    def distinct(self, p: Predicate, column: int) -> int:
        """The number of distinct terms at an argument position of p."""
        index = self._by_position.get(p)
        return 0 if index is None else len(index[column])

    def holders(self, term: Term) -> List[Atom]:
        """Every atom that holds the term, in position order."""
        found = dict.fromkeys(atom for columns in self._by_position.values()
                              for column in columns for atom in column.get(term, ()))
        return sorted(found, key=self._atoms.__getitem__)

    def domain(self) -> Set[Term]:
        return set(self._domain)

    def domain_view(self) -> AbstractSet[Term]:
        """dom(I) itself, where `domain` copies it: read it, never mutate it."""
        return self._domain

    def max_null_index(self) -> int:
        return max((t.index for t in self._domain if isinstance(t, LabeledNull)), default=0)

    def copy(self) -> "Instance":
        return Instance(self)

    def rewrite(self, old: Term, new: Term) -> List[Atom]:
        """Replace every occurrence of old by new, in place, and return
        the images that were not there before.  Only the atoms holding
        old change.  Each image takes the earliest position of itself
        and its preimages, the place a copy that adds every atom or its
        image in position order gives it, and goes into its lists by
        bisection on position."""
        if old == new:
            return []
        positions = self._atoms
        key = positions.__getitem__
        swap = {old: new}.get
        added = []
        for atom in self.holders(old):
            at = positions[atom]
            args = atom.args
            image = tuple.__new__(Atom, (atom.predicate, tuple(map(swap, args, args))))
            was = positions.get(image)
            place = at if was is None else min(at, was)
            columns = self._by_position[atom.predicate]
            # each list of the image, and whether the atom is in it
            lists = [(self._by_predicate[atom.predicate], True)] + [
                (column.setdefault(t, []), t_was != old)
                for column, t, t_was in zip(columns, image.args, atom.args)]
            for atoms, holds_atom in lists:
                if was is not None:
                    del atoms[bisect_left(atoms, was, key=key)]
                if holds_atom:
                    del atoms[bisect_left(atoms, at, key=key)]
                atoms.insert(bisect_left(atoms, place, key=key), image)
            del positions[atom]
            positions[image] = place
            self._unsorted = True
            if was is None:
                added.append(image)
        for columns in self._by_position.values():
            for column in columns:
                column.pop(old, None)
        if old in self._domain:
            self._domain.discard(old)
            self._domain.add(new)
        return added

    def __repr__(self):
        return "{%s}" % (", ".join(map(repr, self)))


# ---------------------------------------------------------------------------
# Fresh null allocation
# ---------------------------------------------------------------------------

class NullAllocator:
    """Monotone source of fresh labeled nulls, one per chase run.  It
    never starts below 1, which keeps chase nulls apart from the
    canonical ones (`canonical_null`)."""

    def __init__(self, start: int = 1):
        self.next_index = max(1, start)

    @classmethod
    def after(cls, *instances: Instance) -> "NullAllocator":
        """Allocator whose first null follows every null in the inputs."""
        top = 0
        for inst in instances:
            top = max(top, inst.max_null_index())
        return cls(top + 1)

    def fresh(self) -> LabeledNull:
        n = LabeledNull(self.next_index)
        self.next_index += 1
        return n


# ---------------------------------------------------------------------------
# Dependencies and queries
# ---------------------------------------------------------------------------

class _Value:
    """An immutable record whose fields are its slots, in order, and the
    arguments of its constructor: it equals and hashes as the tuple of
    them, copies and pickles by calling the constructor again, and
    refuses every attribute assignment after `__init__`, which sets each
    field through `object.__setattr__`.  A plain class, where a frozen
    dataclass would be generated at every start."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __reduce__(self):
        return type(self), self._fields()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot assign to field %r of an immutable %s"
                             % (name, type(self).__name__))

    __delattr__ = __setattr__


class TGD(_Value):
    """body -> exists Z: head, with Z the existential head variables."""

    __slots__ = ("body", "head", "existentials", "label")

    def __init__(self, body: Tuple[Atom, ...], head: Tuple[Atom, ...],
                 existentials: frozenset = frozenset(), label: str = ""):
        """Builds the rule and checks its variable rules."""
        init = object.__setattr__
        init(self, "body", body)
        init(self, "head", head)
        init(self, "existentials", existentials)
        init(self, "label", label)
        body_vars = self.universal_variables()
        in_head = set()
        # the first offender in head order, then by name: not in set order
        for v in (t for a in self.head for t in a.args if isinstance(t, Variable)):
            if v in self.existentials:
                in_head.add(v)
            elif v not in body_vars:
                raise UsageError(
                    "unsafe TGD %s: head variable %s neither in body nor existential"
                    % (self.label or repr(self), v.name)
                )
        for x in sorted(self.existentials):  # variables order by name
            if x in body_vars:
                raise UsageError(
                    "TGD %s: existential %s also occurs in the body"
                    % (self.label or repr(self), x.name)
                )
            if x not in in_head:
                raise UsageError(
                    "TGD %s: existential %s does not occur in the head"
                    % (self.label or repr(self), x.name)
                )

    def universal_variables(self) -> Set[Variable]:
        return atoms_variables(self.body)

    def head_variables(self) -> Set[Variable]:
        return atoms_variables(self.head)

    def frontier(self) -> Set[Variable]:
        return self.head_variables() - set(self.existentials)

    def is_full(self) -> bool:
        return not self.existentials

    def single_head(self) -> bool:
        return len(self.head) == 1

    def check_head_constants(self) -> None:
        """Every head constant is a body constant: the parser's rule."""
        body_consts = {t for a in self.body for t in a.args if isinstance(t, Constant)}
        for a in self.head:
            for t in a.args:
                if isinstance(t, Constant) and t not in body_consts:
                    raise UsageError(
                        "unsafe TGD %s: head constant %s missing from body"
                        % (self.label or repr(self), t.name)
                    )

    def __repr__(self):
        """The rule in program syntax, without `tgd` and the period; the
        existentials in order of first occurrence in the head."""
        b = ", ".join(map(repr, self.body))
        h = ", ".join(map(repr, self.head))
        ex = ", ".join(v.name for v in first_occurrences(self.head) if v in self.existentials)
        if ex:
            return "%s -> exists %s: %s" % (b, ex, h)
        return "%s -> %s" % (b, h)


class EGD(_Value):
    """body -> lhs = rhs."""

    __slots__ = ("body", "lhs", "rhs", "label")

    def __init__(self, body: Tuple[Atom, ...], lhs: Variable, rhs: Variable, label: str = ""):
        init = object.__setattr__
        init(self, "body", body)
        init(self, "lhs", lhs)
        init(self, "rhs", rhs)
        init(self, "label", label)
        body_vars = atoms_variables(self.body)
        for v in (self.lhs, self.rhs):
            if v not in body_vars:
                raise UsageError(
                    "EGD %s equates variable %s absent from its body"
                    % (self.label or repr(self), v.name)
                )

    def __repr__(self):
        """The rule in program syntax, without `egd` and the period."""
        b = ", ".join(map(repr, self.body))
        return "%s -> %s = %s" % (b, self.lhs.name, self.rhs.name)


class CQ(_Value):
    """Conjunctive query q(head_vars) :- body.  Arity 0 means Boolean."""

    __slots__ = ("name", "head_vars", "body")

    def __init__(self, name: str, head_vars: Tuple[Variable, ...], body: Tuple[Atom, ...]):
        init = object.__setattr__
        init(self, "name", name)
        init(self, "head_vars", head_vars)
        init(self, "body", body)
        body_vars = self.variables() if head_vars else ()  # Boolean: nothing to check
        for v in head_vars:
            if v not in body_vars:
                raise UsageError(
                    "query %s: head variable %s not in body" % (name, v.name)
                )

    @property
    def arity(self) -> int:
        return len(self.head_vars)

    def is_boolean(self) -> bool:
        return not self.head_vars

    def variables(self) -> Set[Variable]:
        return atoms_variables(self.body)

    def __repr__(self):
        """The query in program syntax, without `query` and the period."""
        h = "%s(%s)" % (self.name, ",".join(v.name for v in self.head_vars))
        return "%s :- %s" % (h, ", ".join(map(repr, self.body)))


class Program:
    """One parsed problem instance: facts, dependencies and named queries.
    Each program gets its own instance and lists when they are left out."""

    __slots__ = ("facts", "tgds", "egds", "queries")

    def __init__(self, facts: Optional[Instance] = None, tgds: Optional[List[TGD]] = None,
                 egds: Optional[List[EGD]] = None, queries: Optional[List[CQ]] = None):
        self.facts = Instance() if facts is None else facts
        self.tgds = [] if tgds is None else tgds
        self.egds = [] if egds is None else egds
        self.queries = [] if queries is None else queries

    def query(self, name: str) -> CQ:
        for q in self.queries:
            if q.name == name:
                return q
        raise UsageError("no query named %r" % name)

    def predicates(self) -> Dict[str, Predicate]:
        seen: Dict[str, Predicate] = {}

        def note(p: Predicate):
            seen.setdefault(p.name, p)

        for a in self.facts:
            note(a.predicate)
        for t in self.tgds:
            for a in t.body + t.head:
                note(a.predicate)
        for e in self.egds:
            for a in e.body:
                note(a.predicate)
        for q in self.queries:
            for a in q.body:
                note(a.predicate)
        return seen
