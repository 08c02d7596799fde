"""Core data model: terms, atoms, instances, dependencies, queries.

Terms come in three kinds. Constants are the ordinary database values,
labeled nulls are the fresh placeholders invented for existential head
variables, and variables only ever appear inside rules and queries.
Constants and nulls share a total order in which every null follows
every constant; that order decides which value survives an equality
merge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Set, Tuple, Union


class UsageError(Exception):
    """Raised when an operation is invoked outside its contract."""


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constant:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class LabeledNull:
    index: int

    def __repr__(self):
        return "_:n%d" % self.index


@dataclass(frozen=True)
class Variable:
    name: str

    def __repr__(self):
        return self.name


Term = Union[Constant, LabeledNull, Variable]

# Canonical nulls (used for cloud canonicalization) live in a reserved
# index range so they can never collide with chase-allocated nulls.
CANONICAL_NULL_BASE = 1_000_000_000


def canonical_null(i: int) -> LabeledNull:
    """The i-th reserved canonical null (1-based)."""
    return LabeledNull(CANONICAL_NULL_BASE + i)


def compare_terms(a: Term, b: Term) -> int:
    """Total order on constants and nulls: -1, 0 or 1.

    Constants are ordered byte-lexicographically on their name and all
    of them precede every labeled null; nulls are ordered by index.
    Variables are not comparable.
    """
    if isinstance(a, Variable) or isinstance(b, Variable):
        raise UsageError("variables have no place in the term order")
    if isinstance(a, Constant):
        if isinstance(b, Constant):
            ka, kb = a.name.encode("utf-8"), b.name.encode("utf-8")
            return -1 if ka < kb else (1 if ka > kb else 0)
        return -1
    if isinstance(b, Constant):
        return 1
    return -1 if a.index < b.index else (1 if a.index > b.index else 0)


def term_sort_key(t: Term) -> Tuple[int, object]:
    """Sort key consistent with compare_terms (constants, then nulls)."""
    if isinstance(t, Constant):
        return (0, t.name.encode("utf-8"))
    if isinstance(t, LabeledNull):
        return (1, t.index)
    raise UsageError("variables have no place in the term order")


# ---------------------------------------------------------------------------
# Predicates and atoms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Predicate:
    name: str
    arity: int

    def __repr__(self):
        return "%s/%d" % (self.name, self.arity)

    def __call__(self, *args: Term) -> "Atom":
        return Atom(self, tuple(args))


@dataclass(frozen=True)
class Atom:
    predicate: Predicate
    args: Tuple[Term, ...]

    def __post_init__(self):
        if len(self.args) != self.predicate.arity:
            raise UsageError(
                "%s expects %d arguments, got %d"
                % (self.predicate.name, self.predicate.arity, len(self.args))
            )

    def domain(self) -> Set[Term]:
        return set(self.args)

    def variables(self) -> Set[Variable]:
        return {t for t in self.args if isinstance(t, Variable)}

    def nulls(self) -> Set[LabeledNull]:
        return {t for t in self.args if isinstance(t, LabeledNull)}

    def is_ground(self) -> bool:
        return all(isinstance(t, Constant) for t in self.args)

    def has_variables(self) -> bool:
        return any(isinstance(t, Variable) for t in self.args)

    def substitute(self, mapping: Dict[Term, Term]) -> "Atom":
        return Atom(self.predicate, tuple(mapping.get(t, t) for t in self.args))

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
    out: Set[Variable] = set()
    for a in atoms:
        out.update(a.variables())
    return out


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

class Instance:
    """A set of variable-free atoms with an argument-position index.

    Atoms are kept in insertion order so that trigger enumeration and
    rendering are deterministic.  Each atom is also listed under every
    (predicate, position, term) it carries; those lists keep insertion
    order too, so each one is a subsequence of `by_predicate`.
    Instances are single-writer: the chase that builds one is the only
    mutator, afterwards they are shared read-only.
    """

    def __init__(self, atoms: Iterable[Atom] = ()):
        self._atoms: Dict[Atom, None] = {}
        self._by_predicate: Dict[Predicate, List[Atom]] = {}
        # predicate -> one {term: atoms} column per argument position
        self._by_position: Dict[Predicate, Tuple[Dict[Term, List[Atom]], ...]] = {}
        self._domain: Set[Term] = set()
        for a in atoms:
            self.add(a)

    def add(self, atom: Atom) -> bool:
        """Add an atom; returns True when it was new."""
        if atom.has_variables():
            raise UsageError("instances hold no variables: %r" % (atom,))
        if atom in self._atoms:
            return False
        self._atoms[atom] = None
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

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._atoms)

    def __len__(self) -> int:
        return len(self._atoms)

    def atoms(self) -> List[Atom]:
        return list(self._atoms)

    def atom_set(self) -> Set[Atom]:
        return set(self._atoms)

    def by_predicate(self, p: Predicate) -> List[Atom]:
        return self._by_predicate.get(p, [])

    def predicates(self) -> List[Predicate]:
        return list(self._by_predicate)

    def candidates(self, pattern: Atom, hom: Dict[Variable, Term]) -> List[Atom]:
        """A subsequence of by_predicate holding every atom pattern can map
        onto under an extension of hom: the shortest position list over
        pattern's constants and hom-bound variables, if any."""
        columns = self._by_position.get(pattern.predicate)
        if columns is None:
            return []
        best = None
        for column, p in zip(columns, pattern.args):
            if isinstance(p, Variable):
                p = hom.get(p)
                if p is None:
                    continue
            atoms = column.get(p)
            if atoms is None:
                return []
            if best is None or len(atoms) < len(best):
                best = atoms
        return self._by_predicate[pattern.predicate] if best is None else best

    def domain(self) -> Set[Term]:
        return set(self._domain)

    def is_ground(self) -> bool:
        return all(a.is_ground() for a in self._atoms)

    def max_null_index(self) -> int:
        best = 0
        for t in self._domain:
            if isinstance(t, LabeledNull) and t.index < CANONICAL_NULL_BASE:
                best = max(best, t.index)
        return best

    def copy(self) -> "Instance":
        return Instance(self._atoms)

    def rewrite(self, old: Term, new: Term) -> "Instance":
        """Instance with every occurrence of old replaced by new."""
        out = Instance()
        for a in self._atoms:
            if old in a.args:
                out.add(a.substitute({old: new}))
            else:
                out.add(a)
        return out

    def __repr__(self):
        return "{%s}" % (", ".join(map(repr, self._atoms)))


# ---------------------------------------------------------------------------
# Fresh null allocation
# ---------------------------------------------------------------------------

class NullAllocator:
    """Monotone source of fresh labeled nulls, one per chase run."""

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


def fresh_null(alloc: NullAllocator) -> LabeledNull:
    return alloc.fresh()


# ---------------------------------------------------------------------------
# Dependencies and queries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TGD:
    """body -> exists Z: head, with Z the existential head variables."""

    body: Tuple[Atom, ...]
    head: Tuple[Atom, ...]
    existentials: frozenset = frozenset()
    label: str = ""

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

    def check_safety(self) -> None:
        body_vars = self.universal_variables()
        for v in self.head_variables():
            if v not in self.existentials and v not in body_vars:
                raise UsageError(
                    "unsafe TGD %s: head variable %s neither in body nor existential"
                    % (self.label or repr(self), v.name)
                )
        for x in self.existentials:
            if x in body_vars:
                raise UsageError(
                    "TGD %s: existential %s also occurs in the body"
                    % (self.label or repr(self), x.name)
                )
        body_consts = {t for a in self.body for t in a.args if isinstance(t, Constant)}
        for a in self.head:
            for t in a.args:
                if isinstance(t, Constant) and t not in body_consts:
                    raise UsageError(
                        "unsafe TGD %s: head constant %s missing from body"
                        % (self.label or repr(self), t.name)
                    )

    def __repr__(self):
        b = ", ".join(map(repr, self.body))
        h = ", ".join(map(repr, self.head))
        if self.existentials:
            ex = ",".join(sorted(v.name for v in self.existentials))
            return "%s -> exists %s: %s" % (b, ex, h)
        return "%s -> %s" % (b, h)


@dataclass(frozen=True)
class EGD:
    """body -> lhs = rhs."""

    body: Tuple[Atom, ...]
    lhs: Variable
    rhs: Variable
    label: str = ""

    def check_safety(self) -> None:
        body_vars = atoms_variables(self.body)
        for v in (self.lhs, self.rhs):
            if v not in body_vars:
                raise UsageError(
                    "EGD %s equates variable %s absent from its body"
                    % (self.label or repr(self), v.name)
                )

    def __repr__(self):
        b = ", ".join(map(repr, self.body))
        return "%s -> %s = %s" % (b, self.lhs.name, self.rhs.name)


Dependency = Union[TGD, EGD]


@dataclass(frozen=True)
class CQ:
    """Conjunctive query q(head_vars) :- body.  Arity 0 means Boolean."""

    name: str
    head_vars: Tuple[Variable, ...]
    body: Tuple[Atom, ...]

    @property
    def arity(self) -> int:
        return len(self.head_vars)

    def is_boolean(self) -> bool:
        return not self.head_vars

    def variables(self) -> Set[Variable]:
        return atoms_variables(self.body)

    def check_safety(self) -> None:
        body_vars = self.variables()
        for v in self.head_vars:
            if v not in body_vars:
                raise UsageError(
                    "query %s: head variable %s not in body" % (self.name, v.name)
                )

    def __repr__(self):
        h = "%s(%s)" % (self.name, ",".join(v.name for v in self.head_vars))
        return "%s :- %s" % (h, ", ".join(map(repr, self.body)))


@dataclass
class Program:
    """One parsed problem instance: facts, dependencies and named queries."""

    facts: Instance = field(default_factory=Instance)
    tgds: List[TGD] = field(default_factory=list)
    egds: List[EGD] = field(default_factory=list)
    queries: List[CQ] = field(default_factory=list)

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
