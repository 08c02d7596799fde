"""Reference answers computed without chasekit.

Programs arrive in the generators' own form (see `gen.py`): an atom is a
tuple ``(predicate, arg, ...)`` of strings, variables start uppercase,
constants lowercase.  Labeled nulls invented here are ints, so an atom
is ground exactly when every argument is a ``str``.

The chase below is a breadth-first oblivious chase by levels.  It is
slow and simple on purpose: it shares no code with the engine it checks.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

Atom = Tuple
Hom = Dict[str, object]


def is_var(t) -> bool:
    return isinstance(t, str) and t[:1].isupper()


def is_const(t) -> bool:
    return isinstance(t, str) and not t[:1].isupper()


def matches(body: Sequence[Atom], index: Dict[str, List[Atom]]) -> Iterator[Hom]:
    """Every variable binding mapping all body atoms into the index."""

    def extend(i: int, hom: Hom) -> Iterator[Hom]:
        if i == len(body):
            yield hom
            return
        pattern = body[i]
        for fact in index.get(pattern[0], ()):
            if len(fact) != len(pattern):
                continue
            out = dict(hom)
            for p, f in zip(pattern[1:], fact[1:]):
                if is_var(p):
                    if out.setdefault(p, f) != f:
                        break
                elif p != f:
                    break
            else:
                yield from extend(i + 1, out)

    yield from extend(0, {})


def index_atoms(atoms: Iterable[Atom]) -> Dict[str, List[Atom]]:
    index: Dict[str, List[Atom]] = {}
    for a in atoms:
        index.setdefault(a[0], []).append(a)
    return index


def _shape(atom: Atom) -> Atom:
    """The atom with its nulls renamed by first occurrence."""
    names: Dict[int, int] = {}
    return tuple(names.setdefault(t, -len(names) - 1) if isinstance(t, int) else t
                 for t in atom)


class Model:
    """Result of `chase`: the atoms and whether they are the whole chase."""

    def __init__(self, atoms: Set[Atom], complete: bool, stable: bool):
        self.atoms = atoms
        self.complete = complete  # fixpoint reached: the model is universal
        self.stable = stable      # ground part settled (complete implies it)

    def ground(self) -> Set[Atom]:
        return {a for a in self.atoms if all(isinstance(t, str) for t in a[1:])}

    def answers(self, head: Sequence[str], body: Sequence[Atom]) -> Set[Tuple[str, ...]]:
        """Constant rows of a query over the model."""
        rows = set()
        for hom in matches(body, index_atoms(self.atoms)):
            row = tuple(hom[v] for v in head)
            if all(isinstance(t, str) for t in row):
                rows.add(row)
        return rows


def chase(facts: Iterable[Atom], tgds: Sequence[Tuple], terminates: bool,
          max_levels: int = 40, max_atoms: int = 20_000) -> Model:
    """Oblivious chase level by level; each (rule, body binding) fires once.

    Stops at a fixpoint (complete), or, for a set not known to terminate,
    once neither the ground atoms nor the set of atom shapes changed for
    two levels (stable), or at a budget (neither).  The two-quiet-levels
    rule is the test the repository's own saturation oracle applies to
    nonterminating sets.
    """
    atoms: Set[Atom] = set(facts)
    fired: Set[Tuple] = set()
    next_null = 1
    ground = {a for a in atoms if all(isinstance(t, str) for t in a[1:])}
    shapes = {_shape(a) for a in atoms}
    quiet = 0
    for _ in range(max_levels):
        index = index_atoms(sorted(atoms, key=repr))
        new: List[Atom] = []
        for ri, (body, head, exist) in enumerate(tgds):
            for hom in matches(body, index):
                key = (ri, tuple(sorted(hom.items())))
                if key in fired:
                    continue
                fired.add(key)
                full = dict(hom)
                for z in exist:
                    full[z] = next_null
                    next_null += 1
                new.append(tuple([head[0]] + [full.get(t, t) for t in head[1:]]))
        fresh = [a for a in new if a not in atoms]
        if not fresh:
            # every trigger over these atoms has fired: a fixpoint
            return Model(atoms, complete=True, stable=True)
        atoms.update(fresh)
        if len(atoms) > max_atoms:
            return Model(atoms, complete=False, stable=False)
        g = {a for a in atoms if all(isinstance(t, str) for t in a[1:])}
        s = shapes | {_shape(a) for a in fresh}
        quiet = quiet + 1 if (g == ground and s == shapes) else 0
        ground, shapes = g, s
        if quiet >= 2 and not terminates:
            return Model(atoms, complete=False, stable=True)
    return Model(atoms, complete=False, stable=False)


def egd_clash(model: Model, egds: Sequence[Tuple]) -> bool:
    """Does some EGD body match with two distinct constants equated?"""
    index = index_atoms(model.atoms)
    for body, lhs, rhs in egds:
        for hom in matches(body, index):
            a, b = hom[lhs], hom[rhs]
            if a != b and is_const(a) and is_const(b):
                return True
    return False


def three_colorable(vertices: Sequence[str], edges: Sequence[Tuple[str, str]]) -> bool:
    """Exhaustive search over colorings, pruned at the first clash."""
    adj: Dict[str, List[str]] = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    color: Dict[str, int] = {}

    def place(i: int) -> bool:
        if i == len(vertices):
            return True
        v = vertices[i]
        for c in range(3):
            if all(color.get(w) != c for w in adj[v]):
                color[v] = c
                if place(i + 1):
                    return True
                del color[v]
        return False

    return place(0)

