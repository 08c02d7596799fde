"""Conjunctive query evaluation, certain answers, and containment.

Evaluation is backtracking homomorphism search over a compiled
`plan.Plan`, its atoms in one connected join order (`connected_order`);
the body order only changes the search, never the answer set.  A query
with answer variables enumerates every homomorphism and projects it.  A
Boolean query is one existence check that stops at its first witness.
Certain answers keep all-constant tuples only; whether they are exact
or a sound lower bound depends on whether the underlying chase reached
a fixpoint.  Containment is one certain-answers question: is q1's head,
frozen to fresh constants, an answer of q2 over q1's frozen body?  It
is asked as a Boolean query, q2's body with its answer variables bound
to the frozen head, so it stops at its first witness.  A query checks
its variables when it is built (`model.CQ`), so neither question checks
them again.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from . import clouds
from .chase import (BOUNDED_DEPTH, DEFAULT_MAX_STEPS, ChaseOptions, Mode, Status,
                    body_homomorphisms, egd_violations, run_chase)
from .model import (
    CQ,
    EGD,
    TGD,
    Atom,
    Constant,
    Instance,
    Term,
    UsageError,
    Variable,
    term_sort_key,
)
from .plan import RulePlan


def homomorphisms(body: Sequence[Atom], instance: Instance) -> Iterator[Dict[Variable, Term]]:
    """All homomorphisms from the body into the instance.

    Constants map to themselves; instance nulls are plain values and may
    be shared by several variables.  The body atoms are put in
    `connected_order` and handed to `chase.body_homomorphisms`, which
    compiles them into a `plan.Plan`, the one matcher.
    """
    yield from body_homomorphisms(connected_order(body, instance), instance)


def eval_cq(instance: Instance, query: CQ) -> Set[Tuple[Term, ...]]:
    """All answer tuples of a query over one instance (nulls included).

    A Boolean query is the single existence check of `holds`; any other
    enumerates every homomorphism of the body and projects it onto the
    answer variables.
    """
    if query.is_boolean():
        return {()} if holds(instance, query) else set()
    out: Set[Tuple[Term, ...]] = set()
    for hom in homomorphisms(query.body, instance):
        out.add(tuple(hom[v] for v in query.head_vars))
    return out


def connected_order(body: Sequence[Atom], instance: Instance) -> List[Atom]:
    """The body in a connected join order.  Each next atom shares a
    variable with the atoms already placed, or has no variable, when one
    such is left; otherwise (the first atom, or a new component) any
    atom may come.  Among those that may come, the one with the fewest
    expected candidates comes, ties going to declaration order: the
    atoms its constants select, divided by the number of distinct terms
    at each position of a variable that an atom placed before it
    binds."""
    expected: List[float] = []
    # atoms that join the ones placed: the ground atoms at first
    joined: Set[int] = set()
    # variable name -> (atom index, distinct terms at its position)
    occurs: Dict[str, List[Tuple[int, int]]] = {}
    distinct: Dict[Tuple[str, int, int], int] = {}
    for i, a in enumerate(body):
        columns = [c for c, t in enumerate(a.args) if not isinstance(t, Variable)]
        expected.append(float(len(instance.probe(a.predicate, columns,
                                                 [a.args[c] for c in columns]))))
        if len(columns) == len(a.args):
            joined.add(i)
        for c, t in enumerate(a.args):
            if isinstance(t, Variable):
                at = (a.predicate.name, a.predicate.arity, c)
                if at not in distinct:
                    distinct[at] = instance.distinct(a.predicate, c)
                occurs.setdefault(t.name, []).append((i, distinct[at]))
    left = list(range(len(body)))
    order: List[Atom] = []
    while left:
        # the first least in declaration order
        best = min([i for i in left if i in joined] or left, key=expected.__getitem__)
        left.remove(best)
        order.append(body[best])
        for t in body[best].args:
            if isinstance(t, Variable):
                for i, terms in occurs.pop(t.name, ()):
                    joined.add(i)
                    if expected[i]:
                        expected[i] /= terms
    return order


def holds(instance: Instance, query: CQ) -> bool:
    """Boolean evaluation: does the body have a homomorphism into the
    instance?  The search is `homomorphisms`, whose connected order
    makes every atom after the first of its component join the atoms
    before it, and it stops at the first witness; an empty body always
    holds."""
    for _ in homomorphisms(query.body, instance):
        return True
    return False


# ---------------------------------------------------------------------------
# Certain answers
# ---------------------------------------------------------------------------

class AnswerStatus(Enum):
    EXACT = "exact"
    SOUND_LOWER_BOUND = "sound-lower-bound"
    FAILED = "failed"


class AnswerReport(namedtuple("AnswerReport", "answers status note chase",
                              defaults=("", None))):
    """The answer rows, their status, a note, and the `ChaseResult` they
    were read from, if a chase ran."""

    __slots__ = ()

    @property
    def budget_exhausted(self) -> bool:
        """Did a budget stop the run, leaving a sound lower bound?"""
        return self.status is AnswerStatus.SOUND_LOWER_BOUND

    @property
    def verdict(self) -> str:
        """failed, sat (some answer), unsat (exactly none) or unknown."""
        if self.status is AnswerStatus.FAILED:
            return "failed"
        if self.answers:
            return "sat"
        return "unsat" if self.status is AnswerStatus.EXACT else "unknown"

    def boolean(self) -> Optional[bool]:
        """Truth value for Boolean queries; None when undetermined."""
        return {"failed": True, "sat": True, "unsat": False}.get(self.verdict)


class BlockedAtomic:
    """Answer atomic queries from the cloud-store saturation."""

    __slots__ = ()


# a chase to run and answer over, or the cloud-store saturation
Strategy = Union[ChaseOptions, BlockedAtomic]


def _constant_rows(raw: Set[Tuple[Term, ...]]) -> List[Tuple[Term, ...]]:
    rows = {row for row in raw if all(isinstance(t, Constant) for t in row)}
    return sorted(rows, key=lambda row: tuple(term_sort_key(t) for t in row))


def certain_answers(
    database: Instance,
    tgds: Sequence[TGD],
    query: CQ,
    strategy: Strategy = ChaseOptions(Mode.OBLIVIOUS, max_depth=BOUNDED_DEPTH),
    egds: Sequence[EGD] = (),
) -> AnswerReport:
    """Certain answers of a query over a database under dependencies.

    ChaseOptions run that chase and answer over it, keeping it in the
    report: exact when it saturates, else a sound lower bound.  The
    default, an oblivious chase cut at depth `chase.BOUNDED_DEPTH`, is
    the CLI's `bounded`, and the restricted chase is its `terminate`.
    BlockedAtomic answers atomic queries from the cloud-store
    saturation of a weakly guarded set: from its null-free atoms and
    its canonical anchors.  The run itself normalizes multi-atom heads.
    """
    if isinstance(strategy, BlockedAtomic):
        if len(query.body) != 1:
            raise UsageError("the blocked-atomic strategy needs an atomic query")
        sat = clouds.blocked_saturate(database, tgds)
        # a projected position may hold an invented value: the store's
        # canonical anchors stand for every atom of the chase up to a
        # renaming of its nulls
        facts = Instance(sat.ground_atoms)
        for key in sat.store.keys:
            facts.add(key[0])
        rows = _constant_rows(eval_cq(facts, query))
        if sat.status is clouds.SaturateStatus.STABILIZED:
            return AnswerReport(rows, AnswerStatus.EXACT)
        return AnswerReport(rows, AnswerStatus.SOUND_LOWER_BOUND)
    result = run_chase(database, tgds, egds, strategy)
    if result.status is Status.FAILED:
        return AnswerReport(
            [], AnswerStatus.FAILED, note="EGD failure: every Boolean query holds",
            chase=result,
        )
    rows = _constant_rows(eval_cq(result.instance, query))
    if result.status is Status.SATURATED:
        return AnswerReport(rows, AnswerStatus.EXACT, chase=result)
    return AnswerReport(rows, AnswerStatus.SOUND_LOWER_BOUND, chase=result)


# ---------------------------------------------------------------------------
# Containment
# ---------------------------------------------------------------------------

Containment = namedtuple("Containment", "verdict")  # yes, no or unknown


def check_containment(
    q1: CQ,
    q2: CQ,
    tgds: Sequence[TGD],
    max_steps: int = DEFAULT_MAX_STEPS,
    egds: Sequence[EGD] = (),
) -> Containment:
    """Containment of q1 in q2 under a TGD set, through the canonical
    database (Chandra and Merlin; Johnson and Klug under dependencies).

    q1's variables freeze to distinct constants `c.1, c.2, ...`, which
    no program spells (see `model`).  q1 is contained in
    q2 under the TGDs exactly when the frozen head is a certain answer
    of q2 over the frozen body: when q2's body, its answer variables
    bound to the frozen head, holds.  So one `certain_answers` call on
    that Boolean query under the restricted chase decides it, stopping
    at its first witness: "yes" when it holds, "no" when the chase is
    exact, "unknown" when the step budget cut the chase first.  A
    repeated answer variable of q2 that meets two different frozen
    values has no such query: without EGDs it is a "no" without a
    chase, since TGDs never equate two values, and with them the chase
    runs for the query with no atoms and the answer is never "yes".

    The EGDs are not chased.  A "yes" holds under them too, and a "no"
    only when no EGD trigger of the chase equates two different values,
    which makes the chase a model of the EGDs; else it is "unknown".
    """
    if q1.arity != q2.arity:
        raise UsageError("containment needs queries of equal arity")
    frozen_vars = sorted(q1.variables(), key=lambda x: x.name)
    freeze: Dict[Term, Term] = {v: Constant("c.%d" % i) for i, v in enumerate(frozen_vars, 1)}
    bound: Dict[Term, Term] = {}
    fits = all(bound.setdefault(v, freeze[u]) == freeze[u]
               for v, u in zip(q2.head_vars, q1.head_vars))
    if not fits and not egds:
        return Containment("no")
    question = CQ(q2.name, (), tuple(a.substitute(bound) for a in q2.body) if fits else ())
    frozen = Instance(a.substitute(freeze) for a in q1.body)
    report = certain_answers(frozen, tgds, question, ChaseOptions(Mode.RESTRICTED, max_steps))
    if fits and report.answers:
        return Containment("yes")
    broken = egd_violations([RulePlan(egd) for egd in egds], report.chase.instance)
    exact = report.status is AnswerStatus.EXACT and not any(broken)
    return Containment("no" if exact else "unknown")
