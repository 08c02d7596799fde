"""Conjunctive query evaluation, certain answers, and containment.

Evaluation is backtracking homomorphism search; body atoms are matched
most-constrained-first (fewest candidate facts), which only changes the
search order, never the answer set.  Certain answers keep all-constant
tuples only; whether they are exact or a sound lower bound depends on
whether the underlying chase reached a fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from . import clouds
from .chase import ChaseOptions, ChaseResult, Mode, Status, body_homomorphisms, run_chase
from .model import (
    CQ,
    EGD,
    TGD,
    Atom,
    Constant,
    Instance,
    LabeledNull,
    NullAllocator,
    Predicate,
    Term,
    UsageError,
    Variable,
    term_sort_key,
)


def homomorphisms(
    body: Sequence[Atom],
    instance: Instance,
    seed: Optional[Dict[Variable, Term]] = None,
) -> Iterator[Dict[Variable, Term]]:
    """All homomorphisms from the body into the instance.

    Constants map to themselves; instance nulls are plain values and may
    be shared by several variables.  The body atoms are put in a static
    fewest-candidates-first order (by the number of atoms of their
    predicate) and handed to `chase.body_homomorphisms`, the one matcher.
    """
    order = sorted(body, key=lambda a: len(instance.by_predicate(a.predicate)))
    yield from body_homomorphisms(order, instance, seed)


def eval_cq(instance: Instance, query: CQ) -> Set[Tuple[Term, ...]]:
    """All answer tuples of a query over one instance (nulls included)."""
    out: Set[Tuple[Term, ...]] = set()
    for hom in homomorphisms(query.body, instance):
        out.add(tuple(hom[v] for v in query.head_vars))
    return out


def holds(instance: Instance, query: CQ) -> bool:
    """Boolean evaluation, stopping at the first witness."""
    for _ in homomorphisms(query.body, instance):
        return True
    return False


def find_homomorphism(
    source: Sequence[Atom], target: Instance
) -> Optional[Dict[Term, Term]]:
    """A homomorphism from one atom set into an instance, nulls as variables.

    Constants are fixed; each labeled null of the source may map to any
    term of the target.  Returns the full term mapping or None.
    """
    null_vars: Dict[LabeledNull, Variable] = {}
    pattern: List[Atom] = []
    for a in source:
        args = []
        for t in a.args:
            if isinstance(t, LabeledNull):
                v = null_vars.setdefault(t, Variable("_N%d" % t.index))
                args.append(v)
            else:
                args.append(t)
        pattern.append(Atom(a.predicate, tuple(args)))
    for hom in homomorphisms(pattern, target):
        mapping: Dict[Term, Term] = {n: hom[v] for n, v in null_vars.items()}
        return mapping
    return None


def sort_answers(answers: Set[Tuple[Term, ...]]) -> List[Tuple[Term, ...]]:
    return sorted(answers, key=lambda row: tuple(term_sort_key(t) for t in row))


# ---------------------------------------------------------------------------
# Certain answers
# ---------------------------------------------------------------------------

class AnswerStatus(Enum):
    EXACT = "exact"
    SOUND_LOWER_BOUND = "sound-lower-bound"
    FAILED = "failed"
    UNKNOWN = "unknown"


@dataclass
class AnswerReport:
    answers: List[Tuple[Term, ...]]
    status: AnswerStatus
    budget_exhausted: bool = False
    budget_used: int = 0
    note: str = ""
    chase: Optional[ChaseResult] = None

    def boolean(self) -> Optional[bool]:
        """Truth value for Boolean queries; None when undetermined."""
        if self.status is AnswerStatus.FAILED:
            return True
        if self.answers:
            return True
        if self.status is AnswerStatus.EXACT:
            return False
        return None


@dataclass(frozen=True)
class Terminate:
    max_steps: int = 10_000
    max_depth: int = 64


@dataclass(frozen=True)
class BlockedAtomic:
    max_rounds: int = 50
    max_store_size: int = 100_000


@dataclass(frozen=True)
class Bounded:
    depth: int = 16
    max_steps: int = 10_000


Strategy = Union[Terminate, BlockedAtomic, Bounded]


def _constant_rows(raw: Set[Tuple[Term, ...]]) -> List[Tuple[Term, ...]]:
    return sort_answers(
        {row for row in raw if all(isinstance(t, Constant) for t in row)}
    )


def certain_answers(
    database: Instance,
    tgds: Sequence[TGD],
    query: CQ,
    strategy: Strategy = Bounded(),
    egds: Sequence[EGD] = (),
    memory_check=None,
) -> AnswerReport:
    """Certain answers of a query over a database under dependencies.

    Terminate runs the restricted chase and is exact when it saturates;
    Bounded runs the oblivious chase to a depth and reports a sound
    lower bound; BlockedAtomic answers ground atomic queries from the
    cloud-store saturation of a weakly guarded set.
    """
    if isinstance(strategy, BlockedAtomic):
        if len(query.body) != 1:
            raise UsageError("the blocked-atomic strategy needs an atomic query")
        sat = clouds.blocked_saturate(
            database,
            tgds,
            clouds.SaturateOptions(
                max_rounds=strategy.max_rounds,
                max_store_size=strategy.max_store_size,
            ),
        )
        raw = eval_cq(sat.ground_atoms, query)
        rows = _constant_rows(raw)
        if sat.status is clouds.SaturateStatus.STABILIZED:
            return AnswerReport(rows, AnswerStatus.EXACT, budget_used=sat.rounds)
        return AnswerReport(rows, AnswerStatus.SOUND_LOWER_BOUND,
                            budget_exhausted=True, budget_used=sat.rounds)

    if isinstance(strategy, Terminate):
        opts = ChaseOptions(
            mode=Mode.RESTRICTED,
            max_steps=strategy.max_steps,
            max_depth=strategy.max_depth,
            memory_check=memory_check,
        )
    else:
        opts = ChaseOptions(
            mode=Mode.OBLIVIOUS,
            max_steps=strategy.max_steps,
            max_depth=strategy.depth,
            memory_check=memory_check,
        )
    result = run_chase(database, tgds, egds, opts)
    used = len(result.steps)
    if result.status is Status.FAILED:
        return AnswerReport(
            [], AnswerStatus.FAILED, note="EGD failure: every Boolean query holds",
            budget_used=used, chase=result,
        )
    rows = _constant_rows(eval_cq(result.instance, query))
    if result.status is Status.SATURATED:
        return AnswerReport(rows, AnswerStatus.EXACT, budget_used=used, chase=result)
    return AnswerReport(
        rows, AnswerStatus.SOUND_LOWER_BOUND, budget_exhausted=True,
        budget_used=used, chase=result,
    )


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def cq_to_bcq(query: CQ, tup: Tuple[Constant, ...]) -> Tuple[CQ, Atom]:
    """Fold an answer-membership question into a Boolean query.

    Returns the Boolean query body(Q) and q'(head vars), plus the fact
    q'(t) to add to the database: t is a certain answer of Q exactly
    when the Boolean query holds over the extended database.
    """
    if len(tup) != query.arity:
        raise UsageError(
            "tuple arity %d does not match query arity %d" % (len(tup), query.arity)
        )
    marker = Predicate(query.name + "_t", query.arity)
    bcq = CQ(
        name=query.name + "_bcq",
        head_vars=(),
        body=query.body + (Atom(marker, tuple(query.head_vars)),),
    )
    return bcq, Atom(marker, tuple(tup))


@dataclass(frozen=True)
class Containment:
    verdict: str  # yes, no, unknown
    witness: Optional[Tuple[Term, ...]] = None


def check_containment(
    q1: CQ,
    q2: CQ,
    tgds: Sequence[TGD],
    max_steps: int = 10_000,
    max_depth: int = 64,
) -> Containment:
    """Containment of q1 in q2 under a TGD set, by freezing and chasing.

    q1's variables freeze to distinct fresh nulls; the frozen body is
    chased; q1 is contained in q2 when the frozen head tuple shows up
    among q2's answers over the chase.  Frozen nulls act as rigid values
    during the evaluation.  Budget exhaustion without a witness yields
    "unknown".
    """
    if q1.arity != q2.arity:
        raise UsageError("containment needs queries of equal arity")
    alloc = NullAllocator()
    freeze: Dict[Variable, Term] = {
        v: alloc.fresh()
        for v in sorted(q1.variables(), key=lambda x: x.name)
    }
    frozen_body = Instance(a.substitute(freeze) for a in q1.body)
    frozen_head = tuple(freeze[v] for v in q1.head_vars)
    opts = ChaseOptions(mode=Mode.RESTRICTED, max_steps=max_steps, max_depth=max_depth)
    result = run_chase(frozen_body, tgds, (), opts)
    if frozen_head in eval_cq(result.instance, q2):
        return Containment("yes", witness=frozen_head)
    if result.status is Status.SATURATED:
        return Containment("no")
    return Containment("unknown")
