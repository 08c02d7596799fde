"""EGD pipeline: failure detection, separated answering, blocking chase.

When every EGD application merely collapses an atom onto an existing one
(an innocuous application), the EGDs cannot enable new TGD derivations:
if the chase does not fail, queries can be answered under the TGDs
alone.  Failure itself is detectable without running the interleaved
chase: it fails exactly when some EGD trigger of the TGD-only chase
equates two distinct constants.  The check filters the triggers that
`chase.egd_violations` enumerates, the ones the engine's EGD drain
reads, by the unique-name clash on which `apply_egd` fails, so it costs
one pass over the EGD bodies and builds nothing.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from typing import Optional, Sequence, Tuple

from .chase import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_MAX_STEPS,
    ChaseOptions,
    ChaseResult,
    EgdStep,
    Mode,
    Status,
    TgdStep,
    _Engine,
    egd_violations,
    run_chase,
)
from .model import CQ, EGD, TGD, Constant, Instance
from .plan import RulePlan
from .query import AnswerReport, AnswerStatus, certain_answers


# whether the run failed, its failure witness, and its EGD applications
SeparationVerdict = namedtuple("SeparationVerdict",
                               "failed witness all_applications_innocuous applications",
                               defaults=(0,))


def monitor_innocuousness(
    database: Instance,
    tgds: Sequence[TGD],
    egds: Sequence[EGD],
) -> Tuple[SeparationVerdict, ChaseResult]:
    """Run the interleaved chase and record what the EGDs did."""
    result = run_chase(database, tgds, egds, ChaseOptions(Mode.RESTRICTED))
    merges = [s for s in result.steps if isinstance(s, EgdStep)]
    verdict = SeparationVerdict(
        failed=result.status is Status.FAILED,
        witness=result.failure_witness,
        all_applications_innocuous=all(s.innocuous for s in merges),
        applications=len(merges),
    )
    return verdict, result


class FailureCheck(Enum):
    FAILED = "failed"
    NO_FAILURE = "no-failure"
    UNKNOWN = "unknown"


def egd_failure_check(
    database: Instance,
    tgds: Sequence[TGD],
    egds: Sequence[EGD],
    max_steps: int = DEFAULT_MAX_STEPS,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> FailureCheck:
    """Would the interleaved chase fail?  Decided under the TGDs alone.

    It is `separated_answer` for the query with no atoms: failed exactly
    when some EGD trigger of the TGD-only chase equates two distinct
    constants, the clash on which `apply_egd` fails, and exact exactly
    when that chase saturated.  No EGD is applied and no atom is added.
    """
    if not egds:
        return FailureCheck.NO_FAILURE
    status = separated_answer(database, tgds, egds, CQ("true", (), ()), max_steps,
                              max_depth).status
    if status is AnswerStatus.FAILED:
        return FailureCheck.FAILED
    return FailureCheck.NO_FAILURE if status is AnswerStatus.EXACT else FailureCheck.UNKNOWN


def _failure_in(instance: Instance, egds: Sequence[EGD]) -> bool:
    """Does some EGD trigger over the instance equate two distinct constants?"""
    plans = [RulePlan(egd) for egd in egds]
    equated = (plans[idx].equated(key) for idx, key in egd_violations(plans, instance))
    return any(isinstance(a, Constant) and isinstance(b, Constant) for a, b in equated)


def separated_answer(
    database: Instance,
    tgds: Sequence[TGD],
    egds: Sequence[EGD],
    query: CQ,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> AnswerReport:
    """Answer a query under TGDs plus innocuous EGDs without merging.

    The EGDs are dropped and the query is answered by `certain_answers`
    over the restricted chase under the TGDs alone: exact when it
    saturated, which is also when the failure check is conclusive.  The
    failure check then reads the same chase: a failing theory entails
    every Boolean query, reported as status Failed rather than by
    enumerating the trivial answer set.  The chase normalizes heads.
    """
    report = certain_answers(database, tgds, query,
                             ChaseOptions(Mode.RESTRICTED, max_steps, max_depth))
    if egds and _failure_in(report.chase.instance, egds):
        return AnswerReport(
            [], AnswerStatus.FAILED,
            note="chase fails: every Boolean query is entailed",
        )
    return report


# ---------------------------------------------------------------------------
# Blocking chase
# ---------------------------------------------------------------------------

# A (unblocked), C (blocked) and the survivors A - C at the fixpoint
BlockingChaseResult = namedtuple("BlockingChaseResult",
                                 "unblocked blocked survivors status aborted_on",
                                 defaults=(None,))


class _BlockingEngine(_Engine):
    """The chase engine that also stops at a merge that is not innocuous."""

    def _ends_run(self, step: Optional[EgdStep]) -> bool:
        return super()._ends_run(step) or not step.innocuous


def blocking_chase(
    database: Instance,
    tgds: Sequence[TGD],
    egds: Sequence[EGD],
    max_steps: int = DEFAULT_MAX_STEPS,
) -> BlockingChaseResult:
    """Chase variant that bans atoms instead of rewriting them.

    A holds the database and every atom a TGD step added; C holds the
    atoms an EGD merge took away, and the survivors A - C are the
    instance of the oblivious interleaved chase.  While every merge is
    innocuous, banning the merged-away atoms and rewriting them agree,
    and the survivors satisfy all dependencies once the run saturates.
    A failing or non-innocuous EGD application stops the run as FAILED
    with the offending step.
    """
    # A node's depth is at most the number of TGD steps before it plus
    # one, so max_steps + 1 never binds.
    opts = ChaseOptions(mode=Mode.OBLIVIOUS, max_steps=max_steps, max_depth=max_steps + 1)
    result = _BlockingEngine(database, tgds, egds, opts).run()
    unblocked = database.copy()
    for step in result.steps:
        if isinstance(step, TgdStep):
            unblocked.add(step.atom)
    banned = unblocked.atom_set() - result.instance.atom_set()
    return BlockingChaseResult(
        unblocked, Instance(sorted(banned, key=repr)), result.instance,
        result.status, aborted_on=result.failure_witness,
    )
