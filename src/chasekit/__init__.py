"""chasekit: chase-based reasoning over TGDs and EGDs.

Answers conjunctive queries and decides containment over databases
constrained by tuple-generating and equality-generating dependencies,
with guardedness analysis, cloud-store blocking for weakly guarded
sets, and innocuous-EGD separation.
"""

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
    Program,
    UsageError,
    Variable,
    compare_terms,
)
from .parser import parse_atom, parse_instance, parse_program, render_program
from .analysis import RuleClass, affected_positions, classify, normalize_heads
from .chase import (
    ChaseOptions,
    ChaseResult,
    MemoryBudgetExceeded,
    Mode,
    Status,
    apply_egd,
    apply_tgd,
    restricted_gcf,
    run_chase,
    split_ground,
    subtree_closure,
)
from .clouds import blocked_saturate, canonicalize, cloud_of
from .query import (
    AnswerReport,
    AnswerStatus,
    BlockedAtomic,
    certain_answers,
    check_containment,
    eval_cq,
)
from .acyclic import (
    enumerate_squids,
    s_join_forest,
    validate_squid,
    verify_squid_lemma,
)
from .egdsep import (
    FailureCheck,
    blocking_chase,
    egd_failure_check,
    monitor_innocuousness,
    separated_answer,
)
from .rulesets import (
    GraphSpec,
    builtin_program,
    encode_three_colorability,
    fll_rules,
    grid_rules,
)

__version__ = "0.1.0"
