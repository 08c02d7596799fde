"""chasekit: chase-based reasoning over TGDs and EGDs.

Answers conjunctive queries and decides containment over databases
constrained by tuple-generating and equality-generating dependencies,
with guardedness analysis, cloud-store blocking for weakly guarded
sets, and innocuous-EGD separation.

A `chasekit` start imports only what its commands run: the names of
`acyclic` (squid decompositions, which no command uses) and `rulesets`
(the built-in programs, which only `--builtin` reads) are looked up on
first use, through the module `__getattr__` below (PEP 562).
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
from .egdsep import (
    FailureCheck,
    blocking_chase,
    egd_failure_check,
    monitor_innocuousness,
    separated_answer,
)

__version__ = "0.1.0"

# the modules imported on first use, with the names taken from them
_DEFERRED = {
    "acyclic": ("enumerate_squids", "s_join_forest", "validate_squid", "verify_squid_lemma"),
    "rulesets": ("GraphSpec", "builtin_program", "encode_three_colorability", "fll_rules",
                 "grid_rules"),
}
_HOME = {name: module for module, names in _DEFERRED.items() for name in (module, *names)}


def __getattr__(name: str):
    """A deferred module, or a name of one, imported on first use."""
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module
    module = import_module("." + _HOME[name], __name__)
    return module if name in _DEFERRED else getattr(module, name)
