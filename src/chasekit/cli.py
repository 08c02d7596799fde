"""Command-line front end.

Exit codes: 0 on success, 1 when the reasoning outcome is a failure
(a failing chase), 2 on usage or parse errors.  All output is
deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List, Optional, Sequence

from . import clouds, egdsep
from .analysis import classify
from .chase import (BOUNDED_DEPTH, DEFAULT_MAX_DEPTH, DEFAULT_MAX_STEPS, ChaseOptions,
                    ChaseResult, MemoryBudgetExceeded, Mode, Status, memory_guard,
                    restricted_gcf, run_chase)
from .model import Program, UsageError
from .parser import ParseError, answer_json, parse_program, render_atom
from .query import BlockedAtomic, certain_answers, check_containment

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


def _load_program(args) -> Program:
    if args.builtin and args.file:
        raise UsageError("give either a file or --builtin, not both")
    if args.builtin:
        from .rulesets import builtin_program  # only --builtin needs it
        return builtin_program(args.builtin)
    if not args.file:
        raise UsageError("no input: give a file or --builtin")
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise UsageError(str(e))
    except UnicodeDecodeError as e:
        raise UsageError("%s is not UTF-8 text: %s" % (args.file, e))
    return parse_program(text)


def _emit(args, payload: dict, text_lines: List[str]) -> None:
    """Print the payload as JSON, or the text lines."""
    print(json.dumps(payload) if args.format == "json" else "\n".join(text_lines))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    program = _load_program(args)
    cls = classify(program.tgds)
    affected = sorted(repr(p) for p in cls.affected)
    rules = [
        {
            "label": rule.label,
            "rule": repr(rule),
            "class": rule_class.value,
            "guard": None if guard is None else render_atom(rule.body[guard]),
        }
        for rule, rule_class, guard in zip(program.tgds, cls.per_rule, cls.forest_guards)
    ]
    payload = {
        "overall": cls.overall.value,
        "rules": rules,
        "affected": affected,
        "egds": len(program.egds),
    }
    lines = ["overall: %s" % cls.overall.value]
    for r in rules:
        guard = (" (guard %s)" % r["guard"]) if r["guard"] else ""
        lines.append("%s: %s%s  %s" % (r["label"], r["class"], guard, r["rule"]))
    lines.append("affected positions: %s" % (", ".join(affected) or "none"))
    _emit(args, payload, lines)
    return EXIT_OK


def _run_chase(args, program: Program) -> ChaseResult:
    """The chase the `chase` and `forest` flags ask for; `--egd separate`
    chases under the TGDs alone."""
    egds = program.egds if args.egd == "interleave" else []
    opts = ChaseOptions(Mode(args.mode), args.max_steps, args.max_depth)
    return run_chase(program.facts, program.tgds, egds, opts)


def _renderer():
    """`render_atom` behind a cache that lives for one command, so that
    each atom and term is rendered once."""
    return functools.lru_cache(maxsize=None)(render_atom)


def cmd_chase(args) -> int:
    program = _load_program(args)
    result = _run_chase(args, program)
    show = _renderer()
    steps = [s.render(show) for s in result.steps]
    payload = {
        "status": result.status.value,
        "steps": steps,
        "atom_count": len(result.instance),
        "atoms": sorted(map(show, result.instance)),
        "forest_complete": result.forest_complete,
    }
    _emit(args, payload, steps + ["status: %s" % result.status.value,
                                  "atoms: %d" % len(result.instance)])
    return EXIT_FAILED if result.status is Status.FAILED else EXIT_OK


def _parse_strategy(args):
    """`terminate` is the restricted chase under the budget flags,
    `bounded:N` the oblivious chase cut at depth N, and no `--strategy`
    is `bounded`."""
    text = "bounded" if args.strategy is None else args.strategy
    if text == "terminate":
        return ChaseOptions(Mode.RESTRICTED, args.max_steps, args.max_depth)
    if text == "blocked-atomic":
        return BlockedAtomic()
    if text == "bounded" or text.startswith("bounded:"):
        depth = BOUNDED_DEPTH
        if ":" in text:
            try:
                depth = int(text.split(":", 1)[1])
            except ValueError:
                raise UsageError("bad bounded depth in %r" % text)
        return ChaseOptions(Mode.OBLIVIOUS, args.max_steps, depth)
    raise UsageError("unknown strategy %r" % text)


def cmd_answer(args) -> int:
    program = _load_program(args)
    query = program.query(args.query)
    strategy = _parse_strategy(args)
    if args.egd == "separate" and program.egds:
        if args.strategy not in (None, "terminate"):
            raise UsageError("--egd separate answers over the restricted chase; "
                             "--strategy %s is not supported on a program with EGDs"
                             % args.strategy)
        report = egdsep.separated_answer(
            program.facts, program.tgds, program.egds, query,
            max_steps=args.max_steps, max_depth=args.max_depth,
        )
    else:
        report = certain_answers(
            program.facts, program.tgds, query, strategy, egds=program.egds,
        )
    status = report.verdict
    if args.format == "json":
        print(answer_json(query.name, status, report.answers, report.budget_exhausted))
    else:
        print("query %s: %s" % (query.name, status))
        for row in report.answers:
            print("  (%s)" % ", ".join(map(repr, row)))
        if report.note:
            print("note: %s" % report.note)
    return EXIT_FAILED if status == "failed" else EXIT_OK


def cmd_contain(args) -> int:
    program = _load_program(args)
    q1, q2 = program.query(args.q1), program.query(args.q2)
    verdict = check_containment(q1, q2, program.tgds, args.budget, program.egds)
    payload = {"q1": q1.name, "q2": q2.name, "verdict": verdict.verdict}
    _emit(args, payload, ["%s in %s: %s" % (q1.name, q2.name, verdict.verdict)])
    return EXIT_OK


def cmd_egd_check(args) -> int:
    program = _load_program(args)
    outcome = egdsep.egd_failure_check(
        program.facts, program.tgds, program.egds,
        max_steps=args.max_steps, max_depth=args.max_depth,
    )
    payload = {"result": outcome.value}
    _emit(args, payload, ["egd failure check: %s" % outcome.value])
    return EXIT_FAILED if outcome is egdsep.FailureCheck.FAILED else EXIT_OK


def cmd_forest(args) -> int:
    program = _load_program(args)
    result = _run_chase(args, program)
    nodes = restricted_gcf(result.forest) if args.restricted else result.forest
    show = _renderer()
    atoms = [show(n.atom) for n in nodes]
    rules = [n.trigger and n.trigger.rule.label for n in nodes]  # None: a database atom
    if args.dot:
        lines = ["digraph gcf {"]
        for n, label, rule in zip(nodes, atoms, rules):
            if rule is not None:
                label += "\\n" + rule
            lines.append('  n%d [label="%s"];' % (n.id, label))
        for n in nodes:  # restricted_gcf keeps the parent of every node it keeps
            if n.parent is not None:
                lines.append("  n%d -> n%d;" % (n.parent, n.id))
        lines.append("}")
        print("\n".join(lines))
        return EXIT_OK
    payload = {
        "status": result.status.value,
        "nodes": [
            {
                "id": n.id,
                "atom": atom,
                "parent": n.parent,
                "rule": rule,
                "depth": n.depth,
            }
            for n, atom, rule in zip(nodes, atoms, rules)
        ],
        "forest_complete": result.forest_complete,
    }
    lines = [
        "#%d depth=%d parent=%s %s [%s]"
        % (n.id, n.depth, n.parent if n.parent is not None else "-",
           atom, "db" if rule is None else rule)
        for n, atom, rule in zip(nodes, atoms, rules)
    ]
    _emit(args, payload, lines + ["status: %s" % result.status.value])
    return EXIT_OK


def cmd_store_stats(args) -> int:
    program = _load_program(args)
    sat = clouds.blocked_saturate(
        program.facts,
        program.tgds,
        clouds.SaturateOptions(
            max_rounds=args.max_rounds, force=args.force
        ),
    )
    payload = {
        "entries": len(sat.store),
        "max_cloud_size": sat.store.max_cloud_size(),
        "rounds": sat.rounds,
        "status": sat.status.value,
        "ground_atoms": len(sat.ground_atoms),
    }
    lines = ["%s: %s" % (key.replace("_", " "), value) for key, value in payload.items()]
    _emit(args, payload, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------

def _add_common(sub, budgets=False, mode=False, egd=False):
    """The input and output flags, plus the chase flags a command reads."""
    sub.add_argument("file", nargs="?", help="program file")
    sub.add_argument("--builtin", help="built-in program: fll, grid, 3col[-k3|-k4|-c5]")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    if budgets:
        sub.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
        sub.add_argument("--max-depth", type=int, default=DEFAULT_MAX_DEPTH)
    if mode:
        sub.add_argument(
            "--mode", choices=("oblivious", "restricted"), default="restricted"
        )
    if egd:
        sub.add_argument(
            "--egd", choices=("interleave", "separate"), default="interleave"
        )


@functools.lru_cache(maxsize=None)
def build_arg_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused by every
    later `main` call in the process."""
    parser = argparse.ArgumentParser(
        prog="chasekit",
        description="Chase-based reasoning over TGDs and EGDs",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("classify", help="guardedness report")
    _add_common(sub)
    sub.set_defaults(func=cmd_classify)

    sub = subs.add_parser("chase", help="run the chase, print the step log")
    _add_common(sub, budgets=True, mode=True, egd=True)
    sub.set_defaults(func=cmd_chase)

    sub = subs.add_parser("answer", help="certain answers of a named query")
    _add_common(sub, budgets=True, egd=True)
    sub.add_argument("--query", required=True)
    sub.add_argument(
        "--strategy",
        help="terminate | blocked-atomic | bounded:N (default bounded:%d)" % BOUNDED_DEPTH,
    )
    sub.set_defaults(func=cmd_answer)

    sub = subs.add_parser("contain", help="query containment under the TGDs; "
                          "an EGD their chase breaks turns a no into unknown")
    _add_common(sub)
    sub.add_argument("--q1", required=True)
    sub.add_argument("--q2", required=True)
    sub.add_argument("--budget", type=int, default=DEFAULT_MAX_STEPS)
    sub.set_defaults(func=cmd_contain)

    sub = subs.add_parser("egd-check", help="would the chase fail?")
    _add_common(sub, budgets=True)
    sub.set_defaults(func=cmd_egd_check)

    sub = subs.add_parser("forest", help="guarded chase forest")
    _add_common(sub, budgets=True, mode=True, egd=True)
    sub.add_argument("--restricted", action="store_true")
    sub.add_argument("--dot", action="store_true")
    sub.set_defaults(func=cmd_forest)

    sub = subs.add_parser("store-stats", help="cloud-store saturation report")
    _add_common(sub)
    sub.add_argument("--max-rounds", type=int, default=clouds.DEFAULT_MAX_ROUNDS)
    sub.add_argument("--force", action="store_true",
                     help="saturate even when the set is not weakly guarded")
    sub.set_defaults(func=cmd_store_stats)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        memory_guard()  # every command rejects a bad cap, chasing or not
        return args.func(args)
    except (ParseError, UsageError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except MemoryBudgetExceeded as e:
        print("aborted: %s" % e, file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
