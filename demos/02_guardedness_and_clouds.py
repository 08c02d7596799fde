#!/usr/bin/env python3
"""Guardedness analysis and cloud-store blocking.

Weak guardedness is what keeps query answering decidable even when the
chase is infinite: every rule has a body atom covering the variables
that can bind invented values.  The cloud-store saturation exploits
that: a branch whose (atom, cloud) pair repeats an already-seen
isomorphism class is blocked, so the infinite chase collapses to a
finite store from which ground atomic queries can be answered.
"""

from chasekit import blocked_saturate, classify, parse_program
from chasekit.parser import render_atom
from chasekit.rulesets import fll_rules, grid_rules

INFINITE_BUT_TAME = """
fact r1(a,b).
tgd r3(X,Y) -> r2(X).
tgd r1(X,Y) -> exists Z: r3(Y,Z).
tgd r1(X,Y), r2(Y) -> exists Z: r1(Y,Z).
tgd r1(X,Y) -> r2(Y).
"""


def banner(title):
    print()
    print("==", title)


def report(name, rules):
    cls = classify(rules)
    print("%-12s overall: %s" % (name, cls.overall.value))
    for rule, rule_class in zip(rules, cls.per_rule):
        print("   %-8s %-15s %s" % (rule.label, rule_class.value, rule))
    print("   affected positions:",
          ", ".join(sorted(repr(p) for p in cls.affected)) or "none")


def main():
    banner("classification")
    report("object-logic", fll_rules().tgds)
    print()
    report("grid", grid_rules().tgds)

    banner("cloud-store saturation of an infinite chase")
    program = parse_program(INFINITE_BUT_TAME)
    out = blocked_saturate(program.facts, program.tgds)
    print("status:", out.status.value, "after", out.rounds, "rounds")
    print("store entries (isomorphism classes of (atom, cloud)):",
          len(out.store))
    print("max cloud size:", out.store.max_cloud_size())
    print("derived ground atoms:",
          ", ".join(sorted(render_atom(a) for a in out.ground_atoms)))
    print("(the chase itself never terminates; the store does)")


if __name__ == "__main__":
    main()
