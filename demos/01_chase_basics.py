#!/usr/bin/env python3
"""Chase basics: oblivious vs restricted runs and the chase forest.

The four-rule program below never terminates: every r1-edge spawns an
r3-successor, the r2-marking re-enables rule 3, and fresh endpoints keep
arriving.  We run both chase flavors under a small budget, print the
step logs, and show how the restricted forest prunes duplicate-labeled
subtrees.
"""

from chasekit import parse_program, restricted_gcf, run_chase
from chasekit.chase import ChaseOptions, Mode
from chasekit.parser import render_atom

PROGRAM = """
fact r1(a,b).
tgd r3(X,Y) -> r2(X).
tgd r1(X,Y) -> exists Z: r3(Y,Z).
tgd r1(X,Y), r2(Y) -> exists Z: r1(Y,Z).
tgd r1(X,Y) -> r2(Y).
"""


def show(title):
    print()
    print(title)
    print("-" * len(title))


def main():
    program = parse_program(PROGRAM)

    show("oblivious chase, 9-step budget")
    result = run_chase(
        program.facts, program.tgds, [],
        ChaseOptions(mode=Mode.OBLIVIOUS, max_steps=9, max_depth=64),
    )
    print(result.step_log())
    print("status:", result.status.value)

    show("restricted chase on a pre-saturated database")
    seeded = parse_program(PROGRAM + "fact r3(b,c). fact r2(b).")
    restricted = run_chase(
        seeded.facts, seeded.tgds, [],
        ChaseOptions(mode=Mode.RESTRICTED, max_steps=9, max_depth=64),
    )
    print(restricted.step_log())
    print("status:", restricted.status.value)
    print("(r3(b,c) and r2(b) already satisfy the heads of rules 2 and 4",
          "on r1(a,b), so the restricted run starts at rule 3 instead)")

    show("guarded chase forest (oblivious run)")
    for node in result.forest:
        parent = "-" if node.parent is None else "#%d" % node.parent
        rule = node.trigger.rule.label if node.trigger else "db"
        print("  #%-2d depth %d  parent %-3s %-14s via %s"
              % (node.id, node.depth, parent, render_atom(node.atom), rule))

    pruned = restricted_gcf(result.forest)
    dropped = {n.id for n in result.forest} - {n.id for n in pruned}
    show("restricted forest")
    print("pruned duplicate-labeled subtrees rooted at:",
          ", ".join("#%d" % i for i in sorted(dropped)) or "none")
    print("each atom now labels exactly one node:",
          len({n.atom for n in pruned}) == len(pruned))


if __name__ == "__main__":
    main()
