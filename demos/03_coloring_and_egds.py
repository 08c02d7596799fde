#!/usr/bin/env python3
"""Query answering as graph coloring, and the EGD pipeline.

A graph is 3-colorable exactly when its edge query maps into the
six-fact database of ordered color pairs, so certain-answer computation
under the object-logic rules decides coloring.  The second half shows
the equality pipeline: a functionality constraint merging two distinct
constants makes the chase fail, and the failure is detectable without
ever running the merging chase.
"""

from chasekit import certain_answers, egd_failure_check, separated_answer
from chasekit.chase import ChaseOptions, Mode
from chasekit.egdsep import monitor_innocuousness
from chasekit.parser import parse_program
from chasekit.rulesets import complete_graph, cycle_graph, three_col_program


def coloring(name, graph):
    program = three_col_program(graph)
    report = certain_answers(
        program.facts, program.tgds, program.query("color"),
        ChaseOptions(Mode.RESTRICTED), egds=program.egds,
    )
    print("%-4s 3-colorable: %s" % (name, report.boolean()))


def main():
    print("== coloring via certain answers")
    coloring("K3", complete_graph(3))
    coloring("K4", complete_graph(4))
    coloring("C5", cycle_graph(5))

    print()
    print("== equality constraints")
    base = three_col_program(complete_graph(3))

    ok = parse_program("fact mandatory(a,o). fact funct(a,o). fact type(o,a,t).")
    for atom in ok.facts:
        base.facts.add(atom)
    check = egd_failure_check(base.facts, base.tgds, base.egds)
    print("functional data without conflicts:", check.value)
    verdict, _ = monitor_innocuousness(base.facts, base.tgds, base.egds)
    print("every merge in the interleaved chase was innocuous:",
          verdict.all_applications_innocuous)

    failing = three_col_program(complete_graph(3))
    for atom in parse_program(
        "fact data(o2,a,c1). fact data(o2,a,c2). fact funct(a,o2)."
    ).facts:
        failing.facts.add(atom)
    check = egd_failure_check(failing.facts, failing.tgds, failing.egds)
    print("two values for a functional attribute:", check.value)
    report = separated_answer(
        failing.facts, failing.tgds, failing.egds, failing.query("color")
    )
    print("separated answering reports:", report.status.value,
          "(a failing theory entails every Boolean query)")


if __name__ == "__main__":
    main()
