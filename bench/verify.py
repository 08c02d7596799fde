"""Expected outcomes for every job, and the check that compares a job's
output against them.

Expectations come from `oracle.py` and from facts the generators know by
construction (a chain program never terminates; a failing object-logic
database fails on every path).  Certain answers are unique, so answer
sets are compared as sets: a change that reorders them still passes.
Budget-exhausted runs are checked for their status only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

import gen
import oracle


@dataclass(frozen=True)
class Expect:
    rc: int
    status: FrozenSet[str]                           # any of these
    answers: Optional[FrozenSet[Tuple[str, ...]]] = None
    ground: Optional[FrozenSet[str]] = None          # null-free atoms, rendered
    budget_exhausted: Optional[bool] = None


def render(atom) -> str:
    return "%s(%s)" % (atom[0], ",".join(atom[1:]))


class Expectations:
    """Expected outcome per job of one workload.  They are worked out for
    all jobs of a program when the first of them is checked; the oracle's
    model is then dropped, so the benchmark's own memory stays small next
    to chasekit's."""

    def __init__(self, workload: gen.Workload):
        self.workload = workload
        self._models: Dict[str, oracle.Model] = {}
        self._jobs: Dict[str, Expect] = {}
        self._siblings: Dict[str, List[gen.Job]] = {}
        for job in workload.jobs:
            self._siblings.setdefault(job.program, []).append(job)

    def of(self, job: gen.Job) -> Expect:
        if job.name not in self._jobs:
            for sibling in self._siblings[job.program]:
                self._jobs[sibling.name] = self._expect(sibling)
            self._models.clear()
        return self._jobs[job.name]

    def _model(self, prog: gen.Program) -> oracle.Model:
        if prog.name not in self._models:
            self._models[prog.name] = oracle.chase(prog.facts, prog.tgds, prog.terminates)
        return self._models[prog.name]

    def _ground(self, prog: gen.Program) -> Optional[FrozenSet[str]]:
        model = self._model(prog)
        return frozenset(map(render, model.ground())) if model.stable else None

    def _answers(self, prog: gen.Program, query: str) -> FrozenSet[Tuple[str, ...]]:
        if prog.graph is not None:
            return frozenset({()}) if oracle.three_colorable(*prog.graph) else frozenset()
        model = self._model(prog)
        if not model.stable:
            raise ValueError("oracle gives no answers for %s" % prog.name)
        head, body = prog.queries[query]
        return frozenset(model.answers(head, body))

    def _expect(self, job: gen.Job) -> Expect:
        prog = self.workload.programs[job.program]
        argv = job.argv
        flags = dict(zip(argv[2::2], argv[3::2])) if argv else {}
        failed = prog.failing and oracle.egd_clash(self._model(prog), prog.egds)
        if prog.failing and not failed:
            raise ValueError("%s was built to fail but does not" % prog.name)
        if job.lib == "blocking_chase":
            if failed:
                return Expect(0, frozenset({"failed"}))
            return Expect(0, frozenset({"saturated"}), ground=self._ground(prog))
        command = argv[0]
        if command == "egd-check":
            return Expect(1, frozenset({"failed"})) if failed else \
                Expect(0, frozenset({"no-failure"}))
        if command == "contain":
            return Expect(0, frozenset({self._contained(prog, flags["--q1"], flags["--q2"])}))
        if command == "store-stats":
            return Expect(0, frozenset({"stabilized"}), ground=self._ground(prog))
        if command == "chase":
            if prog.terminates:
                return Expect(0, frozenset({"saturated"}), ground=self._ground(prog))
            if flags["--mode"] == "oblivious":
                return Expect(0, frozenset({"budget-exhausted"}))
            # the restricted chase of a chain program may or may not stop;
            # when it saturates, its null-free part must be exact
            return Expect(0, frozenset({"saturated", "budget-exhausted"}),
                          ground=self._ground(prog))
        if command != "answer":
            raise ValueError("no expectation for %r" % command)
        if failed:
            # a failing theory fails on every path, blocked-atomic included
            return Expect(1, frozenset({"failed"}), answers=frozenset())
        strategy = flags.get("--strategy", "bounded:16")
        if not prog.terminates and strategy.startswith("bounded"):
            return Expect(0, frozenset({"sat", "unknown"}), budget_exhausted=True)
        answers = self._answers(prog, flags["--query"])
        return Expect(0, frozenset({"sat" if answers else "unsat"}), answers=answers,
                      budget_exhausted=False)

    def _contained(self, prog: gen.Program, q1: str, q2: str) -> str:
        """q1 in q2: freeze q1's variables to nulls, chase, look for the head."""
        head1, body1 = prog.queries[q1]
        frozen = {}
        for atom in body1:
            for t in atom[1:]:
                if oracle.is_var(t):
                    frozen.setdefault(t, -1 - len(frozen))
        facts = [tuple([a[0]] + [frozen.get(t, t) for t in a[1:]]) for a in body1]
        model = oracle.chase(facts, prog.tgds, terminates=True)
        if not model.complete:
            raise ValueError("containment oracle did not terminate on %s" % prog.name)
        head2, body2 = prog.queries[q2]
        target = tuple(frozen[v] for v in head1)
        rows = {tuple(h[v] for v in head2)
                for h in oracle.matches(body2, oracle.index_atoms(model.atoms))}
        return "yes" if target in rows else "no"


def check(expect: Expect, rc: int, out: str) -> Optional[str]:
    """None when the output meets the expectation, else the reason."""
    if rc != expect.rc:
        return "exit code %d, expected %d" % (rc, expect.rc)
    try:
        payload = json.loads(out)
    except ValueError:
        return "output is not one JSON object"
    status = payload.get("status", payload.get("result", payload.get("verdict")))
    if status not in expect.status:
        return "status %r, expected one of %s" % (status, sorted(expect.status))
    if expect.answers is not None:
        got = {tuple(row) for row in payload["answers"]}
        if got != expect.answers:
            return "answers %s, expected %s" % (sorted(got), sorted(expect.answers))
    if expect.budget_exhausted is not None and \
            payload["budget_exhausted"] is not expect.budget_exhausted:
        return "budget_exhausted is %s" % payload["budget_exhausted"]
    if expect.ground is not None and status in ("saturated", "stabilized"):
        if "ground_atoms" in payload:
            if payload["ground_atoms"] != len(expect.ground):
                return "%d ground atoms, expected %d" % (payload["ground_atoms"],
                                                        len(expect.ground))
        else:
            got = {a for a in payload["atoms"] if "_:" not in a}
            if got != expect.ground:
                return "null-free atoms differ: %d extra, %d missing" % (
                    len(got - expect.ground), len(expect.ground - got))
    return None
