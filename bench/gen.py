"""Seeded generators for the benchmark's workloads.

Every workload is a list of program files plus a fixed list of jobs run
against them.  Programs are built here as plain tuples (the format
`oracle.py` reads) and rendered to chasekit's text format, so every job
goes through the parser.  Nothing here imports chasekit or the test
helpers: an edit to either cannot shift the inputs.

The same (workload, seed) always yields byte-identical files: all
randomness comes from one `random.Random` seeded with a string, and no
set or dict order reaches the output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

Atom = Tuple[str, ...]
Tgd = Tuple[Tuple[Atom, ...], Atom, Tuple[str, ...]]  # body, head, existentials
Egd = Tuple[Tuple[Atom, ...], str, str]               # body, lhs, rhs
Query = Tuple[Tuple[str, ...], Tuple[Atom, ...]]      # head variables, body


@dataclass
class Program:
    name: str
    facts: List[Atom] = field(default_factory=list)
    tgds: List[Tgd] = field(default_factory=list)
    egds: List[Egd] = field(default_factory=list)
    queries: Dict[str, Query] = field(default_factory=dict)
    terminates: bool = True        # known by construction
    failing: bool = False          # an EGD equates two constants (object logic)
    graph: Optional[Tuple[Tuple[str, ...], Tuple[Tuple[str, str], ...]]] = None

    def text(self) -> str:
        lines = ["%% %s" % self.name]
        lines += ["fact %s." % _atom(a) for a in self.facts]
        for body, head, exist in self.tgds:
            ex = "exists %s: " % ",".join(exist) if exist else ""
            lines.append("tgd %s -> %s%s." % (_atoms(body), ex, _atom(head)))
        for body, lhs, rhs in self.egds:
            lines.append("egd %s -> %s = %s." % (_atoms(body), lhs, rhs))
        for name, (head, body) in self.queries.items():
            lines.append("query %s(%s) :- %s." % (name, ",".join(head), _atoms(body)))
        return "\n".join(lines) + "\n"


def _atom(a: Atom) -> str:
    return "%s(%s)" % (a[0], ",".join(a[1:]))


def _atoms(atoms: Sequence[Atom]) -> str:
    return ", ".join(_atom(a) for a in atoms)


@dataclass(frozen=True)
class Job:
    """One timed unit of work: a `chasekit` command line, or a library call.

    `argv` names the program by its bare name; the runner substitutes the
    file path.  `lib` names a library entry point for jobs with no CLI
    command (only `blocking_chase`).
    """

    name: str
    program: str
    argv: Tuple[str, ...] = ()
    lib: Optional[str] = None


@dataclass
class Workload:
    programs: Dict[str, Program]
    jobs: List[Job]
    first_round: int = 0  # jobs[:first_round] is round 0, the traced pass


# ---------------------------------------------------------------------------
# Weakly guarded programs over binary predicates
# ---------------------------------------------------------------------------

CONSTS = ["c%d" % i for i in range(8)]


def chain_program(rng: random.Random, name: str, variant: int) -> Program:
    """The nonterminating chain shape: a symmetric relation C that grows a
    fresh successor for every pair, and a composition of B with C.

    This is the shape whose oblivious chase cost grows quadratically
    with the step budget.  `variant` (0-3) picks the fifth rule, a
    guarded join or a linear copy, and one of two fact patterns.  The
    seed draws the predicate roles and the constant names.  The
    oblivious chase of this shape grows exponentially with
    depth from every C fact, so fixing the pattern keeps a job's cost
    from swinging with the seed.  Every rule is linear or guarded apart
    from the composition, whose weak guard is its C atom, so the set is
    weakly guarded.
    """
    a, b, c, d = rng.sample(["r0", "r1", "r2", "r3"], 4)
    tgds: List[Tgd] = [
        (((a, "X", "Y"),), (b, "Y", "X"), ()),
        (((b, "X", "Y"), (c, "Y", "Z")), (b, "X", "Z"), ()),
        (((c, "X", "Y"),), (c, "Y", "X"), ()),
        (((c, "X", "Y"),), (c, "Y", "Z"), ("Z",)),
    ]
    if variant % 2 == 0:
        tgds.append((((b, "X", "Y"), (d, "Y", "Y")), (d, "X", "Y"), ()))
    else:
        tgds.append((((d, "X", "Y"),), (a, "Y", "X"), ()))
    k = rng.sample(CONSTS[:5], 5)
    facts = [(c, k[0], k[1]), (a, k[2], k[0]), (b, k[1], k[3]), (d, k[3], k[3])]
    if variant // 2 == 0:
        facts += [(c, k[2], k[3]), (a, k[1], k[4])]
    else:
        facts += [(a, k[4], k[2]), (b, k[4], k[0])]
    return Program(
        name, facts, tgds,
        queries={"j": (("X", "Z"), ((b, "X", "Y"), (c, "Y", "Z"))),
                 "a": (("X", "Y"), ((b, "X", "Y"),))},
        terminates=False,
    )


def stratified_program(rng: random.Random, name: str, n_facts: int) -> Program:
    """A terminating weakly guarded set: predicates s0..s4 form strata,
    existential rules point strictly upward and full rules never point
    downward, so invented values climb finitely many strata.  Rules are
    linear or guarded, hence weakly guarded."""
    preds = ["s%d" % i for i in range(5)]
    tgds: List[Tgd] = []
    for i in range(4):
        j = rng.randint(i + 1, 4)
        tgds.append((((preds[i], "X", "Y"),), (preds[j], "Y", "Z"), ("Z",)))
    for _ in range(4):
        i, k = rng.randint(0, 3), rng.randint(0, 3)
        j = rng.randint(max(i, k), 4)
        if rng.random() < 0.5:
            tgds.append((((preds[i], "X", "Y"), (preds[k], "Y", "X")),
                         (preds[j], "X", "Y"), ()))
        else:
            tgds.append((((preds[i], "X", "Y"),), (preds[j], "Y", "X"), ()))
    consts = CONSTS[:6]
    facts: List[Atom] = []
    while len(facts) < n_facts:
        f = (preds[rng.randint(0, 2)], rng.choice(consts), rng.choice(consts))
        if f not in facts:
            facts.append(f)
    p, q = rng.choice(preds[1:]), rng.choice(preds[1:])
    return Program(
        name, facts, tgds,
        queries={"j": (("X", "Z"), ((p, "X", "Y"), (q, "Y", "Z"))),
                 "a": (("X", "Y"), ((rng.choice(preds), "X", "Y"),))},
    )


# ---------------------------------------------------------------------------
# Object-logic databases
# ---------------------------------------------------------------------------

FLL_TGDS: List[Tgd] = [
    ((("type", "O", "A", "T"), ("data", "O", "A", "V")), ("member", "V", "T"), ()),
    ((("sub", "C1", "C3"), ("sub", "C3", "C2")), ("sub", "C1", "C2"), ()),
    ((("member", "O", "C"), ("sub", "C", "C1")), ("member", "O", "C1"), ()),
    ((("mandatory", "A", "O"),), ("data", "O", "A", "V"), ("V",)),
    ((("member", "O", "C"), ("type", "C", "A", "T")), ("type", "O", "A", "T"), ()),
    ((("sub", "C", "C1"), ("type", "C1", "A", "T")), ("type", "C", "A", "T"), ()),
    ((("type", "C", "A", "T1"), ("sub", "T1", "T")), ("type", "C", "A", "T"), ()),
    ((("sub", "C", "C1"), ("mandatory", "A", "C1")), ("mandatory", "A", "C"), ()),
    ((("member", "O", "C"), ("mandatory", "A", "C")), ("mandatory", "A", "O"), ()),
    ((("sub", "C", "C1"), ("funct", "A", "C1")), ("funct", "A", "C"), ()),
    ((("member", "O", "C"), ("funct", "A", "C")), ("funct", "A", "O"), ()),
]
FLL_EGD: Egd = ((("data", "O", "A", "V"), ("data", "O", "A", "W"),
                 ("funct", "A", "O")), "V", "W")
FLL_QUERIES: Dict[str, Query] = {
    "m": (("O", "T"), (("member", "O", "T"),)),
    "d": (("O", "A", "V"), (("data", "O", "A", "V"), ("funct", "A", "O"))),
}


def fll_program(rng: random.Random, name: str, n_objects: int, failing: bool) -> Program:
    """An object-logic database over the eleven TGDs and the funct EGD.

    A fixed schema: class k0 has two subclasses; each class makes one
    attribute mandatory and functional, and k2 adds a functional one.
    Three in four mandatory slots already carry a constant value, so the
    oblivious chase invents a null that the EGD merges onto that
    constant.  Half the objects sit in each subclass; the seed picks
    which, which slots are filled and the value names, so the cost is
    mostly a function of the object count.  Value types carry no mandatory attributes, which
    keeps the chase finite.  A failing database gives one object two
    constants on one functional attribute.
    """
    facts: List[Atom] = [
        ("sub", "k1", "k0"), ("sub", "k2", "k0"), ("sub", "t0", "t1"),
        ("mandatory", "a0", "k0"), ("funct", "a0", "k0"), ("type", "k0", "a0", "t0"),
        ("mandatory", "a1", "k1"), ("funct", "a1", "k1"), ("type", "k1", "a1", "t1"),
        ("mandatory", "a2", "k2"), ("funct", "a2", "k2"), ("funct", "a1", "k2"),
        ("type", "k2", "a2", "t0"),
    ]
    objects = ["o%d" % i for i in range(n_objects)]
    classes = ["k1", "k2"] * (n_objects // 2) + ["k1"] * (n_objects % 2)
    rng.shuffle(classes)
    slots = [(obj, attr) for obj, cls in zip(objects, classes)
             for attr in ("a0", "a1" if cls == "k1" else "a2")]
    filled = set(rng.sample(range(len(slots)), (3 * len(slots)) // 4))
    for obj, cls in zip(objects, classes):
        facts.append(("member", obj, cls))
    for i, (obj, attr) in enumerate(slots):
        if i in filled:
            facts.append(("data", obj, attr, "v%d%s" % (rng.randrange(1000), attr)))
    if failing:
        obj = rng.choice(objects)
        facts += [("data", obj, "a0", "w1"), ("data", obj, "a0", "w2")]
    return Program(name, facts, list(FLL_TGDS), [FLL_EGD], dict(FLL_QUERIES),
                   failing=failing)


# ---------------------------------------------------------------------------
# 3-colorability gadgets
# ---------------------------------------------------------------------------

def coloring_program(name: str, vertices: Sequence[str],
                     edges: Sequence[Tuple[str, str]]) -> Program:
    """Six facts listing distinct color pairs, and a Boolean query that
    holds exactly when the graph is 3-colorable; bundled with the
    object-logic rules as in the built-in gadget."""
    colors = ("r", "g", "b")
    facts = [("data", "o", x, y) for x in colors for y in colors if x != y]
    body: List[Atom] = []
    for u, v in edges:
        body.append(("data", "X", "V" + u, "V" + v))
        body.append(("data", "X", "V" + v, "V" + u))
    return Program(name, facts, list(FLL_TGDS), [FLL_EGD],
                   queries={"color": ((), tuple(body))},
                   graph=(tuple(vertices), tuple(edges)))


def cycle(n: int) -> Tuple[List[str], List[Tuple[str, str]]]:
    vs = ["v%d" % i for i in range(n)]
    return vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)]


def complete(n: int) -> Tuple[List[str], List[Tuple[str, str]]]:
    vs = ["v%d" % i for i in range(n)]
    return vs, [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n)]


def sparse(rng: random.Random, n: int, m: int) -> Tuple[List[str], List[Tuple[str, str]]]:
    """A random connected graph: a random spanning tree plus extra edges."""
    vs = ["v%d" % i for i in range(n)]
    edges = [(vs[rng.randrange(i)], vs[i]) for i in range(1, n)]
    while len(edges) < m:
        i, j = sorted(rng.sample(range(n), 2))
        if (vs[i], vs[j]) not in edges and (vs[j], vs[i]) not in edges:
            edges.append((vs[i], vs[j]))
    return vs, edges


def containment_program(rng: random.Random, name: str) -> Program:
    """A terminating weakly guarded set with query pairs q1/q2 over it;
    q2 is q1 with one atom dropped half the time, so both verdicts occur."""
    prog = stratified_program(rng, name, n_facts=2)
    preds = ["s%d" % i for i in range(5)]
    for k in range(3):
        p, q = rng.choice(preds[:3]), rng.choice(preds)
        q1 = (("X",), ((p, "X", "Y"), (q, "Y", "Z")))
        if rng.random() < 0.5:
            q2 = (("X",), ((p, "X", "Y"),))
        else:
            q2 = (("X",), ((rng.choice(preds), "X", "Y"), (rng.choice(preds), "Y", "W")))
        prog.queries["p%d" % k] = q1
        prog.queries["r%d" % k] = q2
    return prog


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _cli(name: str, program: str, command: str, *flags: str) -> Job:
    return Job(name, program, (command, "{file}") + flags)


def wg_chase(rng: random.Random, r: int) -> Workload:
    """Chase and answer jobs on weakly guarded programs; no EGDs.

    A round holds 12 cheap jobs (restricted chases, bounded:4 answers,
    terminate answers on stratified programs), 8 oblivious chases of
    250-275 steps and 12 of 350-450 steps, so the median job falls
    inside the middle block and not on the edge between two costs.
    """
    programs: Dict[str, Program] = {}
    jobs: List[Job] = []
    for i in range(4):
        p = chain_program(rng, "r%02d-chain%d" % (r, i), variant=i)
        programs[p.name] = p
        for n in (250, 275, 350, 400, 450):
            jobs.append(_cli("%s/chase-obl-%d" % (p.name, n), p.name, "chase",
                             "--mode", "oblivious", "--max-steps", str(n),
                             "--format", "json"))
        jobs.append(_cli("%s/chase-res" % p.name, p.name, "chase", "--mode",
                         "restricted", "--max-steps", "400", "--format", "json"))
        jobs.append(_cli("%s/answer-bounded-4" % p.name, p.name, "answer", "--query", "j",
                         "--strategy", "bounded:4", "--format", "json"))
        s = stratified_program(rng, "r%02d-strat%d" % (r, i), n_facts=14)
        programs[s.name] = s
        jobs.append(_cli("%s/answer-terminate" % s.name, s.name, "answer", "--query", "j",
                         "--strategy", "terminate", "--format", "json"))
    return Workload(programs, jobs)


def fll_egd(rng: random.Random, r: int) -> Workload:
    """EGD-heavy jobs on object-logic databases of growing size; one
    database in five fails."""
    programs: Dict[str, Program] = {}
    jobs: List[Job] = []
    for i, n in enumerate((3, 4, 5, 6, 4)):
        p = fll_program(rng, "r%02d-fll%d" % (r, i), n, failing=(i == 4))
        programs[p.name] = p
        jobs += [
            _cli("%s/answer-default" % p.name, p.name, "answer", "--query", "m",
                 "--format", "json"),
            _cli("%s/answer-terminate" % p.name, p.name, "answer", "--query", "d",
                 "--strategy", "terminate", "--format", "json"),
            _cli("%s/answer-separate" % p.name, p.name, "answer", "--query", "m",
                 "--egd", "separate", "--format", "json"),
            _cli("%s/egd-check" % p.name, p.name, "egd-check", "--format", "json"),
        ]
        if n <= 4:
            jobs.append(Job("%s/blocking-chase" % p.name, p.name, lib="blocking_chase"))
    return Workload(programs, jobs)


def wg_saturate(rng: random.Random, r: int, failing: bool = False) -> Workload:
    """Cloud-store saturation: store-stats and blocked-atomic answers on
    weakly guarded programs, and blocked-atomic answers on small
    object-logic programs, whose rules include the EGD.

    A round holds 6 cheap jobs on small stratified programs, 8 on the two
    lighter chain variants and 6 heavier ones, so the median job falls
    inside the middle block.
    """
    programs: Dict[str, Program] = {}
    jobs: List[Job] = []
    if not failing:
        progs = [stratified_program(rng, "r%02d-strat%d" % (r, i), n_facts=6)
                 for i in range(3)]
        progs += [chain_program(rng, "r%02d-chain%d" % (r, i), variant=v)
                  for i, v in enumerate((2, 3, 2, 3, 0, 1))]
        for p in progs:
            programs[p.name] = p
            jobs.append(_cli("%s/store-stats" % p.name, p.name, "store-stats",
                             "--format", "json"))
            jobs.append(_cli("%s/answer-blocked" % p.name, p.name, "answer",
                             "--query", "a", "--strategy", "blocked-atomic",
                             "--format", "json"))
    for i, n in enumerate((3, 4)):
        p = fll_program(rng, "r%02d-fll%d" % (r, i), n, failing=failing)
        programs[p.name] = p
        jobs.append(_cli("%s/answer-blocked" % p.name, p.name, "answer", "--query", "m",
                         "--strategy", "blocked-atomic", "--format", "json"))
    return Workload(programs, jobs)


def cq_3col(rng: random.Random, r: int) -> Workload:
    """Boolean 3-colorability queries, and a few containment checks."""
    programs: Dict[str, Program] = {}
    jobs: List[Job] = []
    graphs = [("c%d" % n, cycle(n)) for n in (5, 7, 9, 11)]
    graphs += [("k%d" % n, complete(n)) for n in (3, 4, 5, 6)]
    graphs += [("g%d" % i, sparse(rng, n, m))
               for i, (n, m) in enumerate(((6, 9), (7, 10), (8, 11), (8, 12)))]
    for gname, (vs, es) in graphs:
        # the fixed graphs are the same file in every round
        name = ("r%02d-col-%s" % (r, gname)) if gname[0] == "g" else "col-" + gname
        p = coloring_program(name, vs, es)
        programs[p.name] = p
        jobs.append(_cli("%s/answer-terminate" % p.name, p.name, "answer", "--query",
                         "color", "--strategy", "terminate", "--format", "json"))
    for i in range(2):
        p = containment_program(rng, "r%02d-cont%d" % (r, i))
        programs[p.name] = p
        for k in range(3):
            jobs.append(_cli("%s/contain-%d" % (p.name, k), p.name, "contain",
                             "--q1", "p%d" % k, "--q2", "r%d" % k, "--format", "json"))
    return Workload(programs, jobs)


# name -> (one round's generator, rounds).  A run walks the rounds in
# order, each round's jobs shuffled, in passes until its time limit.  The
# round counts make one pass take about 5 to 8 s on a 2-core machine at
# the commit that added the benchmark, so a 25 s run repeats each job
# three to five times.
WORKLOADS = {
    "wg-chase": (wg_chase, 2),
    "fll-egd": (fll_egd, 3),
    "wg-saturate": (wg_saturate, 7),
    "cq-3col": (cq_3col, 12),
    "wg-saturate-failing": (lambda rng, r: wg_saturate(rng, r, failing=True), 7),
}


def build(workload: str, seed: int) -> Workload:
    """All rounds of a workload for one seed."""
    make, rounds = WORKLOADS[workload]
    rng = random.Random("%s:%d" % (workload, seed))
    programs: Dict[str, Program] = {}
    jobs: List[Job] = []
    for r in range(rounds):
        part = make(rng, r)
        programs.update(part.programs)
        order = list(part.jobs)
        rng.shuffle(order)
        jobs += order
    return Workload(programs, jobs, first_round=len(jobs) // rounds)
