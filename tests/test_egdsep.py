import hashlib
import json

import pytest

from helpers import find_homomorphism, fll_cases

from chasekit.chase import ChaseOptions, EgdStep, Mode, Status, run_chase
from chasekit.egdsep import (
    FailureCheck,
    blocking_chase,
    egd_failure_check,
    monitor_innocuousness,
    separated_answer,
)
from chasekit.cli import main
from chasekit.model import CQ, EGD, TGD, Constant, Instance, Predicate, UsageError, Variable
from chasekit.parser import parse_atom, parse_program, render_atom
from chasekit.plan import RulePlan
from chasekit.query import AnswerStatus, certain_answers, eval_cq
from chasekit.rulesets import fll_rules

FAILING_DB = "fact data(o,a,c1). fact data(o,a,c2). fact funct(a,o)."


def fll_with(facts_text: str):
    program = fll_rules()
    extra = parse_program(facts_text)
    for atom in extra.facts:
        program.facts.add(atom)
    return program


# ---------------------------------------------------------------------------
# failure check
# ---------------------------------------------------------------------------

def test_failure_detected_directly_on_database():
    p = fll_with(FAILING_DB)
    out = egd_failure_check(p.facts, p.tgds, p.egds)
    assert out is FailureCheck.FAILED


def test_no_failure_without_conflicting_data():
    p = fll_with(
        "fact data(o,a,c1). fact funct(a,o). fact type(o,a,t)."
    )
    out = egd_failure_check(p.facts, p.tgds, p.egds)
    assert out is FailureCheck.NO_FAILURE


def test_no_egds_no_failure():
    p = parse_program("fact r(a,b). tgd r(X,Y) -> exists Z: r(Y,Z).")
    assert egd_failure_check(p.facts, p.tgds, []) is FailureCheck.NO_FAILURE


def test_failure_through_derived_atoms():
    # mandatory forces a data value; funct then clashes two constants
    p = fll_with(
        "fact data(o,a,c1). fact data(o,b,c2)."
        "fact sub(c1,c3). fact member(o2,c1)."
    )
    # no funct, no failure
    assert egd_failure_check(p.facts, p.tgds, p.egds) is FailureCheck.NO_FAILURE


def test_unknown_on_budget_exhaustion():
    p = parse_program(
        "fact r(a,b)."
        "tgd r(X,Y) -> exists Z: r(Y,Z)."
        "egd r(X,Y), r(X,Z) -> Y = Z."
    )
    out = egd_failure_check(p.facts, p.tgds, p.egds, max_steps=25)
    assert out is FailureCheck.UNKNOWN


# A program's own neq/2 facts are data, not inequalities: the EGD's only
# trigger equates a with itself, so nothing fails.
OWN_NEQ = """
fact r(c,a).
fact neq(a,a).
egd r(X,Y), r(X,Z) -> Y = Z.
query q(X) :- r(X,Y).
"""


def test_own_neq_facts_are_not_read_as_inequalities(tmp_path, capsys):
    path = tmp_path / "neq.dlp"
    path.write_text(OWN_NEQ)
    outputs = {}
    for command in (["chase"], ["egd-check"], ["answer", "--query", "q", "--egd", "separate"]):
        code = main([command[0], str(path)] + command[1:])
        outputs[command[0]] = (code, capsys.readouterr().out.splitlines())
    assert outputs["chase"] == (0, ["status: saturated", "atoms: 2"])
    assert outputs["egd-check"] == (0, ["egd failure check: no-failure"])
    assert outputs["answer"] == (0, ["query q: sat", "  (c)"])


def test_failure_through_a_head_constant():
    # k enters the chase through the TGD head, not the database
    p, q = Predicate("p", 1), Predicate("q", 2)
    X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
    a, k = Constant("a"), Constant("k")
    facts = Instance([p(a), q(a, a)])
    tgds = [TGD((p(X),), (q(X, k),), frozenset(), label="tgd1")]
    egds = [EGD((q(X, Y), q(X, Z)), Y, Z, label="egd1")]
    assert run_chase(facts, tgds, egds).status is Status.FAILED
    assert egd_failure_check(facts, tgds, egds) is FailureCheck.FAILED


def test_a_built_egd_equating_a_variable_missing_from_its_body_is_rejected():
    # built through the API: refused when built, as the parser refuses it
    Y, Z = Variable("Y"), Variable("Z")
    with pytest.raises(UsageError, match="EGD egd1 equates variable Y absent from its body"):
        EGD((parse_atom("r(X,Z)"),), Y, Z, label="egd1")


def test_failure_check_adds_no_atoms(monkeypatch):
    # 1,000 constants: an inequality relation would hold 999,000 atoms
    p = parse_program("".join("fact s(c%d).\n" % i for i in range(1000)) + """
tgd s(X) -> exists Y: r(X,Y).
egd r(X,Y), r(X,Z) -> Y = Z.
""")
    added = []
    original = Instance.add

    def spy(self, atom):
        added.append(atom)
        return original(self, atom)

    monkeypatch.setattr(Instance, "add", spy)
    assert egd_failure_check(p.facts, p.tgds, p.egds) is FailureCheck.NO_FAILURE
    check = len(added)
    del added[:]
    run_chase(p.facts, p.tgds, (), ChaseOptions(mode=Mode.RESTRICTED))
    assert check == len(added) == 2000


# ---------------------------------------------------------------------------
# separated answering
# ---------------------------------------------------------------------------

def test_failed_theory_reports_failed_status():
    p = fll_with(FAILING_DB)
    q = CQ("q", (), (parse_atom("member(U,V)"),))
    report = separated_answer(p.facts, p.tgds, p.egds, q)
    assert report.status is AnswerStatus.FAILED
    assert report.boolean() is True  # failing theories entail every BCQ


def test_separated_equals_plain_when_no_egds():
    p = parse_program(
        "fact r(a,b). tgd r(X,Y) -> s(Y)."
        "query q(X) :- s(X)."
    )
    lhs = separated_answer(p.facts, p.tgds, [], p.queries[0])
    rhs = certain_answers(p.facts, p.tgds, p.queries[0], ChaseOptions(Mode.RESTRICTED))
    assert lhs.answers == rhs.answers and lhs.status == rhs.status


def test_separated_matches_interleaved_on_nonfailing_case():
    p = fll_with(
        "fact type(o,a,t). fact data(o,a,c1). fact funct(a,o)."
        "fact sub(t,t2)."
    )
    q = CQ("q", (Variable("U"), Variable("T")),
           (parse_atom("member(U,T)"),))
    sep = separated_answer(p.facts, p.tgds, p.egds, q)
    verdict, inter = monitor_innocuousness(p.facts, p.tgds, p.egds)
    assert not verdict.failed
    rows = {row for row in eval_cq(inter.instance, q)
            if all(isinstance(t, Constant) for t in row)}
    assert set(sep.answers) == rows


def test_monitor_flags_innocuous_applications():
    p = fll_with(
        "fact mandatory(a,o). fact funct(a,o). fact data(o,a,c1)."
    )
    verdict, result = monitor_innocuousness(p.facts, p.tgds, p.egds)
    assert not verdict.failed
    assert verdict.all_applications_innocuous


def test_failure_check_agrees_with_interleaved_chase():
    # the static check fires exactly when the interleaved chase fails
    cases = [
        (FAILING_DB, True),
        ("fact data(o,a,c1). fact funct(a,o).", False),
        ("fact mandatory(a,o). fact funct(a,o). fact data(o,a,c1).", False),
        ("fact data(o,a,c1). fact data(o,b,c1). fact funct(a,o)."
         " fact funct(b,o).", False),
        ("fact data(o,a,c1). fact data(o,a,c2). fact funct(a,o2)."
         " fact data(o2,a,c1).", False),
    ]
    for facts, should_fail in cases:
        p = fll_with(facts)
        static = egd_failure_check(p.facts, p.tgds, p.egds)
        verdict, _ = monitor_innocuousness(p.facts, p.tgds, p.egds)
        assert (static is FailureCheck.FAILED) == should_fail, facts
        assert verdict.failed == should_fail, facts


# ---------------------------------------------------------------------------
# blocking chase
# ---------------------------------------------------------------------------

def test_blocking_chase_without_egds_is_plain_chase():
    p = parse_program("fact r(a,b). tgd r(X,Y) -> s(Y).")
    out = blocking_chase(p.facts, p.tgds, [])
    assert out.status is Status.SATURATED
    assert len(out.blocked) == 0
    plain = run_chase(p.facts, p.tgds, [], ChaseOptions(mode=Mode.OBLIVIOUS))
    assert out.unblocked.atom_set() == plain.instance.atom_set()


def test_blocking_chase_banned_atoms_stay_in_a():
    # two derivations of data(o,a,*) for the same o,a; funct merges them
    p = parse_program(
        "fact mand(a,o). fact mand2(a,o). fact funct(a,o)."
        "tgd mand(A,O) -> exists V: data(O,A,V)."
        "tgd mand2(A,O) -> exists V: data(O,A,V)."
        "egd data(O,A,V), data(O,A,W), funct(A,O) -> V = W."
    )
    out = blocking_chase(p.facts, p.tgds, p.egds)
    assert out.status is Status.SATURATED
    assert len(out.blocked) == 1           # the losing data atom is banned
    banned = out.blocked.atoms()[0]
    assert banned in out.unblocked          # never deleted from A
    assert banned not in out.survivors


def test_blocking_chase_aborts_on_constant_clash():
    p = fll_with(FAILING_DB)
    out = blocking_chase(p.facts, p.tgds, p.egds)
    assert out.status is Status.FAILED
    assert out.aborted_on is not None


def test_blocking_chase_aborts_on_non_innocuous_application():
    p = parse_program(
        "fact r(a). fact p(a)."
        "tgd r(X) -> exists Y: t(X,Y)."
        "tgd r(X) -> exists Y: u(X,Y)."
        "tgd t(X,Y), u(X,Z) -> w(Y,Z)."
        "egd t(X,Y), u(X,Z) -> Y = Z."
    )
    out = blocking_chase(p.facts, p.tgds, p.egds)
    # merging t's null into u's (or vice versa) creates w(n,n), t(x,n)
    # images that did not exist: not innocuous
    assert out.status is Status.FAILED
    assert out.aborted_on is not None


def test_blocking_chase_survivors_model_the_dependencies():
    p = fll_with(
        "fact mandatory(a,o). fact funct(a,o). fact data(o,a,c1)."
        "fact type(o,a,t)."
    )
    out = blocking_chase(p.facts, p.tgds, p.egds)
    assert out.status is Status.SATURATED
    survivors = out.survivors
    # every TGD satisfied over the survivors
    from chasekit.chase import body_homomorphisms, head_satisfied

    for rule in p.tgds:
        plan = RulePlan(rule)
        for hom in body_homomorphisms(rule.body, survivors):
            key = tuple(hom[v] for v in plan.vars)
            assert head_satisfied(plan, key, survivors), rule
    for egd in p.egds:
        for hom in body_homomorphisms(egd.body, survivors):
            assert hom[egd.lhs] == hom[egd.rhs], egd


# Innocuous object-logic databases: the oblivious interleaved chase merges
# an invented data value onto a stored constant.  With each, the status,
# survivor count and sha256 of the sorted null-free survivors that the
# blocking chase gave before it ran on the chase engine.
INNOCUOUS_DBS = [
    ("fact mandatory(a,o). fact funct(a,o). fact data(o,a,c1).",
     "saturated", 3, "da6f380b11b3e249e4df64f7100a739c5d2de0a5d58a4e02c3f2401429752bd1"),
    ("fact sub(k1,k0). fact mandatory(a,k0). fact funct(a,k0)."
     "fact member(o1,k1). fact member(o2,k1). fact data(o1,a,v1).",
     "saturated", 17, "04ce7d9425eaad1b2ace9edd0b73c36dfc11dbef2ad78511bc1bb3f78932c3c0"),
    ("fact sub(k1,k0). fact sub(t0,t1). fact mandatory(a0,k0). fact funct(a0,k0)."
     "fact type(k0,a0,t0). fact mandatory(a1,k1). fact funct(a1,k1)."
     "fact member(o1,k1). fact member(o2,k0). fact data(o1,a0,v1). fact data(o1,a1,v2).",
     "saturated", 39, "a406153c65da33f406e6f8203c4315391c6e29d22e47b2ea2d6e5e5889354b98"),
    ("fact sub(k1,k0). fact sub(k2,k0). fact sub(t0,t1)."
     "fact mandatory(a0,k0). fact funct(a0,k0). fact type(k0,a0,t0)."
     "fact mandatory(a1,k1). fact funct(a1,k1). fact type(k1,a1,t1)."
     "fact mandatory(a2,k2). fact funct(a2,k2). fact funct(a1,k2). fact type(k2,a2,t0)."
     "fact member(o0,k1). fact member(o1,k2). fact member(o2,k1)."
     "fact data(o0,a0,v0). fact data(o0,a1,v1). fact data(o1,a2,v2). fact data(o2,a0,v3).",
     "saturated", 82, "dc5cefd7ed35840d4a3fe11778dd1e866af2cf14dad5245764917db51a7121b8"),
]


def assert_blocking_agrees_with_interleaved(p, what):
    """The blocking chase fails exactly when the oblivious interleaved
    chase does.  Otherwise it saturates, its survivors are the oblivious
    interleaved instance, and they map into the restricted interleaved
    instance and back.  Returns the blocking chase and the oblivious run."""
    inter = run_chase(p.facts, p.tgds, p.egds, ChaseOptions(mode=Mode.OBLIVIOUS))
    out = blocking_chase(p.facts, p.tgds, p.egds)
    assert (out.status is Status.FAILED) == (inter.status is Status.FAILED), what
    if inter.status is Status.FAILED:
        return out, inter
    assert out.status is Status.SATURATED, what
    assert out.survivors.atom_set() == inter.instance.atom_set(), what
    assert out.blocked.atom_set() == out.unblocked.atom_set() - out.survivors.atom_set()
    _, restricted = monitor_innocuousness(p.facts, p.tgds, p.egds)
    assert restricted.status is Status.SATURATED, what
    assert find_homomorphism(out.survivors.atoms(), restricted.instance) is not None, what
    assert find_homomorphism(restricted.instance.atoms(), out.survivors) is not None, what
    return out, inter


def test_blocking_chase_agrees_with_interleaved_on_innocuous_runs():
    for facts, status, count, digest in INNOCUOUS_DBS:
        out, inter = assert_blocking_agrees_with_interleaved(fll_with(facts), facts)
        merges = [s for s in inter.steps if isinstance(s, EgdStep)]
        assert merges and all(s.innocuous for s in merges), facts
        assert out.status.value == status, facts
        assert len(out.survivors) == count, facts
        ground = sorted(render_atom(a) for a in out.survivors if a.is_ground())
        assert hashlib.sha256("\n".join(ground).encode()).hexdigest() == digest, facts
    failing = 0
    for seed in (3, 11):
        for i, p in enumerate(fll_cases(seed, 60)):
            out, _ = assert_blocking_agrees_with_interleaved(p, (seed, i))
            failing += out.status is Status.FAILED
    assert failing == 30  # every fourth case is built to fail


# ---------------------------------------------------------------------------
# separability, which --egd separate assumes (ROADMAP item 14)
# ---------------------------------------------------------------------------

# The EGD equates the value the TGD invents for t(a,_) with c: the
# interleaved chase derives t(a,c), the TGD-only chase does not.
ITEM_14 = """
fact r(a,b). fact s(a,c).
tgd r(X,Y) -> exists Z: t(X,Z).
egd t(X,Y), s(X,Z) -> Y = Z.
query q(X) :- t(X,c).
"""
# The same invented value is equated with c and with d: the interleaved
# chase fails, the TGD-only chase holds no clash of two constants.
ITEM_14_FAILING = ITEM_14 + """
fact s2(a,d).
egd t(X,Y), s2(X,Z) -> Y = Z.
"""
item_14 = pytest.mark.xfail(strict=True, reason="ROADMAP item 14")


def run_json(capsys, *argv):
    code = main(list(argv) + ["--format", "json"])
    return code, json.loads(capsys.readouterr().out)


@item_14
def test_an_exact_separated_answer_equals_the_interleaved_one(tmp_path, capsys):
    path = tmp_path / "item14.dlp"
    path.write_text(ITEM_14)
    _, interleaved = run_json(capsys, "answer", str(path), "--query", "q",
                              "--strategy", "terminate")
    assert interleaved["status"] == "sat" and interleaved["answers"] == [["a"]]
    _, separated = run_json(capsys, "answer", str(path), "--query", "q", "--egd", "separate")
    # a separated answer is a lower bound unless the EGDs are separable
    assert separated["budget_exhausted"] or separated == interleaved


@item_14
def test_a_decided_failure_check_agrees_with_the_chase(tmp_path, capsys):
    path = tmp_path / "item14.dlp"
    path.write_text(ITEM_14_FAILING)
    assert run_json(capsys, "chase", str(path))[1]["status"] == "failed"
    assert run_json(capsys, "answer", str(path), "--query", "q",
                    "--strategy", "terminate")[1]["status"] == "failed"
    _, check = run_json(capsys, "egd-check", str(path))
    assert check["result"] in ("failed", "unknown")
