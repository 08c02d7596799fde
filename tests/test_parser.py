import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import (
    fll_cases,
    programs_equal,
    random_join_query,
    random_linear_program,
    reference_parse_atom,
    reference_parse_instance,
    reference_parse_program,
    run_optimized,
    wg_cases,
)

import chasekit
from chasekit.model import EGD, TGD, Constant, Instance, Program, Variable
from chasekit.parser import (
    ParseError,
    answer_json,
    parse_atom,
    parse_instance,
    parse_program,
    render_program,
)
from chasekit.rulesets import FLL_TEXT, builtin_program

EXAMPLE_CHASE = """
% the running four-rule example
fact r1(a,b).
tgd r3(X,Y) -> r2(X).
tgd r1(X,Y) -> exists Z: r3(Y,Z).
tgd r1(X,Y), r2(Y) -> exists Z: r1(Y,Z).
tgd r1(X,Y) -> r2(Y).
"""


def test_running_example_parses():
    p = parse_program(EXAMPLE_CHASE)
    assert len(p.tgds) == 4
    assert len(p.facts) == 1
    assert p.tgds[1].existentials == frozenset({Variable("Z")})


def test_empty_program():
    p = parse_program("")
    assert len(p.facts) == 0 and not p.tgds and not p.egds and not p.queries


def test_unsafe_tgd_rejected():
    with pytest.raises(ParseError):
        parse_program("tgd r(X) -> s(Y).")


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_safety_errors_do_not_follow_string_hashing(hash_seed):
    # the first unsafe head variable in head order, the first existential
    # by name; at seeds 1 and 2 set order named A, D and Y instead
    code = ("from chasekit.parser import ParseError, parse_program\n"
            "for text in ('tgd r(X) -> s(O,A,B,C,D,E).',\n"
            "             'tgd r(X,Y) -> exists X,Y: s(X,Y).'):\n"
            "    try:\n"
            "        parse_program(text)\n"
            "    except ParseError as e:\n"
            "        print(e)\n")
    src = str(Path(chasekit.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed),
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.splitlines() == [
        "1:5: unsafe TGD tgd1: head variable O neither in body nor existential",
        "1:5: TGD tgd1: existential X also occurs in the body",
    ], proc.stderr


def test_head_constant_must_occur_in_body():
    with pytest.raises(ParseError):
        parse_program("tgd r(X) -> s(X, c).")
    parse_program("tgd r(X, c) -> s(X, c).")  # fine


def test_egd_variables_must_occur_in_body():
    with pytest.raises(ParseError):
        parse_program("egd r(X,Y) -> X = Z.")


def test_arity_mismatch_rejected():
    with pytest.raises(ParseError):
        parse_program("fact r(a). fact r(a,b).")


def test_facts_must_be_ground():
    with pytest.raises(ParseError):
        parse_program("fact r(X).")
    with pytest.raises(ParseError):
        parse_program("fact r(_:n1).")


def test_nulls_allowed_in_inspection_instances():
    inst = parse_instance("r(a,_:n3), s(_:n3,b).")
    assert len(inst) == 2
    assert inst.max_null_index() == 3


def test_reserved_null_index_rejected_with_position():
    with pytest.raises(ParseError) as err:
        parse_instance("r(a,_:n7).\nr(b,_:n1000000001).")
    assert (err.value.line, err.value.column) == (2, 5)
    assert parse_instance("r(a,_:n999999999).").max_null_index() == 999_999_999


def test_comments_and_whitespace():
    p = parse_program("  % comment\n\nfact   r ( a , b ) .  % trailing\n")
    assert len(p.facts) == 1


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_program("fact r(a,b)")
    assert "1:" in str(err.value)


# Every error the parser raises: the parsing function, the text, and the
# message, line and column of the ParseError.
PARSE_ERRORS = [
    (parse_program, "fact r(a$).", "unexpected character '$'", 1, 9),
    (parse_instance, "r(a,\n  _:nx).", "malformed null, expected digits after _:n", 2, 3),
    (parse_instance, "r(_:n\u00b2).", "malformed null, expected digits after _:n", 1, 3),
    (parse_program, "fact r(a).\nfact s(_:n1).", "labeled nulls are not allowed here", 2, 8),
    (parse_instance, "r(a).\nr(X).", "variables are not allowed here", 2, 3),
    (parse_instance, "r(a,_:n7).\nr(b,_:n1000000001).",
     "null index 1000000001 is reserved for canonical nulls", 2, 5),
    (parse_program, "fact r(,a).", "expected a term", 1, 8),
    (parse_program, "fact r(a,", "expected a term", 1, 10),
    (parse_program, "tgd r(X) -> S(X).", "expected a predicate name, found 'S'", 1, 13),
    (parse_program, "egd r(X,Y) -> X = a.", "expected a variable, found 'a'", 1, 19),
    (parse_program, "tgd r(X) -> exists 1: s(X).", "expected a variable, found '1'", 1, 20),
    (parse_program, "query q(a) :- r(a).", "expected a variable, found 'a'", 1, 9),
    (parse_program, "query Q(X) :- r(X).", "expected a query name, found 'Q'", 1, 7),
    (parse_program, "rule r(a).", "expected fact, tgd, egd or query", 1, 1),
    (parse_program, "fact r(a) fact s(b).", "expected '.', found 'fact'", 1, 11),
    (parse_program, "fact r(a,b)", "expected '.', found 'end of input'", 1, 12),
    (parse_program, "fact r(a) % c", "expected '.', found 'end of input'", 1, 14),
    (parse_program, "tgd r(X) s(X).", "expected '->', found 's'", 1, 10),
    (parse_program, "query q(X) r(X).", "expected ':-', found 'r'", 1, 12),
    (parse_program, "fact r(a b).", "expected ')', found 'b'", 1, 10),
    (parse_program, "tgd r(X) -> exists Z s(X,Z).", "expected ':', found 's'", 1, 22),
    (parse_program, "egd r(X,Y) -> X Y.", "expected '=', found 'Y'", 1, 17),
    (parse_program, "  fact r(a).\n\tfact r(a,b).",
     "predicate r used with arity 2, declared with 1", 2, 7),
    (parse_program, "fact r(a).\nfact r(X).", "facts must be ground", 2, 6),
    (parse_program, "% unsafe\ntgd r(X) -> s(Y).",
     "unsafe TGD tgd1: head variable Y neither in body nor existential", 2, 5),
    (parse_program, "tgd p(X) -> exists Z: s(X).",
     "TGD tgd1: existential Z does not occur in the head", 1, 5),
    (parse_program, "egd r(X,Y) -> X = Z.",
     "EGD egd1 equates variable Z absent from its body", 1, 5),
    (parse_program, "fact r(a).\n  query q(Y) :- r(X).",
     "query q: head variable Y not in body", 2, 9),
    # the names chasekit invents, helper predicates v.<i> and frozen
    # constants c.<i>, hold `.`, which only ends a statement; where it
    # ends one after a name, the error is at the `.`
    (parse_program, "fact v.1(a).", "'.' ends the statement after v: names hold no '.'", 1, 7),
    (parse_program, "fact p(c.1).", "expected ')', found '.'", 1, 9),
    (parse_program, "tgd v.1(X) -> p(X).", "expected '->', found '.'", 1, 6),
    (parse_program, "tgd p(X) -> v.1(X).", "'.' ends the statement after v: names hold no '.'",
     1, 14),
    (parse_program, "egd p(X,Y), p(X,c.1) -> X = Y.", "expected ')', found '.'", 1, 18),
    (parse_program, "query q(X) :- v.1(X).",
     "'.' ends the statement after v: names hold no '.'", 1, 16),
    (parse_program, "query q(X) :- p(X,c.1).", "expected ')', found '.'", 1, 20),
    (parse_program, "fact r(a,b). query q(X) :- r(X,Y). query q(X) :- r(Y,X).",
     "query q is declared twice", 1, 42),
]


@pytest.mark.parametrize("parse, text, message, line, column", PARSE_ERRORS)
def test_parse_errors_give_message_line_and_column(parse, text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == "%d:%d: %s" % (line, column, message)
    assert (err.value.line, err.value.column) == (line, column)


def test_superscript_digits_do_not_make_a_null():
    # "\u00b2".isdigit() holds, but int() rejects it
    for parse in (parse_instance, parse_atom):
        with pytest.raises(ParseError, match="malformed null"):
            parse("r(_:n\u00b2)")


def test_parse_atom_rejects_trailing_text():
    with pytest.raises(ParseError) as err:
        parse_atom("r(a) s(b)")
    assert str(err.value) == "1:6: expected end of input, found 's'"
    assert parse_atom(" r(a) % a comment\n") == parse_atom("r(a)")


def test_query_forms():
    p = parse_program("query q(X) :- r1(X,Y), r2(Y).\nquery b() :- r2(X).")
    assert p.queries[0].arity == 1
    assert p.queries[1].is_boolean()


def test_boolean_query_empty_body():
    p = parse_program("query q() :- .")
    assert p.queries[0].body == ()


def test_round_trip_fll():
    p = parse_program(FLL_TEXT)
    again = parse_program(render_program(p))
    assert programs_equal(p, again)
    assert render_program(again) == render_program(parse_program(render_program(again)))


def test_round_trip_running_example():
    p = parse_program(EXAMPLE_CHASE)
    assert programs_equal(p, parse_program(render_program(p)))


def test_existentials_render_in_head_occurrence_order():
    p = parse_program("tgd t(X) -> exists W, Z: p(X,Z,W).")
    assert "exists Z, W:" in render_program(p)


def test_render_empty_program():
    assert render_program(parse_program("")) == ""


def assert_reprs_parse_back(tgds, egds, queries):
    """Each rule's and query's repr, with its keyword and a period, parses
    to the same object, apart from the rule's label."""
    for rule in tgds:
        (again,) = parse_program("tgd %r." % rule).tgds
        assert TGD(again.body, again.head, again.existentials, rule.label) == rule, rule
    for rule in egds:
        (again,) = parse_program("egd %r." % rule).egds
        assert EGD(again.body, again.lhs, again.rhs, rule.label) == rule, rule
    for q in queries:
        assert parse_program("query %r." % q).queries == [q], q


def test_reprs_are_program_syntax():
    rng = random.Random(23)
    for p in [builtin_program(name) for name in ("fll", "grid", "3col-k3", "3col-k4",
                                                 "3col-c5")] + list(fll_cases(1, 4)):
        queries = p.queries or [random_join_query(rng, p.facts, p.tgds)]
        assert_reprs_parse_back(p.tgds, p.egds, queries)
    cases = list(wg_cases(1, 60)) + [random_linear_program(rng) for _ in range(60)]
    for db, rules in cases:
        assert_reprs_parse_back(rules, [], [random_join_query(rng, db, rules)
                                            for _ in range(3)])


def test_tgd_repr_lists_existentials_in_head_order():
    (rule,) = parse_program("tgd t(X) -> exists W, Y, Z: p(X,Z,W), s(Y,W).").tgds
    assert repr(rule) == "t(X) -> exists Z, W, Y: p(X,Z,W), s(Y,W)"


# ---------------------------------------------------------------------------
# Fuzzed round trips
# ---------------------------------------------------------------------------

def random_program_text(rng: random.Random) -> str:
    lines = []
    preds = {}

    def pred(arity_hint=None):
        name = "p%d" % rng.randint(0, 5)
        arity = preds.setdefault(name, arity_hint or rng.randint(0, 3))
        return name, arity

    def term_c():
        return rng.choice(["a", "b", "c", "d0", "e_f"])

    def atom(vars_avail):
        name, arity = pred()
        args = [rng.choice(vars_avail + [term_c()]) if vars_avail else term_c()
                for _ in range(arity)]
        return "%s(%s)" % (name, ",".join(args)) if arity else name

    for _ in range(rng.randint(0, 12)):
        kind = rng.random()
        if kind < 0.4:
            name, arity = pred()
            args = ",".join(term_c() for _ in range(arity))
            lines.append("fact %s%s." % (name, "(%s)" % args if arity else ""))
        elif kind < 0.75:
            vars_avail = ["X", "Y"]
            body = ", ".join(atom(vars_avail) for _ in range(rng.randint(1, 2)))
            # keep heads safe: reuse body variables only, plus one existential
            if rng.random() < 0.4:
                name, arity = pred()
                if arity == 0:
                    lines.append("tgd %s -> %s." % (body, name))
                    continue
                args = ["Z"] + [rng.choice(vars_avail) for _ in range(arity - 1)]
                if not any(v in body for v in vars_avail if v in args):
                    continue
                if all(v == "Z" or ("%s" % v) in body for v in args):
                    lines.append(
                        "tgd %s -> exists Z: %s(%s)." % (body, name, ",".join(args))
                    )
            else:
                name, arity = pred()
                args = [rng.choice(vars_avail) for _ in range(arity)]
                if all(("%s" % v) in body for v in args):
                    lines.append(
                        "tgd %s -> %s%s."
                        % (body, name, "(%s)" % ",".join(args) if arity else "")
                    )
        elif kind < 0.85:
            name, arity = pred(2)
            if arity >= 2:
                lines.append("egd %s(X,Y), %s(X,X) -> X = Y." % (name, name))
        else:
            body = atom(["X"])
            if "X" in body:
                lines.append("query q%d(X) :- %s." % (rng.randint(0, 3), body))
    return "\n".join(lines)


def test_fuzz_round_trip_500():
    rng = random.Random(20240901)
    checked = 0
    while checked < 500:
        text = random_program_text(rng)
        try:
            p = parse_program(text)
        except ParseError:
            continue
        checked += 1
        rendered = render_program(p)
        again = parse_program(rendered)
        assert programs_equal(p, again), text
        assert render_program(again) == rendered, text


# ---------------------------------------------------------------------------
# Differential test against the reference parser
# ---------------------------------------------------------------------------

BENCH = Path(__file__).resolve().parent.parent / "bench"

# what a mutation inserts or puts in place of a character
MUTATION_PIECES = ["%", "_:n", "_:n7", "_:n1000000003", "\u00b2", "\t", "\r", "\u00a0",
                   "\n", "(", ")", ",", ".", ":", ":-", "-", ">", "=", "X", "a", "1", "$",
                   "exists", "fact"]


def mutate(rng: random.Random, text: str) -> str:
    """One character deleted, inserted or replaced, a truncation, or a
    trailing comment or fragment."""
    at = rng.randrange(len(text) + 1)
    kind = rng.randrange(5)
    if kind == 0 and text:
        at = min(at, len(text) - 1)
        return text[:at] + text[at + 1:]
    if kind == 1:
        return text[:at] + rng.choice(MUTATION_PIECES) + text[at:]
    if kind == 2 and text:
        at = min(at, len(text) - 1)
        return text[:at] + rng.choice(MUTATION_PIECES) + text[at + 1:]
    if kind == 3:
        return text[:at]
    return text + rng.choice(["% trailing comment", "\n% comment\n", " %", " fact", "."])


def as_instance_text(rng: random.Random, program_text: str) -> str:
    """The facts of a program as an instance, some constants made nulls."""
    facts = [line[len("fact "):] for line in program_text.splitlines()
             if line.startswith("fact ")]
    return re.sub(r"\b[a-z]\w*\b(?=[,)])",
                  lambda m: "_:n%d" % rng.choice((1, 7, 999999999, 1000000000))
                  if rng.random() < 0.2 else m.group(0),
                  "\n".join(facts))


def parse_corpus(seed: int):
    """About 2,000 texts: bench programs, built-in and fuzzed programs,
    instances and single atoms taken from them, each with mutations."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import gen  # bench/gen.py, which imports nothing from chasekit

    rng = random.Random(seed)
    programs = [FLL_TEXT, EXAMPLE_CHASE] + [row[1] for row in PARSE_ERRORS]
    for workload in sorted(gen.WORKLOADS):
        programs += [p.text() for p in gen.build(workload, seed).programs.values()]
    programs += [random_program_text(rng) for _ in range(300)]
    instances = [as_instance_text(rng, text) for text in rng.sample(programs, 150)]
    atoms = [m.group(0) for text in rng.sample(programs, 60)
             for m in re.finditer(r"\w+\([^()]*\)", text)]
    atoms = rng.sample(atoms, 300)
    texts = programs + instances + atoms
    texts += [mutate(rng, rng.choice(programs)) for _ in range(850)]
    texts += [mutate(rng, rng.choice(instances)) for _ in range(150)]
    texts += [mutate(rng, rng.choice(atoms)) for _ in range(300)]
    return texts


def parse_outcome(parse, text):
    """The result, or the ParseError's message, line and column."""
    try:
        return parse(text)
    except ParseError as e:
        return (str(e), e.line, e.column)


def same_outcome(got, want) -> bool:
    if isinstance(want, Program):
        return (isinstance(got, Program) and programs_equal(got, want)
                and got.facts.atoms() == want.facts.atoms())
    if isinstance(want, Instance):
        return isinstance(got, Instance) and got.atoms() == want.atoms()
    return type(got) is type(want) and got == want


def test_parser_agrees_with_the_reference_parser():
    texts = parse_corpus(1)
    assert len(texts) > 2000
    differ = []
    for parse, reference in ((parse_program, reference_parse_program),
                             (parse_instance, reference_parse_instance),
                             (parse_atom, reference_parse_atom)):
        outcomes = {"ok": 0, "error": 0}
        for text in texts:
            got, want = parse_outcome(parse, text), parse_outcome(reference, text)
            outcomes["error" if type(want) is tuple else "ok"] += 1
            if not same_outcome(got, want):
                differ.append((parse.__name__, text, got, want))
        # each function both parses and rejects a good part of the corpus
        assert min(outcomes.values()) > 300, (parse.__name__, outcomes)
    assert not differ, differ[:3]


def test_answer_json_rejects_an_unknown_status_under_O():
    proc = run_optimized(
        "from chasekit.model import UsageError\n"
        "from chasekit.parser import answer_json\n"
        "try:\n"
        "    answer_json('q', 'maybe', [], False)\n"
        "except UsageError:\n"
        "    print('raised')\n")
    assert proc.stdout.split() == ["1", "raised"], proc.stderr


def test_answer_json_schema():
    out = answer_json("q", "sat", [(Constant("a"), Constant("b"))], False)
    assert out == '{"query": "q", "status": "sat", "answers": [["a", "b"]], "budget_exhausted": false}'
