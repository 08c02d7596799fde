import random

import pytest

from helpers import run_optimized

from chasekit.model import Constant, Variable
from chasekit.parser import (
    ParseError,
    answer_json,
    parse_instance,
    parse_program,
    programs_equal,
    render_program,
)
from chasekit.rulesets import FLL_TEXT

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
