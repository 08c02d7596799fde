"""Textual program format: parsing, rendering, and the JSON answer schema.

The grammar, one statement per `.`:

    fact r1(a,b).
    tgd r1(X,Y) -> exists Z: r3(Y,Z).
    egd data(O,A,V), data(O,A,W), funct(A,O) -> V = W.
    query q(X) :- r1(X,Y), r2(Y).

The tokens, as the pattern `_TOKEN` reads them.  Whitespace and `%` line
comments separate tokens.  `_:n<k>`, with k one or more decimal digits, is
a labeled null (only legal in instances loaded for inspection, never in
chase-input facts; k must stay below CANONICAL_NULL_BASE, whose range
belongs to the canonical cloud nulls).  A word is a run of letters,
digits and `_`: a variable if it starts with an uppercase letter, else a
constant or predicate.  The punctuation is `-> :- ( ) , . : =`, and any
other character is an error.
"""

from __future__ import annotations

import json
import re
from typing import Callable, Dict, List, NoReturn, Optional, Tuple, TypeVar

from .model import (
    CANONICAL_NULL_BASE,
    CQ,
    EGD,
    TGD,
    Atom,
    Constant,
    Instance,
    LabeledNull,
    Predicate,
    Program,
    Term,
    UsageError,
    Variable,
)

T = TypeVar("T")
R = TypeVar("R", TGD, EGD, CQ)


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__("%d:%d: %s" % (line, column, message))
        self.line = line
        self.column = column


def _error(text: str, offset: int, message: str) -> ParseError:
    """A ParseError at `offset`, with its line and column counted from 1."""
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"""(?:\s|%[^\n]*)*(?:
    (?P<null>_:n\d*) | (?P<word>\w+) | (?P<punct>->|:-|[(),.:=])
    | (?P<end>\Z) | (?P<other>.))""", re.VERBOSE)

Token = Tuple[str, str, int]   # kind (ident, var, null, punct, end), text, offset


def _tokenize(text: str) -> List[Token]:
    toks: List[Token] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        word = m.group(kind)
        at = m.start(kind)
        if kind == "word":
            kind = "var" if word[0].isupper() else "ident"
        elif kind == "null" and len(word) == 3:
            raise _error(text, at, "malformed null, expected digits after _:n")
        elif kind == "other":
            raise _error(text, at, "unexpected character %r" % word)
        toks.append((kind, word, at))
        if kind == "end":
            break
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str, allow_nulls: bool):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.allow_nulls = allow_nulls
        self.arities: Dict[str, int] = {}

    def peek(self) -> Token:
        return self.toks[self.pos]

    def fail(self, message: str, at: Optional[int] = None) -> NoReturn:
        """Raise at offset `at`, by default at the next token."""
        raise _error(self.text, self.peek()[2] if at is None else at, message)

    def expect(self, want: str, what: str = "") -> Token:
        """Take the next token if its text is `want`, or its kind when `what` names it."""
        t = self.peek()
        if t[0 if what else 1] != want:
            self.fail("expected %s, found %r" % (what or repr(want), t[1] or "end of input"))
        self.pos += 1
        return t

    def comma_list(self, item: Callable[[], T], stop: Optional[str] = None) -> List[T]:
        """`item {, item}`, or no items when the next token is `stop`."""
        out: List[T] = []
        if self.peek()[1] != stop:
            out.append(item())
            while self.peek()[1] == ",":
                self.pos += 1
                out.append(item())
        return out

    def checked(self, rule: R, at: int) -> R:
        """`rule` if its safety check passes, else a ParseError at offset `at`."""
        try:
            rule.check_safety()
        except UsageError as e:
            self.fail(str(e), at)
        return rule

    # -- terms and atoms ----------------------------------------------------

    def term(self) -> Term:
        kind, word, _ = self.peek()
        if kind == "ident":
            self.pos += 1
            return Constant(word)
        if kind == "var":
            self.pos += 1
            return Variable(word)
        if kind == "null":
            if not self.allow_nulls:
                self.fail("labeled nulls are not allowed here")
            index = int(word[3:])
            if index >= CANONICAL_NULL_BASE:
                self.fail("null index %d is reserved for canonical nulls" % index)
            self.pos += 1
            return LabeledNull(index)
        self.fail("expected a term")

    def atom(self) -> Atom:
        _, name, at = self.expect("ident", "a predicate name")
        args: List[Term] = []
        if self.peek()[1] == "(":
            self.pos += 1
            args = self.comma_list(self.term, ")")
            self.expect(")")
        arity = self.arities.setdefault(name, len(args))
        if arity != len(args):
            self.fail("predicate %s used with arity %d, declared with %d"
                      % (name, len(args), arity), at)
        return Atom(Predicate(name, len(args)), tuple(args))

    def variable(self) -> Variable:
        return Variable(self.expect("var", "a variable")[1])

    # -- statements ----------------------------------------------------------

    def statement(self, program: Program) -> None:
        kind, kw, _ = self.peek()
        if kind != "ident" or kw not in ("fact", "tgd", "egd", "query"):
            self.fail("expected fact, tgd, egd or query")
        self.pos += 1
        at = self.peek()[2]
        if kw == "fact":
            atom = self.atom()
            if not atom.is_ground():
                self.fail("facts must be ground", at)
            program.facts.add(atom)
        elif kw == "tgd":
            body = self.comma_list(self.atom)
            self.expect("->")
            existentials: List[Variable] = []
            if self.peek()[1] == "exists":
                self.pos += 1
                existentials = self.comma_list(self.variable)
                self.expect(":")
            head = self.comma_list(self.atom)
            rule = TGD(tuple(body), tuple(head), frozenset(existentials),
                       label="tgd%d" % (len(program.tgds) + 1))
            program.tgds.append(self.checked(rule, at))
        elif kw == "egd":
            body = self.comma_list(self.atom)
            self.expect("->")
            lhs = self.variable()
            self.expect("=")
            egd = EGD(tuple(body), lhs, self.variable(),
                      label="egd%d" % (len(program.egds) + 1))
            program.egds.append(self.checked(egd, at))
        else:
            name = self.expect("ident", "a query name")[1]
            head_vars: List[Variable] = []
            if self.peek()[1] == "(":
                self.pos += 1
                head_vars = self.comma_list(self.variable, ")")
                self.expect(")")
            self.expect(":-")
            q = CQ(name, tuple(head_vars), tuple(self.comma_list(self.atom, ".")))
            program.queries.append(self.checked(q, at))
        self.expect(".")

    def program(self) -> Program:
        p = Program()
        while self.peek()[0] != "end":
            self.statement(p)
        return p


def parse_program(text: str) -> Program:
    """Parse a full program.  Facts must be ground constants."""
    return _Parser(text, allow_nulls=False).program()


def parse_instance(text: str) -> Instance:
    """Parse a comma/period-separated atom list, nulls allowed.

    Intended for loading saved instances for inspection, not for chase
    input facts.
    """
    p = _Parser(text, allow_nulls=True)
    inst = Instance()
    while p.peek()[0] != "end":
        inst.add(p.atom())
        if p.peek()[1] in (",", "."):
            p.pos += 1
    return inst


def parse_atom(text: str) -> Atom:
    """Parse a single atom and nothing after it; variables and nulls allowed."""
    p = _Parser(text, allow_nulls=True)
    atom = p.atom()
    p.expect("end", "end of input")
    return atom


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_atom(a: Atom) -> str:
    """The atom in program syntax, which is its `repr` (so is a term's)."""
    return repr(a)


def _existentials_in_head_order(rule: TGD) -> List[Variable]:
    out: List[Variable] = []
    for atom in rule.head:
        for t in atom.args:
            if isinstance(t, Variable) and t in rule.existentials and t not in out:
                out.append(t)
    return out


def render_tgd(rule: TGD) -> str:
    body = ", ".join(render_atom(a) for a in rule.body)
    head = ", ".join(render_atom(a) for a in rule.head)
    if rule.existentials:
        ex = ", ".join(v.name for v in _existentials_in_head_order(rule))
        return "tgd %s -> exists %s: %s." % (body, ex, head)
    return "tgd %s -> %s." % (body, head)


def render_egd(rule: EGD) -> str:
    body = ", ".join(render_atom(a) for a in rule.body)
    return "egd %s -> %s = %s." % (body, rule.lhs.name, rule.rhs.name)


def render_query(q: CQ) -> str:
    head = "%s(%s)" % (q.name, ",".join(v.name for v in q.head_vars))
    body = ", ".join(render_atom(a) for a in q.body)
    return "query %s :- %s." % (head, body)


def render_program(p: Program) -> str:
    """Inverse of parse_program up to statement grouping.

    Statements come out grouped as facts, TGDs, EGDs, queries, each
    group in declaration order, with no trailing newline after the last
    statement block.
    """
    lines: List[str] = []
    for a in p.facts:
        lines.append("fact %s." % render_atom(a))
    for t in p.tgds:
        lines.append(render_tgd(t))
    for e in p.egds:
        lines.append(render_egd(e))
    for q in p.queries:
        lines.append(render_query(q))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Answer schema
# ---------------------------------------------------------------------------

def answer_json(
    query_name: str,
    status: str,
    answers: List[Tuple[Term, ...]],
    budget_exhausted: bool,
) -> str:
    """The documented answer schema, stable key order."""
    if status not in ("sat", "unsat", "unknown", "failed"):
        raise UsageError("unknown answer status %r" % (status,))
    payload = {
        "query": query_name,
        "status": status,
        "answers": [[repr(t) for t in row] for row in answers],
        "budget_exhausted": budget_exhausted,
    }
    return json.dumps(payload)
