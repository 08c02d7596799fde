"""Textual program format: parsing, rendering, and the JSON answer schema.

The grammar, one statement per `.`:

    fact r1(a,b).
    tgd r1(X,Y) -> exists Z: r3(Y,Z).
    egd data(O,A,V), data(O,A,W), funct(A,O) -> V = W.
    query q(X) :- r1(X,Y), r2(Y).

Identifiers starting with a lowercase letter or digit are constants or
predicates, identifiers starting uppercase are variables, `_:n<k>` is a
labeled null (only legal in instances loaded for inspection, never in
chase-input facts; k must stay below CANONICAL_NULL_BASE, whose range
belongs to the canonical cloud nulls).  `%` starts a line comment.  Whitespace is free.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Tuple

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


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__("%d:%d: %s" % (line, column, message))
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

@dataclass
class Token:
    kind: str   # ident, var, null, punct, end
    text: str
    line: int
    column: int


_PUNCT = ("->", ":-", "(", ")", ",", ".", ":", "=")


def _tokenize(text: str) -> List[Token]:
    toks: List[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if text.startswith("_:n", i):
            j = i + 3
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 3:
                raise ParseError("malformed null, expected digits after _:n", line, col)
            toks.append(Token("null", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalnum() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "var" if word[0].isupper() else "ident"
            toks.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(Token("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError("unexpected character %r" % c, line, col)
    toks.append(Token("end", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str, allow_nulls: bool):
        self.toks = _tokenize(text)
        self.pos = 0
        self.allow_nulls = allow_nulls
        self.arities: Dict[str, int] = {}

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, message: str) -> None:
        t = self.peek()
        raise ParseError(message, t.line, t.column)

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text:
            self.fail("expected %r, found %r" % (text, t.text or "end of input"))
        return self.next()

    def expect_kind(self, kind: str, what: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            self.fail("expected %s, found %r" % (what, t.text or "end of input"))
        return self.next()

    # -- terms and atoms ----------------------------------------------------

    def term(self) -> Term:
        t = self.peek()
        if t.kind == "ident":
            self.next()
            return Constant(t.text)
        if t.kind == "var":
            self.next()
            return Variable(t.text)
        if t.kind == "null":
            if not self.allow_nulls:
                self.fail("labeled nulls are not allowed here")
            index = int(t.text[3:])
            if index >= CANONICAL_NULL_BASE:
                self.fail("null index %d is reserved for canonical nulls" % index)
            self.next()
            return LabeledNull(index)
        self.fail("expected a term")

    def atom(self) -> Atom:
        name_tok = self.expect_kind("ident", "a predicate name")
        args: List[Term] = []
        if self.peek().text == "(":
            self.next()
            if self.peek().text != ")":
                args.append(self.term())
                while self.peek().text == ",":
                    self.next()
                    args.append(self.term())
            self.expect(")")
        arity = self.arities.get(name_tok.text)
        if arity is None:
            self.arities[name_tok.text] = len(args)
        elif arity != len(args):
            raise ParseError(
                "predicate %s used with arity %d, declared with %d"
                % (name_tok.text, len(args), arity),
                name_tok.line,
                name_tok.column,
            )
        return Atom(Predicate(name_tok.text, len(args)), tuple(args))

    def atom_list(self) -> List[Atom]:
        out = [self.atom()]
        while self.peek().text == ",":
            self.next()
            out.append(self.atom())
        return out

    # -- statements ----------------------------------------------------------

    def statement(self, program: Program) -> None:
        t = self.peek()
        if t.kind != "ident" or t.text not in ("fact", "tgd", "egd", "query"):
            self.fail("expected fact, tgd, egd or query")
        kw = self.next().text
        if kw == "fact":
            tok = self.peek()
            atom = self.atom()
            if not atom.is_ground():
                raise ParseError("facts must be ground", tok.line, tok.column)
            program.facts.add(atom)
        elif kw == "tgd":
            self.tgd(program)
        elif kw == "egd":
            self.egd(program)
        else:
            self.query(program)
        self.expect(".")

    def tgd(self, program: Program) -> None:
        tok = self.peek()
        body = self.atom_list()
        self.expect("->")
        existentials: List[Variable] = []
        if self.peek().text == "exists":
            self.next()
            existentials.append(self._variable())
            while self.peek().text == ",":
                self.next()
                existentials.append(self._variable())
            self.expect(":")
        head = self.atom_list()
        rule = TGD(
            tuple(body),
            tuple(head),
            frozenset(existentials),
            label="tgd%d" % (len(program.tgds) + 1),
        )
        try:
            rule.check_safety()
        except Exception as e:
            raise ParseError(str(e), tok.line, tok.column)
        program.tgds.append(rule)

    def egd(self, program: Program) -> None:
        tok = self.peek()
        body = self.atom_list()
        self.expect("->")
        lhs = self._variable()
        self.expect("=")
        rhs = self._variable()
        rule = EGD(tuple(body), lhs, rhs, label="egd%d" % (len(program.egds) + 1))
        try:
            rule.check_safety()
        except Exception as e:
            raise ParseError(str(e), tok.line, tok.column)
        program.egds.append(rule)

    def _variable(self) -> Variable:
        return Variable(self.expect_kind("var", "a variable").text)

    def query(self, program: Program) -> None:
        tok = self.peek()
        name = self.expect_kind("ident", "a query name").text
        head_vars: List[Variable] = []
        if self.peek().text == "(":
            self.next()
            if self.peek().text != ")":
                head_vars.append(self._variable())
                while self.peek().text == ",":
                    self.next()
                    head_vars.append(self._variable())
            self.expect(")")
        self.expect(":-")
        body: List[Atom] = []
        if self.peek().text != ".":
            body = self.atom_list()
        q = CQ(name, tuple(head_vars), tuple(body))
        try:
            q.check_safety()
        except Exception as e:
            raise ParseError(str(e), tok.line, tok.column)
        program.queries.append(q)

    def program(self) -> Program:
        p = Program()
        while self.peek().kind != "end":
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
    while p.peek().kind != "end":
        inst.add(p.atom())
        if p.peek().text in (",", "."):
            p.next()
    return inst


def parse_atom(text: str) -> Atom:
    """Parse a single atom; variables and nulls allowed."""
    return _Parser(text, allow_nulls=True).atom()


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_term(t: Term) -> str:
    if isinstance(t, Constant):
        return t.name
    if isinstance(t, LabeledNull):
        return "_:n%d" % t.index
    return t.name


def render_atom(a: Atom) -> str:
    if not a.args:
        return a.predicate.name
    return "%s(%s)" % (a.predicate.name, ",".join(render_term(t) for t in a.args))


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
        "answers": [[render_term(t) for t in row] for row in answers],
        "budget_exhausted": budget_exhausted,
    }
    return json.dumps(payload)
