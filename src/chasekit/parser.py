"""Textual program format: parsing, rendering, and the JSON answer schema.

The grammar, one statement per `.` and one name per query:

    fact r1(a,b).
    tgd r1(X,Y) -> exists Z: r3(Y,Z).
    egd data(O,A,V), data(O,A,W), funct(A,O) -> V = W.
    query q(X) :- r1(X,Y), r2(Y).

The tokens, as the pattern `_TOKEN` reads them.  Whitespace and `%` line
comments separate tokens.  `_:n<k>`, with k one or more decimal digits, is
a labeled null (only legal in instances loaded for inspection, never in
chase-input facts); k is never negative, so no text spells a canonical
cloud null (`model.canonical_null`).  A word is a run of letters,
digits and `_`: a variable if it starts with an uppercase letter (never
legal in instances), else a constant or predicate.  The punctuation is
`-> :- ( ) , . : =`, and any other character is an error.

The tokens are the strings one `findall` of `_TOKEN` returns, up to the
first empty one, which is the end; no offsets are kept.  The distinct
tokens are checked once for malformed nulls and other characters, and
mapped once to the terms they denote, so an atom's arguments are read
by slicing the token list and looking each one up.  A ParseError names
a token by its index; only then is the text scanned again, to find the
token's offset and so its line and column.
"""

from __future__ import annotations

import json
import re
from itertools import islice
from typing import Callable, Dict, List, NoReturn, Optional, Set, Tuple, TypeVar

from .model import (
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

R = TypeVar("R")


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
# Tokens
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"""\s*(?:%[^\n]*\s*)*(
    _:n\d* | \w+ | -> | :- | [(),.:=] | \Z | .)""", re.VERBOSE)

_PUNCT = frozenset(("->", ":-", "(", ")", ",", ".", ":", "="))


def _offset(text: str, index: int) -> int:
    """The offset of token `index`, found again by rescanning the text."""
    return next(islice(_TOKEN.finditer(text), index, None)).start(1)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    """The tokens of one text, the terms they denote, and the predicates seen.

    The methods take token indexes; `atoms` and `variables` return what
    they read with the index after it.
    """

    def __init__(self, text: str, allow_nulls: bool, allow_variables: bool = True):
        self.text = text
        toks = _TOKEN.findall(text)
        del toks[toks.index("") + 1:]
        self.toks = toks
        self.preds: Dict[str, Predicate] = {}
        # token -> the term it denotes; names are the words that are not variables
        self.terms: Dict[str, Term] = {}
        self.names: Set[str] = set()
        bad = set()
        for tok in set(toks):
            if tok.startswith("_:n"):
                if len(tok) == 3:
                    bad.add(tok)
                elif allow_nulls:
                    self.terms[tok] = LabeledNull(int(tok[3:]))
            elif tok in _PUNCT or not tok:
                pass
            elif len(tok) == 1 and not (tok.isalnum() or tok == "_"):
                bad.add(tok)   # a character no other alternative of _TOKEN reads
            elif tok[0].isupper():
                if allow_variables:
                    self.terms[tok] = Variable(tok)
            else:
                self.terms[tok] = Constant(tok)
                self.names.add(tok)
        if bad:
            i = next(i for i, tok in enumerate(toks) if tok in bad)
            if toks[i].startswith("_:n"):
                self.fail(i, "malformed null, expected digits after _:n")
            self.fail(i, "unexpected character %r" % toks[i])

    # -- errors ---------------------------------------------------------------

    def fail(self, i: int, message: str) -> NoReturn:
        raise _error(self.text, _offset(self.text, i), message)

    def found(self, i: int, what: str) -> NoReturn:
        self.fail(i, "expected %s, found %r" % (what, self.toks[i] or "end of input"))

    def expect(self, i: int, want: str) -> int:
        if self.toks[i] != want:
            self.found(i, repr(want))
        return i + 1

    def bad_arguments(self, i: int) -> NoReturn:
        """Raise at the first irregular token of the arguments from token i.

        The caller found them irregular, so the walk meets a token that is
        not a term where a term belongs, or one that is neither ',' nor ')'
        after a term.
        """
        toks = self.toks
        while True:
            tok = toks[i]
            if tok not in self.terms:
                if tok[:1].isupper():
                    self.fail(i, "variables are not allowed here")
                if tok.startswith("_:n"):
                    self.fail(i, "labeled nulls are not allowed here")
                self.fail(i, "expected a term")
            if toks[i + 1] != ",":
                self.found(i + 1, "')'")
            i += 2

    def cut_short(self, i: int) -> None:
        """Fail at a `.` at token i after an atom with no arguments that no
        statement follows: it cut the atom's name short."""
        toks = self.toks
        if toks[i] == "." and toks[i - 1] in self.names and toks[i + 1] not in (
                "fact", "tgd", "egd", "query", ""):
            self.fail(i, "'.' ends the statement after %s: names hold no '.'" % toks[i - 1])

    def built(self, i: int, make: Callable[..., R], *args) -> R:
        """`make(*args)`, which builds a rule or query and so checks its
        variables, or runs a check; a ParseError at token i if it fails."""
        try:
            return make(*args)
        except UsageError as e:
            self.fail(i, str(e))

    # -- atoms and variables --------------------------------------------------

    def atoms(self, i: int, one: bool = False) -> Tuple[List[Atom], int]:
        """`atom {, atom}`, or a single atom if `one`.

        An atom `name(t, ..., t)` is read by slices: its arguments are
        every other token up to the first ')', and the tokens between them
        must all be ','.  Its arity is the number of arguments by
        construction, so it is built with `tuple.__new__`.
        """
        toks, terms, preds = self.toks, self.terms, self.preds
        out: List[Atom] = []
        while True:
            name = toks[i]
            if name not in self.names:
                self.found(i, "a predicate name")
            k = i + 1
            if toks[k] == "(":
                try:
                    j = toks.index(")", k)
                    inner = toks[k + 1:j]
                    args = tuple(map(terms.__getitem__, inner[::2]))
                except (ValueError, KeyError):
                    self.bad_arguments(k + 1)
                # no argument is a ',', so the separators are all ',' when
                # they are as many as the commas
                if inner and len(inner) != 2 * inner.count(",") + 1:
                    self.bad_arguments(k + 1)
                k = j + 1
            else:
                args = ()
            pred = preds.get(name)
            if pred is None:
                pred = preds[name] = Predicate(name, len(args))
            elif pred[1] != len(args):
                self.fail(i, "predicate %s used with arity %d, declared with %d"
                          % (name, len(args), pred[1]))
            out.append(tuple.__new__(Atom, (pred, args)))
            if one or toks[k] != ",":
                return out, k
            i = k + 1

    def variable(self, i: int) -> Variable:
        v = self.terms.get(self.toks[i])
        if v.__class__ is not Variable:
            self.found(i, "a variable")
        return v

    def variables(self, i: int, stop: Optional[str] = None) -> Tuple[List[Variable], int]:
        """`var {, var}`, or no variables when token i is `stop`."""
        out: List[Variable] = []
        if self.toks[i] != stop:
            out.append(self.variable(i))
            while self.toks[i + 1] == ",":
                i += 2
                out.append(self.variable(i))
            i += 1
        return out, i

    # -- statements -----------------------------------------------------------

    def program(self) -> Program:
        toks = self.toks
        p = Program()
        i = 0
        while toks[i]:
            kw = toks[i]
            at = i + 1
            if kw == "fact":
                (atom,), i = self.atoms(at, one=True)
                if not atom.is_ground():
                    self.fail(at, "facts must be ground")
                p.facts.add(atom)
            elif kw == "tgd":
                body, i = self.atoms(at)
                i = self.expect(i, "->")
                existentials: List[Variable] = []
                if toks[i] == "exists":
                    existentials, i = self.variables(i + 1)
                    i = self.expect(i, ":")
                head, i = self.atoms(i)
                rule = self.built(at, TGD, tuple(body), tuple(head), frozenset(existentials),
                                  "tgd%d" % (len(p.tgds) + 1))
                self.built(at, rule.check_head_constants)
                p.tgds.append(rule)
            elif kw == "egd":
                body, i = self.atoms(at)
                i = self.expect(i, "->")
                lhs = self.variable(i)
                i = self.expect(i + 1, "=")
                rhs = self.variable(i)
                p.egds.append(self.built(at, EGD, tuple(body), lhs, rhs,
                                         "egd%d" % (len(p.egds) + 1)))
                i += 1
            elif kw == "query":
                if toks[at] not in self.names:
                    self.found(at, "a query name")
                if any(q.name == toks[at] for q in p.queries):
                    self.fail(at, "query %s is declared twice" % toks[at])
                i = at + 1
                head_vars: List[Variable] = []
                if toks[i] == "(":
                    head_vars, i = self.variables(i + 1, ")")
                    i = self.expect(i, ")")
                i = self.expect(i, ":-")
                body = []
                if toks[i] != ".":
                    body, i = self.atoms(i)
                    self.cut_short(i)
                p.queries.append(self.built(at, CQ, toks[at], tuple(head_vars), tuple(body)))
            else:
                self.fail(i, "expected fact, tgd, egd or query")
            self.cut_short(i)
            i = self.expect(i, ".")
        return p


def parse_program(text: str) -> Program:
    """Parse a full program.  Facts must be ground constants."""
    return _Parser(text, allow_nulls=False).program()


def parse_instance(text: str) -> Instance:
    """Parse a comma/period-separated atom list, nulls allowed but no
    variables.

    Intended for loading saved instances for inspection, not for chase
    input facts.
    """
    p = _Parser(text, allow_nulls=True, allow_variables=False)
    toks = p.toks
    inst = Instance()
    i = 0
    while toks[i]:
        (atom,), i = p.atoms(i, one=True)
        inst.add(atom)
        if toks[i] in (",", "."):
            i += 1
    return inst


def parse_atom(text: str) -> Atom:
    """Parse a single atom and nothing after it; variables and nulls allowed."""
    p = _Parser(text, allow_nulls=True)
    (atom,), i = p.atoms(0, one=True)
    if p.toks[i]:
        p.found(i, "end of input")
    return atom


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_atom(a: Atom) -> str:
    """The atom in program syntax, which is its `repr` (so is a term's)."""
    return repr(a)


def render_program(p: Program) -> str:
    """Inverse of parse_program up to statement grouping.

    Each statement is its keyword, the `repr` of its atom, rule or query,
    which is program syntax, and a period.  Statements come out grouped
    as facts, TGDs, EGDs, queries, each group in declaration order, with
    no trailing newline after the last statement block.
    """
    lines = ["fact %r." % (a,) for a in p.facts]
    lines += ["tgd %r." % t for t in p.tgds]
    lines += ["egd %r." % e for e in p.egds]
    lines += ["query %r." % q for q in p.queries]
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
