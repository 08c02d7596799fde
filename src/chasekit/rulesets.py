"""Built-in programs: the object-logic ruleset, the grid rules, and the
3-colorability encoder.

The object-logic fragment (attribute/type/subclass reasoning) is the
standard twelve-rule axiomatization over data/3, member/2, type/3,
sub/2, mandatory/2 and funct/2: eleven TGDs plus one functionality EGD.
The grid rules are the classic three-rule set whose chase never
terminates; they demo budget exhaustion.  The 3-colorability encoder
reduces graph coloring to Boolean query answering over a fixed six-fact
database.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .model import (
    CQ,
    Atom,
    Constant,
    Instance,
    Predicate,
    Program,
    UsageError,
    Variable,
)
from .parser import parse_program

FLL_TEXT = """
% Object-logic core: eleven TGDs and one functionality EGD.
tgd type(O,A,T), data(O,A,V) -> member(V,T).            % rho1
tgd sub(C1,C3), sub(C3,C2) -> sub(C1,C2).               % rho2
tgd member(O,C), sub(C,C1) -> member(O,C1).             % rho3
egd data(O,A,V), data(O,A,W), funct(A,O) -> V = W.      % rho4
tgd mandatory(A,O) -> exists V: data(O,A,V).            % rho5
tgd member(O,C), type(C,A,T) -> type(O,A,T).            % rho6
tgd sub(C,C1), type(C1,A,T) -> type(C,A,T).             % rho7
tgd type(C,A,T1), sub(T1,T) -> type(C,A,T).             % rho8
tgd sub(C,C1), mandatory(A,C1) -> mandatory(A,C).       % rho9
tgd member(O,C), mandatory(A,C) -> mandatory(A,O).      % rho10
tgd sub(C,C1), funct(A,C1) -> funct(A,C).               % rho11
tgd member(O,C), funct(A,C) -> funct(A,O).              % rho12
"""

GRID_TEXT = """
% Two guarded rules force an infinite chain; the third, unguarded one
% pairs chain cells into grid cells for every transition tuple.
fact index(0).
tgd index(X) -> exists Y: next(X,Y).
tgd next(X,Y) -> index(Y).
tgd trans(S1,A1,S2,A2,M), next(X1,X2), next(Y1,Y2) -> grid(S1,A1,S2,A2,M,X1,Y1,X2,Y2).
"""


def fll_rules() -> Program:
    """The twelve-rule object-logic program (no facts)."""
    return parse_program(FLL_TEXT)


def grid_rules() -> Program:
    """The nonterminating grid program, seeded with index(0)."""
    return parse_program(GRID_TEXT)


@dataclass(frozen=True)
class GraphSpec:
    vertices: Tuple[str, ...]
    edges: Tuple[Tuple[str, str], ...]

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise UsageError("self-loop %s-%s not allowed" % (u, v))
            if u not in self.vertices or v not in self.vertices:
                raise UsageError("edge %s-%s uses an undeclared vertex" % (u, v))


def complete_graph(n: int) -> GraphSpec:
    names = tuple("v%d" % i for i in range(1, n + 1))
    edges = tuple(
        (names[i], names[j]) for i in range(n) for j in range(i + 1, n)
    )
    return GraphSpec(names, edges)


def cycle_graph(n: int) -> GraphSpec:
    names = tuple("v%d" % i for i in range(1, n + 1))
    edges = tuple((names[i], names[(i + 1) % n]) for i in range(n))
    return GraphSpec(names, edges)


DATA = Predicate("data", 3)
_O, _R, _G, _B = Constant("o"), Constant("r"), Constant("g"), Constant("b")


def encode_three_colorability(graph: GraphSpec) -> Tuple[Instance, CQ]:
    """Database and Boolean query whose entailment is 3-colorability.

    The database lists the six ordered pairs of distinct colors; each
    graph edge contributes the two data atoms over a single shared
    witness variable, so a query homomorphism is exactly a proper
    coloring.
    """
    facts = Instance(
        DATA(_O, x, y)
        for x in (_R, _G, _B)
        for y in (_R, _G, _B)
        if x != y
    )
    x = Variable("X")
    var = {v: Variable("V_" + v) for v in graph.vertices}
    body: List[Atom] = []
    for u, v in graph.edges:
        body.append(DATA(x, var[u], var[v]))
        body.append(DATA(x, var[v], var[u]))
    return facts, CQ("color", (), tuple(body))


def three_col_program(graph: GraphSpec) -> Program:
    """3-colorability instance bundled with the object-logic rules."""
    program = fll_rules()
    facts, query = encode_three_colorability(graph)
    for atom in facts:
        program.facts.add(atom)
    program.queries.append(query)
    return program


def builtin_program(name: str) -> Program:
    """Programs retrievable by name: fll, grid, 3col[-k3|-k4|-c5]."""
    if name == "fll":
        return fll_rules()
    if name == "grid":
        return grid_rules()
    if name in ("3col", "3col-k3"):
        return three_col_program(complete_graph(3))
    if name == "3col-k4":
        return three_col_program(complete_graph(4))
    if name == "3col-c5":
        return three_col_program(cycle_graph(5))
    raise UsageError("unknown builtin %r (try fll, grid, 3col, 3col-k3, 3col-k4, 3col-c5)"
                     % name)
