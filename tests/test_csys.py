"""Grammar-to-system pipeline: certified algebraic counting series."""

import pytest

from helpers import residual_series, solution_series
from nchilbert import examples
from nchilbert.csys import DEFAULT_CERT_DEG, build_system, gamma_algebraic
from nchilbert.errors import DivergenceError
from nchilbert.examples import DYCK, IFTHENELSE, LUKASIEWICZ
from nchilbert.grammar import parse_grammar
from nchilbert.ratfunc import QPoly


def test_gamma_algebraic_lukasiewicz():
    g = parse_grammar(LUKASIEWICZ)
    res = gamma_algebraic(g, 7)
    assert list(res.series.coeffs) == [0, 1, 0, 1, 0, 2, 0, 5]
    assert res.certified and res.cert_bound == DEFAULT_CERT_DEG


def test_gamma_algebraic_dyck():
    g = parse_grammar(DYCK)
    res = gamma_algebraic(g, 8)
    assert list(res.series.coeffs) == [1, 0, 1, 0, 2, 0, 5, 0, 14]


def test_gamma_flags_uncertified():
    g = parse_grammar("terminals: a\nvariables: S\nstart: S\nS -> a S | S a | a")
    res = gamma_algebraic(g, 4, cert_deg=4)
    assert not res.certified
    assert res.counterexample is not None


def test_solution_series_solves_system():
    for text in (DYCK, IFTHENELSE, LUKASIEWICZ):
        g = parse_grammar(text)
        system = build_system(g)
        assignment = solution_series(g, 10)
        for residual in residual_series(system, assignment, 10):
            assert all(residual[k] == 0 for k in range(11))


# A and B derive no word, so their series are 0 and S's is t; A = A^2 and
# B = A B, kept as equations, left B free and no univariate relation for S
UNPRODUCTIVE = "terminals: a\nvariables: S B A\nstart: S\nS -> a | B\nB -> A B\nA -> A A"


def test_build_system_drops_unproductive_variables():
    system = build_system(parse_grammar(UNPRODUCTIVE))
    only_a = build_system(parse_grammar("terminals: a\nvariables: S\nstart: S\nS -> a"))
    assert system.unknowns == ("S",)
    assert system.equations == only_a.equations


def test_gamma_with_unproductive_variables():
    res = gamma_algebraic(parse_grammar(UNPRODUCTIVE), 6)
    assert res.poly.degree == 1
    assert list(res.series.coeffs) == [0, 1, 0, 0, 0, 0, 0]


# A's epsilon cycle makes its counts infinite, but S does not reach A
UNREACHABLE_CYCLE = "terminals: x\nvariables: S A B\nstart: S\nS -> x\nA -> A A | eps\nB -> x"


def test_gamma_ignores_an_unreachable_cycle():
    g = parse_grammar(UNREACHABLE_CYCLE)
    assert build_system(g).unknowns == ("S",)  # S reaches neither A nor B
    assert build_system(g, g.variables.index("A")).unknowns == ("A",)
    res = gamma_algebraic(g, 6)
    assert res.poly.degree == 1 and res.certified
    assert list(res.series.coeffs) == [0, 1, 0, 0, 0, 0, 0]
    assert list(gamma_algebraic(g, 6, keep="B").series.coeffs) == [0, 1, 0, 0, 0, 0, 0]
    with pytest.raises(DivergenceError):
        gamma_algebraic(g, 6, keep="A")


def system_by_terms(g):
    """The unknowns and equations of build_system, one monomial at a time:
    each productive variable that the start reaches through any body, minus
    t^(#terminals) times the unknowns of each of its bodies that uses no
    unproductive variable."""
    reached = {g.start}
    while True:
        bodies = [rhs for var, rhs in g.productions if var in reached]
        new = {g.var_of(s) for rhs in bodies for s in rhs if g.is_var(s)} - reached
        if not new:
            break
        reached |= new
    names = tuple(g.variables.symbols[j] for j in sorted(g.productive & reached))
    equations = []
    for name in names:
        eq = {tuple(int(x == name) for x in names): QPoly.const(1)}
        for var, rhs in g.productions:
            used = [g.sym_text(s) for s in rhs if g.is_var(s)]
            if g.variables.symbols[var] != name or not set(used) <= set(names):
                continue
            exps = tuple(used.count(x) for x in names)
            eq[exps] = eq.get(exps, QPoly()) - QPoly.t_power(len(rhs) - len(used))
        equations.append({e: c for e, c in eq.items() if c})
    return names, tuple(equations)


SYSTEM_GRAMMARS = [
    IFTHENELSE,
    DYCK,
    LUKASIEWICZ,
    examples.TRIPLE_L1,
    *examples.LUKAS1_CHAINS,
    *examples.LUKAS2_CHAINS,
    *examples.FP_CHAINS,
    *examples.FPV_CHAINS,
    UNPRODUCTIVE,
    # unit rules, eps bodies and repeated images (x S and S x)
    "terminals: x y\nvariables: S A B\nstart: S\n"
    "S -> A | x S | S x | B B\nA -> eps | B\nB -> y A y | eps",
    # a unit self-rule cancels the unknown's own term
    "terminals: a\nvariables: S\nstart: S\nS -> S | a | a S S",
    # bodies that use the unproductive U are dropped, the others kept
    "terminals: a b\nvariables: S U T\nstart: S\n"
    "S -> a U | T b T | U S | eps\nU -> a U\nT -> S a | b",
    # productive variables that the start does not reach are no unknowns
    "terminals: a b\nvariables: S A B\nstart: S\nS -> eps | a B\nA -> eps | A\nB -> eps | b S",
    "terminals: a\nvariables: S A B\nstart: S\nS -> A\nA -> eps\nB -> a A | S B | A S",
]


@pytest.mark.parametrize("text", SYSTEM_GRAMMARS)
def test_build_system_matches_monomials(text):
    g = parse_grammar(text)
    system = build_system(g)
    assert (system.unknowns, system.equations) == system_by_terms(g)
