"""Multivariate layer: Gaussian solving, Buchberger, elimination, Newton."""

from fractions import Fraction

import pytest

from nchilbert.csys import build_system, gamma_linear, gamma_rational
from nchilbert.errors import InputError, RootMismatchError, SingularSystemError
from nchilbert.examples import (
    DYCK,
    IFTHENELSE,
    palindrome_grammar,
    qp,
    ratpoly,
    xystar_handle,
)
from nchilbert.grammar import parse_grammar
from nchilbert.groebner import (
    assert_groebner,
    buchberger_lex,
    eliminate_univariate,
    ranking_keep_lowest,
)
from nchilbert.multipoly import MultiPolynomial, RatPoly, gaussian_solve
from nchilbert.newton import newton_series, reciprocal_poly
from nchilbert.ratfunc import RF_ONE, RF_ZERO, RationalFunction
from nchilbert.regular import myhill_nerode_grammar


def test_gaussian_solve_palindrome():
    # S = 1 + 2t + 2t^2 S
    t = RationalFunction.t_power(1)
    matrix = [[RF_ONE - 2 * t * t]]
    rhs = [RF_ONE + 2 * t]
    sol = gaussian_solve(matrix, rhs)
    assert sol[0] == RationalFunction(qp(1, 2), qp(1, 0, -2))


def test_gaussian_solve_identity():
    assert gaussian_solve([[RF_ONE]], [RF_ONE]) == [RF_ONE]


def test_gaussian_solve_singular():
    with pytest.raises(SingularSystemError):
        gaussian_solve([[RF_ZERO]], [RF_ONE])


def test_gamma_rational_xystar():
    g = myhill_nerode_grammar(xystar_handle())
    gamma = gamma_rational(g)
    assert list(gamma.series(5).coeffs) == [1, 2, 3, 4, 5, 6]


def test_gamma_rational_rejects_palindromes():
    with pytest.raises(InputError):
        gamma_rational(palindrome_grammar("xy"))


def test_gamma_linear_trivial():
    g = parse_grammar("terminals: a\nvariables: A\nstart: A\nA -> eps")
    assert gamma_linear(g) == RF_ONE


def ifthenelse_equations():
    return list(build_system(parse_grammar(IFTHENELSE)).equations)


def test_eliminate_keep_each_unknown():
    want = {
        "S": ratpoly("S", [[1], [-1, 2], [0, -1, 2]]),
        "A": ratpoly("A", [[1], [-1], [0, 0, 1]]),
        "B": ratpoly("B", [[0, 1], [-1, 1, 2], [0, 0, -1, 2]]),
    }
    for keep, expected in want.items():
        got = eliminate_univariate(ifthenelse_equations(), keep)
        assert got.proportional_to(expected), (keep, got.cleared())


def test_eliminate_trivial_binding():
    f = RationalFunction(qp(1), qp(1, -1))
    eq = MultiPolynomial.var(("A",), "A") - f
    out = eliminate_univariate([eq], "A")
    assert out.degree == 1
    assert out.proportional_to(RatPoly("A", [-f, RF_ONE]))


def test_buchberger_postconditions():
    gens = ifthenelse_equations()
    names = gens[0].variables
    for keep in names:
        ranking = ranking_keep_lowest(names, keep)
        basis = buchberger_lex(gens, ranking)
        assert_groebner(basis, gens, ranking)


def test_reciprocal_poly_examples():
    p = RatPoly("E", [RationalFunction.const(-2), RF_ONE])
    q = reciprocal_poly(p, "H")
    assert q.proportional_to(ratpoly("H", [[1], [-2]]))
    abc = ratpoly("E", [[3], [0, 5], [7]])
    assert reciprocal_poly(abc, "H").proportional_to(ratpoly("H", [[7], [0, 5], [3]]))


def test_reciprocal_involution():
    p = ratpoly("E", [[1, 2], [0, -1], [3]])
    back = reciprocal_poly(reciprocal_poly(p, "H"), "E")
    assert back.proportional_to(p)


def test_newton_ifthenelse():
    q = eliminate_univariate(ifthenelse_equations(), "S")
    out = newton_series(q, [1, 1], 7)
    assert list(out.coeffs) == [1, 1, 2, 3, 6, 10, 20, 35]


def test_newton_linear():
    q = ratpoly("H", [[-1, -1], [1]])  # H - (1 + t)
    out = newton_series(q, [1], 5)
    assert list(out.coeffs) == [1, 1, 0, 0, 0, 0]


def test_newton_dyck_catalan():
    q = ratpoly("T", [[1], [-1], [0, 0, 1]])  # t^2 T^2 - T + 1
    out = newton_series(q, [1], 6)
    assert list(out.coeffs) == [1, 0, 1, 0, 2, 0, 5]


def test_newton_rejects_bad_seed():
    q = ratpoly("T", [[1], [-1], [0, 0, 1]])
    with pytest.raises(RootMismatchError):
        newton_series(q, [5], 6)


def test_newton_annihilates():
    q = eliminate_univariate(ifthenelse_equations(), "B")
    seed = [Fraction(0), Fraction(1)]
    out = newton_series(q, seed, 9)
    res = q.cleared().eval_series(out, 9)
    assert all(res[i] == 0 for i in range(10))


def test_build_system_images():
    g = parse_grammar(DYCK)
    system = build_system(g)
    eq = system.equation_for("S")
    # S - 1 - t^2 S^2
    t2 = RationalFunction.t_power(2)
    expected = (
        MultiPolynomial.var(("S",), "S")
        - 1
        - MultiPolynomial.monomial(("S",), (2,), t2)
    )
    assert eq == expected
