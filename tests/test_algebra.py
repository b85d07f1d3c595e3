"""Multivariate layer: linear and algebraic elimination, Buchberger, Newton."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from nchilbert import csys
from nchilbert.csys import AlgebraicSystem, build_system, gamma_algebraic, gamma_linear
from nchilbert.errors import (
    DivergenceError,
    EliminationError,
    InputError,
    ResourceCapError,
    RootMismatchError,
)
from nchilbert.examples import (
    DYCK,
    FP_CHAINS,
    FP_PRESENTATION,
    FPV_CHAINS,
    IFTHENELSE,
    LUKAS1_CHAINS,
    LUKAS1_SERIES,
    LUKAS2_CHAINS,
    TRIPLE_L1,
    _chain_spec,
    example_ifthenelse,
    ratpoly,
    xystar_handle,
)
from nchilbert.grammar import CFGrammar, _layer_plan, count_derivations, parse_grammar
from nchilbert.gsb import gs_complete, parse_presentation
from nchilbert.groebner import (
    assert_groebner,
    buchberger_lex,
    eliminate_univariate,
    merge_unknowns,
)
from nchilbert.homology import HomologySpec, assemble_system, hilbert_from_homology
from nchilbert.multipoly import RatPoly, primitive_terms, rename_terms
from nchilbert.newton import _gcd_with_derivative, newton_series, reciprocal_poly
from nchilbert.ratfunc import QPoly, RationalFunction, TruncatedSeries
from nchilbert.regular import RegularLanguageHandle, ideal_automaton, myhill_nerode_grammar
from nchilbert.words import Alphabet, FiniteLanguage, minimize_antichain

ONE = RationalFunction(1)


def test_gamma_rational_xystar():
    g = myhill_nerode_grammar(xystar_handle())
    gamma = gamma_linear(g)
    assert list(gamma.series(5).coeffs) == [1, 2, 3, 4, 5, 6]


def test_gamma_linear_trivial():
    g = parse_grammar("terminals: a\nvariables: A\nstart: A\nA -> eps")
    assert gamma_linear(g) == ONE


def _random_antichain(rng):
    n = rng.choice((2, 3))
    alphabet = Alphabet(list("xyz"[:n]))
    words = {
        bytes(rng.randrange(n) for _ in range(rng.randint(2, 4)))
        for _ in range(rng.randint(1, 4))
    }
    return minimize_antichain(FiniteLanguage(alphabet, frozenset(words)))


def test_gamma_linear_matches_derivation_counts():
    # Myhill-Nerode grammars of ideal automata have linear systems
    rng = random.Random(20261018)
    done = 0
    while done < 30:
        basis = _random_antichain(rng)
        if not basis.words:
            continue
        done += 1
        g = myhill_nerode_grammar(ideal_automaton(basis))
        gamma = gamma_linear(g)
        assert list(gamma.series(10).coeffs) == count_derivations(g, 10)[g.start]


def test_gamma_linear_rejects_nonlinear_grammar():
    with pytest.raises(InputError, match="degree 2"):
        gamma_linear(parse_grammar(DYCK))


def test_gamma_linear_singular_system():
    # S - S = 0 leaves no relation for S: S derives no word, so it is no unknown
    g = parse_grammar("terminals: a\nvariables: S\nstart: S\nS -> S")
    with pytest.raises(InputError, match="^start variable S derives no word$"):
        gamma_linear(g)


def ifthenelse_system():
    return build_system(parse_grammar(IFTHENELSE))


def test_eliminate_keep_each_unknown():
    want = {
        "S": ratpoly("S", [[1], [-1, 2], [0, -1, 2]]),
        "A": ratpoly("A", [[1], [-1], [0, 0, 1]]),
        "B": ratpoly("B", [[0, 1], [-1, 1, 2], [0, 0, -1, 2]]),
    }
    for keep, expected in want.items():
        got = eliminate_univariate(ifthenelse_system(), keep)
        assert got.proportional_to(expected), (keep, got)
        assert got == got.cleared()


def test_eliminate_trivial_binding():
    # A = 1/(1 - t), as (1 - t) A - 1
    minus_f = RationalFunction(QPoly((-1,)), QPoly((1, -1)))
    eq = {(1,): QPoly((1, -1)), (0,): QPoly((-1,))}
    out = eliminate_univariate(AlgebraicSystem(("A",), (eq,)), "A")
    assert out.degree == 1
    assert out.proportional_to(RatPoly("A", [minus_f, ONE]))


def keep_lowest(system, keep):
    """The system's equations renamed into eliminate_univariate's lex order:
    keep lowest."""
    order = tuple(v for v in reversed(system.unknowns) if v != keep) + (keep,)
    return [rename_terms(g, system.unknowns, {}, order) for g in system.equations]


def test_buchberger_postconditions():
    for keep in ifthenelse_system().unknowns:
        gens = keep_lowest(ifthenelse_system(), keep)
        assert_groebner(buchberger_lex(gens), gens)


def x12_system():
    """Myhill-Nerode system of the ideal of {x^12} over {x, y}."""
    basis = FiniteLanguage(Alphabet(["x", "y"]), frozenset({bytes(12)}))
    return build_system(myhill_nerode_grammar(ideal_automaton(basis)))


def x12_equations():
    return list(x12_system().equations)


def test_buchberger_basis_is_reduced():
    # primitive with a positive leading integer, and no term of an element is
    # divisible by another's leading monomial
    systems = [keep_lowest(ifthenelse_system(), keep) for keep in "SAB"]
    for gens in systems + [x12_equations()]:
        basis = buchberger_lex(gens)
        leads = [max(g) for g in basis]
        for i, g in enumerate(basis):
            assert g == primitive_terms(g) and g[leads[i]].coeffs[-1] > 0
            for j, lead in enumerate(leads):
                assert j == i or not any(
                    all(a <= b for a, b in zip(lead, e)) for e in g
                )


def test_buchberger_cap_counts_reduced_pairs():
    # ideal of {x^12}: 13 unknowns, 78 initial pairs, 11 of them reduced
    gens = x12_equations()
    assert len(gens) == 13
    assert_groebner(buchberger_lex(gens, 11), gens)
    with pytest.raises(ResourceCapError, match="pair cap 10 exceeded"):
        buchberger_lex(gens, 10)


def _fp_completion(cap):
    _, order, relations = parse_presentation(FP_PRESENTATION)
    gs_complete(relations, order, 6, cap)


def _ifthenelse_buchberger(cap):
    buchberger_lex(keep_lowest(ifthenelse_system(), "S"), cap)


def _x_determinize(cap):
    # three subsets: {S}, {T}, {}
    g = parse_grammar("terminals: x y\nvariables: S T\nstart: S\nS -> x T\nT -> eps")
    RegularLanguageHandle.from_right_linear(g, cap)


CAPPED = {  # run with a cap -> message with that cap
    "gs_complete": (_fp_completion, 5, "completion pair cap 5 exceeded"),
    "buchberger_lex": (_ifthenelse_buchberger, 1, "Buchberger pair cap 1 exceeded"),
    "determinize": (_x_determinize, 2, "determinization state cap 2 exceeded"),
    "myhill_nerode_grammar": (
        lambda cap: myhill_nerode_grammar(xystar_handle(), cap),
        2,
        "quotient automaton state cap 2 exceeded",
    ),
}


@pytest.mark.parametrize("case", sorted(CAPPED))
def test_cap_message_names_cap_and_value(case):
    run, cap, message = CAPPED[case]
    with pytest.raises(ResourceCapError) as info:
        run(cap)
    assert str(info.value) == message


def xy_poly(terms):  # lex with x > y
    return {e: QPoly.const(c) for e, c in terms.items()}


X_1, Y_2 = xy_poly({(1, 0): 1, (0, 0): -1}), xy_poly({(0, 1): 1, (0, 0): -2})
# lt = xy and x^2 share x; S = x(xy - 1) - y(x^2 - y) = y^2 - x is irreducible
SHARED = [xy_poly({(1, 1): 1, (0, 0): -1}), xy_poly({(2, 0): 1, (0, 1): -1})]
# lt = x^2 and y^3 are coprime: Buchberger's first criterion
COPRIME = [xy_poly({(2, 0): 1, (0, 1): 1}), xy_poly({(0, 3): 1, (0, 0): -1})]
GROEBNER_CASES = {  # (basis, inputs, expected failure)
    "misses-input": ([X_1], [X_1, Y_2], "input"),
    "shared-lead-spair": (SHARED, SHARED, "S-polynomial"),
    "coprime-leads": (COPRIME, COPRIME, None),
}


@pytest.mark.parametrize("case", sorted(GROEBNER_CASES))
def test_assert_groebner_postcondition(case):
    basis, gens, failure = GROEBNER_CASES[case]
    if failure is None:
        assert_groebner(basis, gens)
    else:
        with pytest.raises(EliminationError, match=failure):
            assert_groebner(basis, gens)


def damaged_bases(basis):
    """The basis with one element dropped, or with one tail coefficient of
    one element raised by 1."""
    for i, g in enumerate(basis):
        yield basis[:i] + basis[i + 1:]
        for e in g:
            if e != max(g):
                terms = dict(g)
                terms[e] = terms[e] + 1
                terms = {u: c for u, c in terms.items() if c}
                yield basis[:i] + [terms] + basis[i + 1:]


def test_assert_groebner_rejects_a_damaged_basis():
    # a damaged reduced basis with all inputs and S-pairs reducing to zero
    # would be a reduced Groebner basis of the same ideal, which is unique
    for keep in "SAB":
        gens = keep_lowest(ifthenelse_system(), keep)
        basis = buchberger_lex(gens)
        assert_groebner(basis, gens)
        damaged = list(damaged_bases(basis))
        assert len(damaged) > len(basis)
        for other in damaged:
            with pytest.raises(EliminationError):
                assert_groebner(other, gens)


def test_ifthenelse_example_eliminates_each_unknown_once(monkeypatch):
    kept = []
    eliminate = csys.eliminate_univariate

    def counted(system, keep):
        kept.append(keep)
        return eliminate(system, keep)

    monkeypatch.setattr(csys, "eliminate_univariate", counted)
    assert example_ifthenelse().ok
    assert sorted(kept) == ["A", "B", "S"]


@pytest.mark.parametrize("d", [0, 1, 2])
def test_series_below_derivative_valuation(d):
    # val q'(h) is 3 for lukas1's H, and > 2 for its chain grammars' series
    chains = tuple(("grammar", parse_grammar(t)) for t in LUKAS1_CHAINS)
    res = hilbert_from_homology(HomologySpec(6, chains), d)
    assert res.series.d == d
    assert list(res.series.coeffs) == LUKAS1_SERIES[: d + 1]
    g = chains[0][1]
    gamma = gamma_algebraic(g, d)
    assert list(gamma.series.coeffs) == count_derivations(g, d)[g.start]


def test_reciprocal_poly_examples():
    p = RatPoly("E", [RationalFunction(-2), ONE])
    q = reciprocal_poly(p, "H")
    assert q.proportional_to(ratpoly("H", [[1], [-2]]))
    abc = ratpoly("E", [[3], [0, 5], [7]])
    assert reciprocal_poly(abc, "H").proportional_to(ratpoly("H", [[7], [0, 5], [3]]))


def test_reciprocal_involution():
    p = ratpoly("E", [[1, 2], [0, -1], [3]])
    back = reciprocal_poly(reciprocal_poly(p, "H"), "E")
    assert back.proportional_to(p)


def _series(coeff, bump=None):
    """series_at(D) for the series whose coefficient k is coeff(k), with the
    one at degree `bump` raised by 1."""
    return lambda D: TruncatedSeries([coeff(k) + (k == bump) for k in range(D + 1)], D)


def _central_binomial(k):
    return comb(k, k // 2)


def _dyck(k):
    # Catalan numbers at the even degrees
    return 0 if k % 2 else comb(k, k // 2) // (k // 2 + 1)


def test_newton_ifthenelse():
    q = eliminate_univariate(ifthenelse_system(), "S")
    out = newton_series(q, _series(_central_binomial), 7)
    assert list(out.coeffs) == [1, 1, 2, 3, 6, 10, 20, 35]


def test_newton_linear():
    q = ratpoly("H", [[-1, -1], [1]])  # H - (1 + t)
    out = newton_series(q, _series(lambda k: int(k < 2)), 5)
    assert list(out.coeffs) == [1, 1, 0, 0, 0, 0]


def test_newton_squarefree_fallback():
    # ((1 - t) H - 1)^2: a double root at 1/(1 - t), where q' vanishes too,
    # so the check runs on gcd(q, q')
    q = ratpoly("H", [[1], [-2, 2], [1, -2, 1]])
    assert list(newton_series(q, _series(lambda k: 1), 8).coeffs) == [1] * 9
    with pytest.raises(RootMismatchError):
        newton_series(q, _series(lambda k: 1, bump=2), 8)  # 1, 1, 2, 1, 1, ...


def test_newton_triple_root_fallback():
    # ((1 - t) H - 1)^3: gcd(q, q') still has a double root at 1/(1 - t),
    # so the check takes a second gcd before q' has a valuation there
    q = ratpoly("H", [[-1], [3, -3], [-3, 6, -3], [1, -3, 3, -1]])
    assert list(newton_series(q, _series(lambda k: 1), 8).coeffs) == [1] * 9
    with pytest.raises(RootMismatchError):
        newton_series(q, _series(lambda k: 1, bump=2), 8)


def _zt_product(*factors):
    """The product in Z[t][E] of factors given as ascending lists of integer
    t-coefficient lists, as a RatPoly."""
    out = [QPoly((1,))]
    for f in factors:
        prod = [QPoly()] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] = prod[i + j] + a * QPoly(b)
        out = prod
    return RatPoly("E", out)


def test_ratpoly_repeated_factor_gcd():
    # (E - r)^2 (E - s) for r = 1/(1 - t) and s = 2t/(3 + t^2), cleared into
    # Z[t][E]: gcd(q, q') is E - r, cleared, and (E - r)^3 gives (E - r)^2
    e_r, e_s = [[-1], [1, -1]], [[0, -2], [3, 0, 1]]
    assert _gcd_with_derivative(_zt_product(e_r, e_r, e_s)) == ratpoly("E", [[1], [-1, 1]])
    assert _gcd_with_derivative(_zt_product(e_r, e_r, e_r)) == _zt_product(e_r, e_r)
    assert _gcd_with_derivative(_zt_product(e_r, e_s)).degree == 0


def test_ratpoly_cleared_primitive_and_positive():
    # (2 + 4t)/(1 - t) + (-6/5) E  ->  (5 + 10t) + (3t - 3) E
    c0 = RationalFunction(QPoly((2, 4)), QPoly((1, -1)))
    p = RatPoly("E", [c0, RationalFunction(Fraction(-6, 5))])
    assert p.cleared() == ratpoly("E", [[5, 10], [-3, 3]])


def test_newton_dyck_catalan():
    q = ratpoly("T", [[1], [-1], [0, 0, 1]])  # t^2 T^2 - T + 1
    out = newton_series(q, _series(_dyck), 6)
    assert list(out.coeffs) == [1, 0, 1, 0, 2, 0, 5]


def _lukas1_h():
    chains = tuple(("grammar", parse_grammar(t)) for t in LUKAS1_CHAINS)
    res = hilbert_from_homology(HomologySpec(6, chains), 10)
    return res.poly_h, lambda k: res.series[k], 10, 10  # val q'(H) = 3


# (q, coefficient k of its root, d, the degree that is put off by one)
SEEDS = {
    "catalan-short": lambda: (ratpoly("T", [[1], [-1], [0, 0, 1]]), _dyck, 6, 0),
    "ifthenelse-S": lambda: (
        eliminate_univariate(ifthenelse_system(), "S"), _central_binomial, 10, 10
    ),
    "lukas1-H": _lukas1_h,
}


@pytest.mark.parametrize("case", sorted(SEEDS))
def test_newton_rejects_bad_seed(case):
    # the root comes back unchanged; with one coefficient off by one it is
    # caught, at degree d only by a residual taken past degree d
    q, coeff, d, k = SEEDS[case]()
    want = [coeff(i) for i in range(d + 1)]
    assert list(newton_series(q, _series(coeff), d).coeffs) == want
    with pytest.raises(RootMismatchError):
        newton_series(q, _series(coeff, bump=k), d)


def test_newton_annihilates():
    g = parse_grammar(IFTHENELSE)
    q = eliminate_univariate(ifthenelse_system(), "B")
    b = g.variables.index("B")
    out = newton_series(q, lambda D: TruncatedSeries(count_derivations(g, D)[b], D), 9)
    assert list(out.coeffs[:2]) == [0, 1]
    res = q.cleared().eval_series(out, 9)
    assert all(res[i] == 0 for i in range(10))


def test_newton_accepts_another_root():
    # (S - t)(S - 1 - t) has the roots t and 1 + t: 1 + t is the series t with
    # the constant raised by one, and it passes, being exact for the other root
    q = ratpoly("S", [[0, 1, 1], [-1, -2], [1]])
    assert list(newton_series(q, _series(lambda k: int(k == 1)), 5).coeffs) == [0, 1, 0, 0, 0, 0]
    assert list(newton_series(q, _series(lambda k: int(k < 2)), 5).coeffs) == [1, 1, 0, 0, 0, 0]


@st.composite
def proper_grammars(draw):
    """1-2 letters, 1-3 variables, each with 1-3 bodies of length 0-2 (longer
    bodies make some eliminations run for minutes); a grammar with a
    unit/epsilon cycle, or whose start derives no word, is skipped."""
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    body = st.lists(st.integers(0, n + m - 1), max_size=2).map(tuple)
    prods = {
        (var, rhs)
        for var in range(m)
        for rhs in draw(st.lists(body, min_size=1, max_size=3))
    }
    g = CFGrammar(Alphabet(list("ab"[:n])), Alphabet(list("SAB"[:m])), 0, sorted(prods))
    try:
        _layer_plan(g, g.productive)
    except DivergenceError:
        reject()
    assume(g.start in g.productive)
    return g


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def sympy_poly(sympy, p, keep):
    """The RatPoly p as a sympy Poly in keep over QQ(t)."""
    t = sympy.Symbol("t")
    field = sympy.QQ.frac_field(t)
    expr = sum(
        sympy_coeff(c, t) * sympy.Symbol(keep) ** k for k, c in enumerate(p.coeffs)
    )
    return sympy.Poly(expr, sympy.Symbol(keep), domain=field)


def sympy_value(q, t):
    """The QPoly q as a sympy expression in t."""
    return sum(x * t**i for i, x in enumerate(q.coeffs))


def sympy_coeff(c, t):
    return sympy_value(c.znum, t) / sympy_value(c.zden, t)


def sympy_eliminants(sympy, system, keep):
    """The elements in keep alone of sympy's reduced lex Groebner basis over
    QQ(t), keep lowest, of the system and X - rep(X) for each unknown X that
    merge_unknowns merges into rep(X): the ideal the merged system's
    elimination ideal comes from."""
    t = sympy.Symbol("t")
    names = {v: sympy.Symbol(v) for v in system.unknowns}
    polys = [
        sum(
            sympy_value(c, t) * sympy.Mul(*(names[v] ** k for v, k in zip(system.unknowns, e)))
            for e, c in eq.items()
        )
        for eq in system.equations
    ]
    rep = merge_unknowns(system, keep)
    polys += [names[u] - names[r] for u, r in rep.items() if u != r]
    order = [names[v] for v in system.unknowns if v != keep] + [names[keep]]
    basis = sympy.groebner(polys, *order, order="lex", domain=sympy.QQ.frac_field(t))
    return [
        sympy.Poly(g, names[keep], domain=sympy.QQ.frac_field(t))
        for g in basis.exprs
        if g.free_symbols <= {t, names[keep]}
    ]


def test_sympy_reproduces_the_ifthenelse_quadratic(sympy):
    (want,) = sympy_eliminants(sympy, ifthenelse_system(), "S")
    pinned = ratpoly("S", [[1], [-1, 2], [0, -1, 2]])
    assert want.monic() == sympy_poly(sympy, pinned, "S").monic()


@settings(max_examples=60, deadline=None)
@given(proper_grammars())
def test_newton_check_catches_each_bump(g):
    def at(bump):
        def series_at(D):
            counts = count_derivations(g, D)[g.start]
            return TruncatedSeries([c + (i == bump) for i, c in enumerate(counts)], D)

        return series_at

    d = 6
    try:
        q = eliminate_univariate(build_system(g), "S")
    except EliminationError:
        # e.g. S = t + B, B = A B, A = A A: B, so S, is free where A = 1
        reject()
    f = newton_series(q, at(None), d)
    assert list(f.coeffs) == count_derivations(g, d)[g.start]
    # a power-series root r != f of q has val(f - r) <= v = val q'(f) for the
    # cleared q, whose q'(f) is its leading coefficient, in Z[t], times the
    # f - r over q's other roots: the check can accept the series with
    # coefficient k raised by one only for k <= v, where it can be r's.  At
    # a repeated root f, v is None and no bump is asserted here; the triple
    # root test covers that path
    v = q.cleared().derivative().eval_series(f, d).valuation()
    for k in range(d + 1 if v is None else v + 1, d + 1):
        with pytest.raises(RootMismatchError):
            newton_series(q, at(k), d)


def test_build_system_images():
    g = parse_grammar(DYCK)
    system = build_system(g)
    eq = system.equations[system.unknowns.index("S")]
    # S - 1 - t^2 S^2
    assert eq == {(1,): QPoly.const(1), (0,): QPoly.const(-1), (2,): QPoly.t_power(2, -1)}


# ---------------------------------------------------------------------------
# merging unknowns with equal equations before elimination

STU = """
terminals: a b c d
variables: S T U
start: S
S -> T U
T -> eps | a T b T
U -> eps | c U d U
"""

# fp-variant's Euler characteristic: E^2 + (6t^3 - 23t^2 + 18t - 2) E + ...
FPV_QUAD = [[1, -18, 104, -213, 186, -69, 10], [-2, 18, -23, 6], [1]]


def test_merge_keeps_the_kept_unknown_alone():
    # T and U have the same equation X = 1 + t^2 X^2
    g = parse_grammar(STU)
    system = build_system(g)
    assert merge_unknowns(system, "S") == {"S": "S", "T": "T", "U": "T"}
    assert merge_unknowns(system, "U") == {"S": "S", "T": "T", "U": "U"}
    assert gamma_algebraic(g, 8).poly.proportional_to(
        ratpoly("S", [[1], [-1, 0, 2], [0, 0, 0, 0, 1]])
    )
    res = gamma_algebraic(g, 8, keep="U")
    assert res.poly.proportional_to(ratpoly("U", [[1], [-1], [0, 0, 1]]))
    assert list(res.series.coeffs) == [1, 0, 1, 0, 2, 0, 5, 0, 14]


XY_SUMS = """
terminals: a b
variables: S X Y A B
start: S
S -> X Y
X -> a A | a B
Y -> a A | A a
A -> eps | a A b A
B -> eps | a B b B
"""


def test_merge_sums_the_terms_that_meet():
    # B merges into A; then X = tA + tB and Y = 2tA are one equation, once
    # the two terms that meet at t*A are summed
    g = parse_grammar(XY_SUMS)
    rep = merge_unknowns(build_system(g), "S")
    assert rep == {"S": "S", "X": "X", "Y": "X", "A": "A", "B": "A"}
    res = gamma_algebraic(g, 12)
    assert list(res.series.coeffs) == count_derivations(g, 12)[0]
    assert list(res.series.coeffs) == [0, 0, 4, 0, 8, 0, 20, 0, 56, 0, 168, 0, 528]


def test_merge_drops_terms_that_cancel():
    # X = t*A - t*B is 0 once B merges into A, so X and Y = 0 merge
    names = ("S", "X", "Y", "A", "B")
    one, t = QPoly.const(1), QPoly.t_power(1)
    s, x, y, a, b = (tuple(int(u == v) for u in names) for v in names)
    system = AlgebraicSystem(names, (
        {s: one, (0, 1, 1, 0, 0): -one},
        {x: one, a: -t, b: t},
        {y: one},
        {a: one, (0,) * 5: -one, (0, 0, 0, 2, 0): -t},
        {b: one, (0,) * 5: -one, (0, 0, 0, 0, 2): -t},
    ))
    assert merge_unknowns(system, "S") == {"S": "S", "X": "X", "Y": "X", "A": "A", "B": "A"}


def test_rename_terms_sums_and_cancels():
    one, t = QPoly.const(1), QPoly.t_power(1)
    # A + t B -> (1 + t) A: the terms meet and are summed
    assert rename_terms({(1, 0): one, (0, 1): t}, "AB", {"B": "A"}, "A") == {(1,): one + t}
    # t A - t B + 1 -> 1: the terms meet and cancel
    got = rename_terms({(1, 0): t, (0, 1): -t, (0, 0): one}, "AB", {"B": "A"}, "A")
    assert got == {(0,): one}
    # no mapping: the exponents follow the unknowns into their new slots
    assert rename_terms({(2, 1): t, (0, 1): one}, "AB", {}, "BA") == {(1, 2): t, (1, 0): one}


# chain 2 of triple as the rational descriptor t^6 / (1 - t^3)
TRIPLE_GAMMA2 = RationalFunction(QPoly.t_power(6), QPoly((1, 0, 0, -1)))


def test_rational_descriptor_equation_is_cleared():
    # E2 - t^6/(1 - t^3) is q E2 - p for the canonical pair p/q in Z[t],
    # whose q has a positive leading integer: (t^3 - 1) E2 + t^6
    spec = HomologySpec(3, (("grammar", parse_grammar(IFTHENELSE)), ("rational", TRIPLE_GAMMA2)))
    system = assemble_system(spec)
    assert system.unknowns == ("E", "E1", "A", "B", "E2")
    e2 = tuple(int(u == "E2") for u in system.unknowns)
    assert system.equations[-1] == {e2: QPoly((-1, 0, 0, 1)), (0,) * 5: QPoly.t_power(6)}


def test_equal_rational_descriptors_merge():
    # triple's chain 1 grammar, then t^6/(1 - t^3) twice; A and B of the
    # grammar count x^n y^n and y^n z^n, and merge too
    chains = (("grammar", parse_grammar(TRIPLE_L1)),) + (("rational", TRIPLE_GAMMA2),) * 2
    system = assemble_system(HomologySpec(3, chains))
    assert system.unknowns == ("E", "E1", "A", "B", "E2", "E3")
    rep = merge_unknowns(system, "E")
    assert rep == {"E": "E", "E1": "E1", "A": "A", "B": "A", "E2": "E2", "E3": "E2"}


def test_x12_system_merges_nothing():
    # the states of a minimal DFA have distinct languages
    system = x12_system()
    assert merge_unknowns(system, "A1") == {u: u for u in system.unknowns}


def test_fp_variant_eliminant_is_a_quadratic():
    # the chain grammars' T and Q merge, so the quartic of the unmerged
    # system, which has this quadratic as a factor, is not printed
    res = hilbert_from_homology(_chain_spec(FPV_CHAINS, 9), 6)
    assert res.poly_e.proportional_to(ratpoly("E", FPV_QUAD))


def test_printed_polynomials_are_irreducible():
    sympy = pytest.importorskip("sympy")
    polys = [
        hilbert_from_homology(_chain_spec(chains, n), 4).poly_e
        for chains, n in ((LUKAS1_CHAINS, 6), (LUKAS2_CHAINS, 7), (FP_CHAINS, 7), (FPV_CHAINS, 9))
    ]
    polys += [gamma_algebraic(parse_grammar(text), 4).poly for text in (IFTHENELSE, DYCK, STU)]
    names = {v: sympy.Symbol(v) for v in ("t", "E", "S")}
    for p in polys:
        expr = sympy.sympify(repr(p.cleared()).replace("^", "**"), locals=names)
        _, factors = sympy.factor_list(expr)
        assert len(factors) == 1 and factors[0][1] == 1, p.cleared()


@st.composite
def twinned_grammars(draw):
    """A proper grammar with a twin of each variable.  The twin's bodies are
    the variable's, each variable occurrence moved to its twin or not, so a
    variable and its twin count the same words."""
    g = draw(proper_grammars())
    n, m = g.terminals.size, g.variables.size
    prods = []
    for var, rhs in g.productions:
        twin = tuple(s + m if s >= n and draw(st.booleans()) else s for s in rhs)
        prods += [(var, rhs), (var + m, twin)]
    names = Alphabet(list("SAB"[:m] + "TCD"[:m]))
    return CFGrammar(g.terminals, names, 0, prods)


@settings(max_examples=60, deadline=None)
@given(twinned_grammars(), st.data())
def test_merging_keeps_the_certified_series(g, data):
    d = 8
    system = build_system(g)
    keep = data.draw(st.sampled_from(system.unknowns))
    counts = count_derivations(g, d)
    rep = merge_unknowns(system, keep)
    assert rep[keep] == keep
    for u, r in rep.items():
        assert counts[g.variables.index(u)] == counts[g.variables.index(r)], (u, r)
    try:
        q = eliminate_univariate(system, keep)
    except EliminationError:
        reject()
    j = g.variables.index(keep)
    f = newton_series(q, lambda D: TruncatedSeries(count_derivations(g, D)[j], D), d)
    assert list(f.coeffs) == counts[j]


@settings(max_examples=60, deadline=None)
@given(g=st.one_of(proper_grammars(), twinned_grammars()))
def test_eliminant_matches_sympy(sympy, g):
    system = build_system(g)
    try:
        q = eliminate_univariate(system, "S")
    except EliminationError:
        reject()
    (want,) = sympy_eliminants(sympy, system, "S")
    assert sympy_poly(sympy, q, "S").monic() == want.monic()


zt_factor_st = st.lists(
    st.lists(st.integers(-3, 3), max_size=3), min_size=2, max_size=3
).filter(lambda f: any(f[-1]))


@settings(max_examples=40, deadline=None)
@given(a=zt_factor_st, b=zt_factor_st)
def test_repeated_factor_gcd_matches_sympy(sympy, a, b):
    # gcd(q, q') of q = a^2 b over QQ(t), against sympy's field gcd
    q = _zt_product(a, a, b)
    want = sympy_poly(sympy, q, "E")
    want = want.gcd(want.diff(sympy.Symbol("E")))
    assert sympy_poly(sympy, _gcd_with_derivative(q), "E").monic() == want.monic()
