"""Randomized invariants over the word/language/automaton layer, the
canonical Q(t) pairs and the Q[t] gcd."""

from fractions import Fraction
from functools import reduce
from itertools import product
from math import gcd
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import is_normal
from nchilbert.examples import DYCK, IFTHENELSE, LUKASIEWICZ
from nchilbert.grammar import count_derivations, enumerate_words, parse_grammar
from nchilbert.homology import count_normal, govorov_chains_trunc
from nchilbert.multipoly import RatPoly
from nchilbert.ratfunc import QPoly, RationalFunction
from nchilbert.regular import (
    ideal_automaton,
    myhill_nerode_grammar,
    right_quotient,
)
from nchilbert.words import (
    Alphabet,
    FiniteLanguage,
    TruncatedLanguage,
    full_language,
    minimize_antichain,
    trunc_boolean,
    trunc_ideal,
    trunc_product,
)

XY = Alphabet(["x", "y"])


def words_of_length(alphabet, n):
    """Every word of length n over the alphabet."""
    return [bytes(t) for t in product(range(alphabet.size), repeat=n)]


word_st = st.lists(st.integers(0, 1), min_size=1, max_size=4).map(bytes)
lang_st = st.frozensets(word_st, max_size=6).map(
    lambda ws: FiniteLanguage(XY, ws)
)
short_word_st = st.lists(st.integers(0, 1), max_size=3).map(bytes)
tlang_st = st.frozensets(short_word_st, max_size=5).map(
    lambda ws: TruncatedLanguage(XY, 9, ws)
)


@given(lang_st)
def test_minimize_antichain_idempotent_and_factor_free(lang):
    once = minimize_antichain(lang)
    assert minimize_antichain(once).words == once.words
    for w in once.words:
        for v in once.words:
            if v != w:
                assert v not in [w[i:i + len(v)] for i in range(len(w))]


@given(lang_st, st.integers(0, 6))
def test_normal_plus_ideal_is_total(lang, d):
    basis = minimize_antichain(lang)
    if b"" in basis.words:
        return
    # basis words longer than d cannot be factors inside the window
    window = frozenset(w for w in basis.words if len(w) <= d)
    ideal = trunc_ideal(TruncatedLanguage(XY, d, window), d)
    for k in range(d + 1):
        normal = sum(
            1 for w in words_of_length(XY, k) if is_normal(w, basis)
        )
        inside = sum(1 for w in ideal.words if len(w) == k)
        assert normal + inside == 2 ** k


@given(st.frozensets(short_word_st, max_size=6))
@example(frozenset({b""}))
def test_count_normal_matches_brute_force(words):
    # the word set may hold eps, whose ideal is everything
    basis = minimize_antichain(FiniteLanguage(XY, words))
    assert count_normal(basis, 6) == [
        sum(1 for w in words_of_length(XY, k) if is_normal(w, basis)) for k in range(7)
    ]


XYZ = Alphabet(["x", "y", "z"])


@st.composite
def word_sets(draw):
    """Any finite word set over 1-3 letters: eps, prefixes and factors of
    one another, the empty set."""
    n = draw(st.integers(1, 3))
    word = st.lists(st.integers(0, n - 1), max_size=5).map(bytes)
    return FiniteLanguage(Alphabet(XYZ.symbols[:n]), draw(st.frozensets(word, max_size=6)))


@settings(max_examples=150, deadline=None)
@given(word_sets())
@example(FiniteLanguage.from_texts(XY, ["x", "x y"]))  # not an antichain
@example(FiniteLanguage.from_texts(XYZ, ["y", "x y z", "eps"]))
@example(FiniteLanguage(XYZ, frozenset()))
@example(FiniteLanguage(Alphabet([]), frozenset()))  # no letters: one state
def test_ideal_automaton_of_any_word_set(lang):
    # S and its minimal basis generate one ideal, so one minimal automaton
    assert ideal_automaton(lang).dfa == ideal_automaton(minimize_antichain(lang)).dfa
    assert count_normal(lang, 6) == [
        sum(1 for w in words_of_length(lang.alphabet, k) if not any(v in w for v in lang.words))
        for k in range(7)
    ]


@settings(max_examples=80, deadline=None)
@given(
    st.frozensets(st.lists(st.integers(0, 2), max_size=6).map(bytes), max_size=5),
    st.integers(0, 5),
    st.integers(0, 2),
)
@example(frozenset({b""}), 3, 0)
@example(frozenset({b"\x00", b"\x00\x01", b"\x02\x02"}), 4, 0)  # not an antichain
@example(frozenset({b"\x01\x02", b"\x00\x00\x00\x00\x00\x00"}), 3, 1)  # past d
def test_trunc_ideal_matches_factor_scan_random(words, d, wider):
    # the window reaches past d by `wider`, or further to hold every word
    window = max(d + wider, max(map(len, words), default=0))
    ideal = trunc_ideal(TruncatedLanguage(XYZ, window, words), d)
    assert ideal.d == d
    assert set(ideal.words) == {
        w for k in range(d + 1) for w in words_of_length(XYZ, k)
        if any(v in w for v in words)
    }


@settings(max_examples=40)
@given(tlang_st, tlang_st, tlang_st)
def test_trunc_product_associative(a, b, c):
    d = 9
    left = trunc_product(trunc_product(a, b, d), c, d)
    right = trunc_product(a, trunc_product(b, c, d), d)
    assert left.words == right.words


@settings(max_examples=60, deadline=None)
@given(
    st.frozensets(short_word_st, max_size=5),
    st.frozensets(short_word_st, max_size=5),
    st.integers(0, 5),
    st.integers(1, 4),
    st.sampled_from([DYCK, IFTHENELSE, LUKASIEWICZ]),
)
def test_built_windows_hold_no_word_past_their_bound(ws, vs, d, m, grammar):
    # these builders skip the per-word length check of TruncatedLanguage
    a, b = (TruncatedLanguage(XY, d, frozenset(w for w in xs if len(w) <= d))
            for xs in (ws, vs))
    wide = TruncatedLanguage(XY, 9, vs)
    windows = [
        full_language(XY, d),
        trunc_product(a, b, d),
        trunc_ideal(a, d),
        enumerate_words(parse_grammar(grammar), d),
        govorov_chains_trunc(a, m, d),
        trunc_boolean(a, wide),
    ]
    for lang in windows:
        assert lang.d == d
        assert max(map(len, lang.words), default=0) <= d


@settings(max_examples=30)
@given(lang_st, short_word_st, short_word_st)
def test_quotient_composition_law(lang, v, w):
    basis = minimize_antichain(lang)
    if b"" in basis.words:
        return
    handle = ideal_automaton(basis)
    lhs = right_quotient(handle, v + w)
    rhs = right_quotient(right_quotient(handle, v), w)
    for u in full_language(XY, 5).words:
        assert lhs.accepts(u) == rhs.accepts(u)
    assert all(
        right_quotient(handle, b"").accepts(u) == handle.accepts(u)
        for u in full_language(XY, 4).words
    )


@settings(max_examples=25, deadline=None)
@given(lang_st)
def test_ideal_grammar_counts_match_membership(lang):
    basis = minimize_antichain(lang)
    if b"" in basis.words:
        return
    handle = ideal_automaton(basis)
    g = myhill_nerode_grammar(handle)
    d = 6
    enumerated = enumerate_words(g, d)
    counts = count_derivations(g, d)[g.start]
    per_len = [0] * (d + 1)
    for w in enumerated.words:
        per_len[len(w)] += 1
        assert handle.accepts(w)
    # right-linear grammars from a DFA are unambiguous: counts coincide
    assert per_len == counts
    for w in full_language(XY, d).words:
        assert handle.accepts(w) == (w in set(enumerated.words))


# products of a few shared factors, so that operands often have common ones
FACTORS = [QPoly(c) for c in ((0, 1), (-1, 1), (1, 1), (1, 2), (1, 0, 1))]
factored_st = st.builds(
    lambda c, fs: reduce(mul, fs, QPoly.const(c)),
    st.integers(-3, 3).filter(bool),
    st.lists(st.sampled_from(FACTORS), max_size=3),
)
dense_st = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=4
).map(QPoly)
nonzero_poly_st = st.one_of(factored_st, dense_st.filter(bool))
# (numerator, denominator) pairs; shared factors make reduction needed
ratpair_st = st.tuples(st.one_of(nonzero_poly_st, dense_st), nonzero_poly_st)


@settings(max_examples=300, deadline=None)
@given(ratpair_st, factored_st)
def test_ratfunc_results_are_canonical(pair, k):
    # the constructor's pair is the element num/den, with a positive leading
    # denominator coefficient, and depends only on the element: scaling
    # both by a common factor k changes nothing
    num, den = pair
    got = RationalFunction(num, den)
    assert got.znum * den == num * got.zden
    assert got.zden.coeffs[-1] > 0 and got.den.coeffs[-1] == 1
    again = RationalFunction(num * k, den * k)
    assert (again.znum.coeffs, again.zden.coeffs) == (got.znum.coeffs, got.zden.coeffs)
    assert again == got and hash(again) == hash(got)


@settings(max_examples=300, deadline=None)
@given(ratpair_st)
def test_ratfunc_results_store_integer_pairs(pair):
    # int coefficients, coprime in Z[t] (no common factor of positive degree
    # and no common integer factor), the denominator's leading one positive
    got = RationalFunction(*pair)
    n, d = got.znum.coeffs, got.zden.coeffs
    assert all(type(c) is int for c in n + d)
    assert d[-1] > 0 and gcd(*n, *d) == 1
    assert _field_gcd(got.znum, got.zden) == QPoly.const(1)


def test_ratfunc_results_match_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")

    def to_sympy(p):
        return sum(
            (sympy.Rational(c.numerator, c.denominator) * t**k
             for k, c in enumerate(p.coeffs)),
            sympy.Integer(0),
        )

    def coeffs(expr, scale):
        # low-to-high coefficients of expr / scale, trailing zeros dropped
        cs = [Fraction(int(c.p), int(c.q))
              for c in reversed(sympy.Poly(expr / scale, t).all_coeffs())]
        while cs and not cs[-1]:
            cs.pop()
        return cs

    @settings(max_examples=100, deadline=None)
    @given(ratpair_st)
    def check(pair):
        num, den = pair
        got = RationalFunction(num, den)
        snum, sden = sympy.fraction(sympy.cancel(to_sympy(num) / to_sympy(den)))
        lead = sympy.Poly(sden, t).LC()
        assert list(got.num.coeffs) == coeffs(snum, lead)
        assert list(got.den.coeffs) == coeffs(sden, lead)

    check()


def _cross_proportional(p, q):
    """Reference: p and q, both zero or both nonzero, with a_i b_j = a_j b_i
    for their coefficients, cross-multiplied over Z[t]."""
    n = max(len(p.coeffs), len(q.coeffs))
    a = [p[i] for i in range(n)]
    b = [q[i] for i in range(n)]
    return bool(p) == bool(q) and all(
        a[i].znum * b[j].znum * a[j].zden * b[i].zden
        == a[j].znum * b[i].znum * a[i].zden * b[j].zden
        for i in range(n)
        for j in range(i)
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(st.integers(-4, 4), max_size=3), min_size=1, max_size=4),
    nonzero_poly_st,
    nonzero_poly_st,
    dense_st.filter(bool),
    st.data(),
)
def test_proportional_to_matches_cross_multiplication(lists, a, b, delta, data):
    # an integer polynomial and its copy with every coefficient scaled by a/b
    # through the constructor are proportional; with one coefficient of the
    # copy changed they are not, unless that coefficient was the only one
    p = RatPoly("H", lists)
    scaled = [RationalFunction(QPoly(c) * a, b) for c in lists]
    copy = RatPoly("H", scaled)
    assert p.proportional_to(copy) and _cross_proportional(p, copy)
    k = data.draw(st.integers(0, len(lists) - 1))
    scaled[k] = RationalFunction((QPoly(lists[k]) + delta) * a, b)
    changed = RatPoly("H", scaled)
    assert p.proportional_to(changed) == _cross_proportional(p, changed)
    if any(c for i, c in enumerate(p.coeffs) if i != k):
        assert not p.proportional_to(changed)


def _field_gcd(a, b):
    """Reference: the Euclidean algorithm over Q, made monic at the end."""
    while b:
        a, b = b, a % b
    return a.monic()


# large denominators, both signs of leading coefficient, and (through the
# t-power) factors with a zero constant term
big_frac_st = st.fractions(min_value=-50, max_value=50, max_denominator=10**6)
big_poly_st = st.lists(big_frac_st, max_size=4).map(QPoly)
planted_st = st.builds(
    lambda h, k: h * QPoly.t_power(k),
    big_poly_st.filter(bool),
    st.integers(0, 2),
)
NEG_LEAD = QPoly((Fraction(1, 999983), 0, Fraction(-7, 3)))


@settings(max_examples=200, deadline=None)
@given(planted_st, big_poly_st, big_poly_st)
@example(QPoly.t_power(1), NEG_LEAD, NEG_LEAD * QPoly((1, 1)))
@example(NEG_LEAD, QPoly.const(-3), QPoly((0, Fraction(-5, 8))))
def test_qpoly_gcd_matches_field_euclid(h, p, q):
    a, b = h * p, h * q
    g = a.gcd(b)
    assert g == _field_gcd(a, b)
    if g:
        assert g.coeffs[-1] == 1
        assert not a % g and not b % g and not g % h


def test_qpoly_gcd_edge_cases():
    zero, p = QPoly(), NEG_LEAD * QPoly((0, 2))
    assert zero.gcd(zero) == zero
    assert p.gcd(zero) == zero.gcd(p) == p.monic()
    assert p.gcd(QPoly.const(Fraction(-5, 3))) == QPoly.const(1)
    assert QPoly.const(Fraction(7, 2)).gcd(p) == QPoly.const(1)


def test_qpoly_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")

    def to_sympy(p):
        cs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
        return sympy.Poly(cs or [0], t, domain="QQ")

    @settings(max_examples=60, deadline=None)
    @given(planted_st, big_poly_st, big_poly_st)
    def check(h, p, q):
        a, b = h * p, h * q
        want = to_sympy(a).gcd(to_sympy(b))
        if not want.is_zero:
            want = want.monic()
        assert to_sympy(a.gcd(b)) == want

    check()
