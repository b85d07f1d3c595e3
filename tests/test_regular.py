"""Regular-language engine: quotients, Algorithm-1 grammars, ideal automata."""

import random

from helpers import is_normal
from nchilbert.examples import xystar_handle
from nchilbert.grammar import enumerate_words, parse_grammar
from nchilbert.regular import (
    DFA,
    RegularLanguageHandle,
    ideal_automaton,
    myhill_nerode_grammar,
    right_quotient,
)
from nchilbert.words import Alphabet, FiniteLanguage, full_language

XY = Alphabet(["x", "y"])


def accepts_same(h1, h2, d=8):
    return all(
        h1.accepts(w) == h2.accepts(w) for w in full_language(XY, d).words
    )


def test_right_quotient_xystar_by_x_is_itself():
    h = xystar_handle()
    assert accepts_same(right_quotient(h, XY.word("x")), h)


def test_right_quotient_xystar_by_y_is_ystar():
    h = right_quotient(xystar_handle(), XY.word("y"))
    for w in full_language(XY, 6).words:
        assert h.accepts(w) == all(b == 1 for b in w)


def test_right_quotient_ystar_by_x_is_empty():
    h = right_quotient(right_quotient(xystar_handle(), XY.word("y")), XY.word("x"))
    assert not any(h.accepts(w) for w in full_language(XY, 6).words)


def test_quotient_law_composition():
    h = ideal_automaton(
        FiniteLanguage.from_texts(XY, ["x y", "y y x"])
    )
    for v in ("x", "y x", "x y"):
        for w in ("y", "x x"):
            lhs = right_quotient(h, XY.word(v + " " + w))
            rhs = right_quotient(right_quotient(h, XY.word(v)), XY.word(w))
            assert accepts_same(lhs, rhs, 6)


def test_myhill_nerode_xystar():
    g = myhill_nerode_grammar(xystar_handle())
    assert g.variables.symbols == ("A1", "A2", "A3")
    got = {(g.variables.symbols[v], g.rhs_text(rhs)) for v, rhs in g.productions}
    assert got == {
        ("A1", "eps"), ("A1", "x A1"), ("A1", "y A2"),
        ("A2", "eps"), ("A2", "x A3"), ("A2", "y A2"),
        ("A3", "x A3"), ("A3", "y A3"),
    }


def test_dfa_equality_agrees_with_hash():
    a = DFA(XY, ((0, 1), (1, 1)), frozenset([1]), 0)
    b = DFA(XY, ((0, 1), (1, 1)), frozenset({1}), 0)
    assert a == b and a is not b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != DFA(XY, ((0, 1), (1, 1)), frozenset([1]), 1)


def test_myhill_nerode_empty_language():
    dfa = DFA(XY, ((0, 0),), frozenset(), 0)
    g = myhill_nerode_grammar(RegularLanguageHandle(dfa))
    assert g.variables.symbols == ("A1",)
    got = {(v, g.rhs_text(rhs)) for v, rhs in g.productions}
    assert got == {(0, "x A1"), (0, "y A1")}


def test_ideal_automaton_xx_three_states():
    basis = FiniteLanguage.from_texts(XY, ["x x"])
    h = ideal_automaton(basis)
    assert h.dfa.n_states == 3
    for w in full_language(XY, 8).words:
        assert h.accepts(w) == (not is_normal(w, basis))


def test_ideal_automaton_xy_yx_four_states():
    basis = FiniteLanguage.from_texts(XY, ["x y", "y x"])
    h = ideal_automaton(basis)
    assert h.dfa.n_states == 4
    for w in full_language(XY, 8).words:
        assert h.accepts(w) == (not is_normal(w, basis))


def test_ideal_automaton_empty_basis():
    h = ideal_automaton(FiniteLanguage(XY, frozenset()))
    assert not any(h.accepts(w) for w in full_language(XY, 5).words)


def test_grammar_language_matches_handle():
    basis = FiniteLanguage.from_texts(XY, ["x x"])
    h = ideal_automaton(basis)
    g = myhill_nerode_grammar(h)
    lang = set(enumerate_words(g, 8).words)
    for w in full_language(XY, 8).words:
        assert (w in lang) == h.accepts(w)


def test_myhill_nerode_canonicity():
    h = ideal_automaton(FiniteLanguage.from_texts(XY, ["x y", "y y x"]))
    g1 = myhill_nerode_grammar(h)
    g2 = myhill_nerode_grammar(RegularLanguageHandle.from_right_linear(g1))
    assert len(g1.variables.symbols) == len(g2.variables.symbols)


def test_from_right_linear_roundtrip():
    g = parse_grammar(
        "terminals: x y\nvariables: A1 A2\nstart: A1\n"
        "A1 -> eps | x A1 | y A2\nA2 -> eps | y A2"
    )
    h = RegularLanguageHandle.from_right_linear(g)
    lang = set(enumerate_words(g, 7).words)
    for w in full_language(XY, 7).words:
        assert (w in lang) == h.accepts(w)


def _relabelled(dfa, perm):
    """The same automaton with state s renamed perm[s]."""
    rows = [None] * dfa.n_states
    for s, row in enumerate(dfa.transitions):
        rows[perm[s]] = tuple(perm[t] for t in row)
    accepting = frozenset(perm[s] for s in dfa.accepting)
    return DFA(dfa.alphabet, tuple(rows), accepting, perm[dfa.initial])


def test_handle_dfa_is_canonical():
    # myhill_nerode_grammar reads variable A(k+1) off state k
    rng = random.Random(20261018)
    for _ in range(200):
        n_sym, k = rng.randint(1, 3), rng.randint(1, 8)
        rows = tuple(tuple(rng.randrange(k) for _ in range(n_sym)) for _ in range(k))
        accepting = frozenset(s for s in range(k) if rng.random() < 0.4)
        dfa = DFA(Alphabet(list("xyz"[:n_sym])), rows, accepting, rng.randrange(k))
        perm = list(range(k))
        rng.shuffle(perm)
        canon = RegularLanguageHandle(dfa).dfa
        assert RegularLanguageHandle(_relabelled(dfa, perm)).dfa == canon
        seen = [canon.initial]  # breadth-first discovery order
        for s in seen:
            for t in canon.transitions[s]:
                if t not in seen:
                    seen.append(t)
        assert seen == list(range(canon.n_states))
