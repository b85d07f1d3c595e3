"""Truncated Groebner-Shirshov completion in the free algebra."""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nchilbert import gsb
from nchilbert.errors import InputError
from nchilbert.examples import FP_FAMILY, FP_FINITE, FP_PRESENTATION, FPV_PRESENTATION
from nchilbert.grammar import parse_grammar
from nchilbert.gsb import (
    MonomialOrder,
    NCPolynomial,
    compare_leading,
    gs_complete,
    leading_language,
    nc_reduce,
    parse_presentation,
)
from nchilbert.homology import PatternFamily, RelationSet
from nchilbert.words import Alphabet, FiniteLanguage

# fp's leading language at D = 8, 10 and 12, recorded by the benchmark
REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


def overlaps(w, v):
    """Proper overlap widths o: the suffix of w of length o begins v."""
    return [o for o in range(1, min(len(w), len(v))) if w[-o:] == v[:o]]


def poly(alphabet, *signed_texts):
    terms = {}
    for coeff, text in signed_texts:
        terms[alphabet.word(text)] = coeff
    return NCPolynomial(alphabet, terms)


def fp_setup():
    return parse_presentation(FP_PRESENTATION)


def fp_predicted(alphabet):
    finite = FiniteLanguage(
        alphabet, frozenset(alphabet.word(s) for s in FP_FINITE)
    )
    family = PatternFamily((("grammar", parse_grammar(FP_FAMILY)),))
    return RelationSet(alphabet, finite, (family,))


@given(st.lists(st.binary(max_size=4), min_size=1))
def test_max_word_is_the_key_maximum(words):
    order = MonomialOrder(Alphabet(["x", "y", "z"]))
    words = [bytes(b % 3 for b in w) for w in words]
    assert order.max_word(words) == max(words, key=order.key)


def test_order_key():
    alphabet, order, _ = fp_setup()
    # grad first, then priority: a' beats y at equal length
    assert order.max_word([alphabet.word("y"), alphabet.word("a'")]) == alphabet.word("a'")
    assert order.max_word([alphabet.word("y y"), alphabet.word("a'")]) == alphabet.word("y y")


def test_nc_reduce_commuting_relation():
    alphabet, order, _ = fp_setup()
    basis = {alphabet.word("a' x"): poly(alphabet, (1, "a' x"), (-1, "x a'"))}
    out = nc_reduce(poly(alphabet, (1, "a' x")), basis, order)
    assert out == poly(alphabet, (1, "x a'"))
    irred = poly(alphabet, (1, "x a'"))
    assert nc_reduce(irred, basis, order) == irred


def test_nc_reduce_two_steps():
    alphabet, order, _ = fp_setup()
    basis = {
        alphabet.word("b' x"): poly(alphabet, (1, "b' x"), (-1, "x e")),
        alphabet.word("x y e"): poly(alphabet, (1, "x y e")),
    }
    out = nc_reduce(poly(alphabet, (1, "b' x y")), basis, order)
    assert out == poly(alphabet, (1, "x e y"))


def test_commutative_toy_stays_put():
    alphabet, order, rels = parse_presentation("alphabet: x y\nx y - y x\n")
    basis = gs_complete(rels, order, 5)
    assert len(basis) == 1
    assert basis[0] == poly(alphabet, (1, "x y"), (-1, "y x"))


def test_presentation_coefficients_complete_to_monic():
    alphabet, order, rels = parse_presentation("alphabet: x y\n2 x y - 1/2 y x\n")
    assert rels == [poly(alphabet, (2, "x y"), (Fraction(-1, 2), "y x"))]
    basis = gs_complete(rels, order, 5)
    assert basis == [poly(alphabet, (1, "x y"), (Fraction(-1, 4), "y x"))]
    assert basis[0].text() == "x y - 1/4 y x"


THREE_RELATIONS = "alphabet: x y z\n2 x y - 1/2 y x\n3 y z - z y + 1/3 x x\nz x - 5/7 x z\n"


def typed(p):
    return {w: (type(c), c) for w, c in p.terms.items()}


@pytest.mark.parametrize("D", [6, 8])
def test_completion_coefficients_follow_the_number_rule(D):
    # an int exactly when integral, else a Fraction; both kinds occur
    _, order, rels = parse_presentation(THREE_RELATIONS)
    kinds = set()
    for g in gs_complete(rels, order, D):
        for c in g.terms.values():
            assert type(c) in (int, Fraction)
            assert (type(c) is int) == (Fraction(c).denominator == 1), g.text()
            kinds.add(type(c))
    assert kinds == {int, Fraction}


XY = Alphabet(["x", "y"])
HALF = Fraction(1, 2)
_, _XY_ORDER, _XY_RELATIONS = parse_presentation("alphabet: x y\n2 x y - 1/2 y x\n")
XY_BASIS = {g.lm(_XY_ORDER): g for g in gs_complete(_XY_RELATIONS, _XY_ORDER, 4)}
xy_words = st.binary(max_size=3).map(lambda w: bytes(b % 2 for b in w))
xy_terms = st.dictionaries(
    xy_words, st.sampled_from((1, -1, 2, 4, HALF, -HALF, Fraction(1, 4), Fraction(3, 2))),
    max_size=5,
)


@given(xy_terms, xy_terms, xy_words, xy_words)
@example({b"\x00\x01": HALF}, {b"\x00\x01": HALF}, b"", b"")  # 1/2 + 1/2; a - that cancels
@example({b"\x01": HALF, b"\x00": 1}, {b"\x01": -HALF}, b"\x00", b"")
@example({b"\x00\x01": 4, b"\x01\x00": 1}, {}, b"", b"\x01")  # 4 * 1/4 in nc_reduce
def test_built_polynomials_match_the_normalising_constructor(f, g, left, right):
    # sums, products and remainders of canonical terms, computed here over
    # Fractions, and stored as NCPolynomial(alphabet, terms) stores them
    f, g = NCPolynomial(XY, f), NCPolynomial(XY, g)

    def same(p, terms):
        assert typed(p) == typed(NCPolynomial(XY, terms))

    same(f.sandwich(left, right), {left + w + right: c for w, c in f.terms.items()})
    total, difference = dict(f.terms), dict(f.terms)
    for w, c in g.terms.items():
        total[w] = Fraction(total.get(w, 0)) + c
        difference[w] = Fraction(difference.get(w, 0)) - c
    same(f + g, total)
    same(f - g, difference)
    if f:
        lc = Fraction(f.terms[f.lm(_XY_ORDER)])
        same(f.monic(_XY_ORDER), {w: c / lc for w, c in f.terms.items()})
    r = nc_reduce(f.sandwich(left, right), XY_BASIS, _XY_ORDER)
    same(r, r.terms)
    assert not any(lead in w for w in r.terms for lead in XY_BASIS)


def test_rejects_inhomogeneous():
    _, order, rels = parse_presentation("alphabet: x y\nx y - x\n")
    with pytest.raises(InputError):
        gs_complete(rels, order, 4)


def test_fp_leading_monomials_degree_4():
    alphabet, order, rels = fp_setup()
    basis = gs_complete(rels, order, 4)
    lead = {alphabet.text(w) for w in leading_language(basis, order).words}
    for text in FP_FINITE:
        assert text in lead
    assert "x y" in lead
    assert "x e y" in lead


def test_fp_negative_control_drop_xey():
    alphabet, order, rels = fp_setup()
    basis = gs_complete(rels, order, 4)
    computed = leading_language(basis, order)
    finite = FiniteLanguage(
        alphabet,
        frozenset(alphabet.word(s) for s in FP_FINITE + ["x y", "x e e y"]),
    )
    predicted = RelationSet(alphabet, finite)
    report = compare_leading(predicted, computed, 4)
    assert not report.ok
    assert [alphabet.text(w) for w in report.extra] == ["x e y"]


def test_fp_prediction_confirmed_degree_5():
    alphabet, order, rels = fp_setup()
    basis = gs_complete(rels, order, 5)
    computed = leading_language(basis, order)
    assert compare_leading(fp_predicted(alphabet), computed, 5).ok


@pytest.mark.parametrize("D", [8, 10, 12])
def test_fp_leading_language_matches_record(D):
    with open(REFERENCE) as fh:
        record = json.load(fh)["records"]["fp_leading_language"][str(D)]
    alphabet, order, rels = fp_setup()
    basis = gs_complete(rels, order, D)
    computed = leading_language(basis, order)
    assert len(basis) == record["basis_size"]
    assert computed.texts() == record["leading"]
    ok = compare_leading(fp_predicted(alphabet), computed, D).ok
    assert ok == record["predicted_ok"]


# The whole reduced bases at D = 10: their sizes and the sha256 of every
# element's text, in basis order, joined by newlines
BASIS_D10 = {
    "fp": (FP_PRESENTATION, 91,
           "ebc287c3c9abc0ff241a5079bf0193e98fbedab6aa8a2601ab0070dbd4918f82"),
    "fp-variant": (FPV_PRESENTATION, 90,
                   "8b38a78701b04ea23fcb047a725ef425e2199514af0f87b33680f11cd00c3e2b"),
}


@pytest.mark.parametrize("name", sorted(BASIS_D10))
def test_reduced_basis_at_degree_10_matches_record(name):
    text, size, digest = BASIS_D10[name]
    _, order, rels = parse_presentation(text)
    basis = gs_complete(rels, order, 10)
    assert len(basis) == size
    blob = "\n".join(g.text() for g in basis).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_shorter_relation_displaces_a_longer_leading_word():
    # y x divides the leading word of x y x - y y y, added before it: that
    # element leaves the basis and comes back reduced, as x y y - y y y
    _, order, rels = parse_presentation("alphabet: x y\nx y x - y y y\ny x - y y\n")
    basis = gs_complete(rels, order, 5)
    assert [g.text() for g in basis] == ["y x - y y", "x y y - y y y"]


def test_completion_order_independent():
    alphabet, order, rels = fp_setup()
    reference = gs_complete(list(rels), order, 5)
    ref_set = {frozenset(g.terms.items()) for g in reference}
    shuffled = list(rels)
    random.Random(7).shuffle(shuffled)
    again = gs_complete(shuffled, order, 5)
    assert {frozenset(g.terms.items()) for g in again} == ref_set


def test_spoly_remainders_vanish():
    alphabet, order, rels = fp_setup()
    basis = gs_complete(rels, order, 5)
    reduced = {g.lm(order): g for g in basis}
    for i, gi in enumerate(basis):
        for gj in basis[: i + 1]:
            wi, wj = gi.lm(order), gj.lm(order)
            for o in overlaps(wi, wj):
                if len(wi) + len(wj) - o > 5:
                    continue
                s = gi.sandwich(b"", wj[o:]) - gj.sandwich(wi[: len(wi) - o], b"")
                assert not nc_reduce(s, reduced, order)


def random_presentation(rng):
    """2-3 letters; 1-4 homogeneous relations of degree 2-4, 1-3 terms each."""
    n = rng.randint(2, 3)
    alphabet = Alphabet(list("xyz"[:n]))
    relations = []
    for _ in range(rng.randint(1, 4)):
        degree = rng.randint(2, 4)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            w = bytes(rng.randrange(n) for _ in range(degree))
            terms[w] = terms.get(w, 0) + rng.choice((-2, -1, 1, 3))
        relations.append(NCPolynomial(alphabet, terms))
    return MonomialOrder(alphabet), relations, rng.randint(3, 6)


def test_completion_properties_on_random_presentations():
    rng = random.Random(11)
    lost_leads = 0
    for _ in range(250):
        order, relations, D = random_presentation(rng)
        basis = gs_complete(relations, order, D)
        reduced = {g.lm(order): g for g in basis}
        assert len(reduced) == len(basis)
        for f in relations:
            assert not nc_reduce(f, reduced, order)
        for w, g in reduced.items():
            assert g.terms[w] == 1
            others = set(reduced) - {w}
            for t in g.terms:
                assert not any(v in t for v in others)
            for v, h in reduced.items():
                for o in overlaps(w, v):
                    if len(w) + len(v) - o <= D:
                        s = g.sandwich(b"", v[o:]) - h.sandwich(w[:-o], b"")
                        assert not nc_reduce(s, reduced, order)
        shuffled = list(relations)
        rng.shuffle(shuffled)
        again = gs_complete(shuffled, order, D)
        assert {g.text() for g in again} == {g.text() for g in basis}
        lost_leads += any(f and f.lm(order) not in reduced for f in relations)
    # some inputs' leading words leave the basis: pop-and-re-reduce runs
    assert lost_leads


def test_queued_pairs_match_brute_force_overlaps(monkeypatch):
    # gs_complete finds overlap partners in its prefix and suffix indexes;
    # replay its additions and test every pair of live leading words instead
    events = []
    real_monic, real_push = NCPolynomial.monic, gsb.heapq.heappush

    def monic(self, order):  # called once per addition, on the new element
        g = real_monic(self, order)
        events.append(("add", g.lm(order)))
        return g

    def push(queue, item):
        events.append(("push", item))
        real_push(queue, item)

    monkeypatch.setattr(NCPolynomial, "monic", monic)
    monkeypatch.setattr(gsb.heapq, "heappush", push)
    rng = random.Random(22)
    cases = [random_presentation(rng) for _ in range(150)]
    _, order, relations = fp_setup()
    displaced_with_overlaps = 0
    for order, relations, D in cases + [(order, relations, 8)]:
        events.clear()
        gs_complete(relations, order, D)
        live, want, got = set(), [], []
        for kind, item in events:
            if kind == "push":
                got[-1].append(item)
                continue
            w = item
            gone = {v for v in live if w in v}
            displaced_with_overlaps += any(overlaps(w, v) or overlaps(v, w) for v in gone)
            live = (live - gone) | {w}
            want.append(sorted(
                (len(u) + len(x) - o, u, x, o)
                for v in live
                for u, x in {(w, v), (v, w)}
                for o in overlaps(u, x)
                if len(u) + len(x) - o <= D
            ))
            got.append([])
        assert [sorted(pushed) for pushed in got] == want
    # some displaced word overlaps its successor: a stale index entry shows
    assert displaced_with_overlaps
