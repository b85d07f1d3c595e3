"""Word and truncated-language layer."""

from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import is_normal
from nchilbert.errors import BoundError, InputError
from nchilbert.words import (
    Alphabet,
    FiniteLanguage,
    TruncatedLanguage,
    full_language,
    is_antichain,
    minimize_antichain,
    parse_language_file,
    trunc_boolean,
    trunc_ideal,
    trunc_product,
)

XY = Alphabet(["x", "y"])


def lang(*texts):
    return FiniteLanguage.from_texts(XY, texts)


def tlang(d, *texts):
    return TruncatedLanguage(XY, d, frozenset(XY.word(t) for t in texts))


def texts(tl):
    return {XY.text(w) for w in tl.words}


def test_minimize_antichain_drops_multiples():
    out = minimize_antichain(lang("x y", "x y x", "y y"))
    assert out.texts() == ["x y", "y y"]


def test_minimize_antichain_empty():
    assert len(minimize_antichain(lang())) == 0


def test_minimize_antichain_single_survivor():
    ab = Alphabet(["a", "b"])
    inp = FiniteLanguage.from_texts(ab, ["a a b", "a b", "b"])
    out = minimize_antichain(inp)
    assert out.texts() == ["b"]
    assert is_antichain(out)


def proper_factor(v, w):
    """v is a factor of w other than w itself, by every slice of w."""
    return v != w and any(
        w[i:j] == v for i in range(len(w) + 1) for j in range(i, len(w) + 1)
    )


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.lists(st.integers(0, n - 1), max_size=5).map(bytes), max_size=8)
)))
@example((1, {b"", b"\x00", b"\x00\x00"}))
@example((2, {b"\x00", b"\x01"}))
@example((1, {b""}))
def test_antichain_helpers_match_the_definition(case):
    n, words = case
    lang = FiniteLanguage(Alphabet(list("xyz"[:n])), frozenset(words))
    pairs = [(v, w) for v in words for w in words]
    assert is_antichain(lang) == (not any(proper_factor(v, w) for v, w in pairs))
    assert minimize_antichain(lang).words == {
        w for w in words if not any(proper_factor(v, w) for v in words)
    }


def test_is_normal():
    basis = lang("y y")
    assert is_normal(XY.word("x y x"), basis)
    assert not is_normal(XY.word("x y y x"), basis)
    assert is_normal(b"", lang("x y"))


def test_trunc_product_small():
    a = tlang(2, "eps", "x")
    b = tlang(2, "eps", "y")
    assert texts(trunc_product(a, b, 2)) == {"eps", "x", "y", "x y"}


def test_trunc_product_degree_clamp():
    a = tlang(5, "x")
    b = tlang(5, "y", "y y")
    assert texts(trunc_product(a, b, 2)) == {"x y"}


def test_trunc_product_rejects_short_windows():
    # the left window is too short to guarantee exactness at degree 4
    a = tlang(1, "eps", "x")
    b = tlang(4, "eps", "y")
    with pytest.raises(BoundError):
        trunc_product(a, b, 4)


def test_trunc_ideal_xx():
    basis = tlang(3, "x x")
    assert texts(trunc_ideal(basis, 3)) == {"x x", "x x x", "x x y", "y x x"}


def test_trunc_ideal_empty():
    assert len(trunc_ideal(tlang(3), 3)) == 0


def test_trunc_ideal_xy():
    basis = tlang(3, "x y")
    assert texts(trunc_ideal(basis, 3)) == {
        "x y", "x x y", "x y x", "x y y", "y x y"
    }


def test_trunc_ideal_rejects_short_basis_window():
    with pytest.raises(BoundError):
        trunc_ideal(tlang(2, "x x"), 3)


def test_trunc_boolean_clamps_bound():
    a = tlang(1, "x", "y")
    b = tlang(2, "y", "x y")
    out = trunc_boolean(a, b)
    assert out.d == 1
    assert texts(out) == {"y"}


def test_trunc_boolean_intersection():
    a = tlang(2, "x", "x y")
    b = tlang(2, "x y")
    assert texts(trunc_boolean(a, b)) == {"x y"}


def test_normal_plus_ideal_counts():
    basis = lang("x x", "x y y")
    d = 7
    ideal = trunc_ideal(TruncatedLanguage(XY, d, basis.words), d)
    for k in range(d + 1):
        in_ideal = sum(1 for w in ideal.words if len(w) == k)
        normal = sum(
            1 for w in full_language(XY, d).words
            if len(w) == k and is_normal(w, basis)
        )
        assert in_ideal + normal == 2 ** k


def test_trunc_ideal_matches_factor_scan():
    d = 6
    cases = [
        (d, ("x y", "y y x")),
        (d, ("eps", "x y")),  # every word
        (d, ()),
        (d + 2, ("x y y", "x x x x x x x y")),  # a basis word longer than d
        (d + 2, ("y y y y y y y",)),  # no basis word inside the window
    ]
    for window, words in cases:
        basis = lang(*words)
        ideal = trunc_ideal(TruncatedLanguage(XY, window, basis.words), d)
        scanned = {
            w for w in full_language(XY, d).words if not is_normal(w, basis)
        }
        assert ideal.d == d
        assert set(ideal.words) == scanned, words


def test_truncated_language_rejects_word_past_bound():
    assert len(tlang(2, "eps", "x y")) == 2  # a word at the bound is kept
    with pytest.raises(InputError, match="longer than the declared bound"):
        tlang(2, "x", "x y y")
    with pytest.raises(InputError, match="longer than the declared bound"):
        TruncatedLanguage(XY, 0, frozenset({b"\x00"}))


def test_full_language_layers():
    for d in range(5):
        full = full_language(XY, d)
        assert full.d == d
        assert set(full.words) == {bytes(t) for k in range(d + 1) for t in product(range(2), repeat=k)}
        # the layers it hands on are the ones a length walk finds
        walked = TruncatedLanguage(XY, d, full.words).by_length
        assert {n: set(ws) for n, ws in full.by_length.items()} == {
            n: set(ws) for n, ws in walked.items()
        }
    assert full_language(XY, 4).counts() == [1, 2, 4, 8, 16]


def test_layered_window_unites_its_words_on_first_use():
    full = full_language(XY, 3)
    assert len(full) == 15 and full.counts() == [1, 2, 4, 8]
    assert "words" not in vars(full)  # len and counts read the layers alone
    assert full == TruncatedLanguage(XY, 3, full.words) and "words" in vars(full)


def test_public_constructors_store_frozensets():
    w = XY.word("x y")
    fin, trunc = FiniteLanguage(XY, {w}), TruncatedLanguage(XY, 2, {w})
    assert type(fin.words) is frozenset and type(trunc.words) is frozenset
    assert hash(fin) == hash(FiniteLanguage(XY, frozenset({w})))
    assert hash(trunc) == hash(TruncatedLanguage(XY, 2, [w]))


def test_language_equality_agrees_with_hash():
    pairs = [
        (lang("x y", "y"), lang("y", "x y")),
        (tlang(3, "x y", "y"), tlang(3, "y", "x y")),
    ]
    for a, b in pairs:
        assert a == b and a is not b and hash(a) == hash(b) and len({a, b}) == 1
    assert lang("x y") != lang("y x") and lang("x y") != tlang(3, "x y")
    assert tlang(3, "x y") != tlang(4, "x y")
    assert lang("x") != FiniteLanguage(Alphabet(["x"]), {b"\x00"})


def test_language_file_roundtrip():
    text = "# comment\nx y\neps\ny y y\n"
    out = parse_language_file(text, XY)
    assert out.texts() == ["eps", "x y", "y y y"]


def test_alphabet_rejects_unknown_symbol():
    with pytest.raises(InputError):
        XY.word("x q")
