"""Chain languages, oracle counting, and the assembled series pipelines."""

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

from nchilbert.errors import InputError, MismatchError
from nchilbert import homology
from nchilbert.homology import (
    HomologySpec,
    PatternFamily,
    RelationSet,
    Uchain2Spec,
    chains_finite,
    govorov_chains_trunc,
    hilbert_from_homology,
    hilbert_oracle,
    overlap_language,
    parse_homology_spec,
    parse_qpoly,
    parse_rational,
    parse_relation_file,
)
from nchilbert.examples import (
    DYCK,
    FP_FAMILY,
    FP_FINITE,
    FP_PRESENTATION,
    LUKASIEWICZ,
    TRIPLE_L1,
    _predicted_relations,
)
from nchilbert.grammar import enumerate_words, parse_grammar
from nchilbert.gsb import parse_presentation
from nchilbert.ratfunc import QPoly, RationalFunction, TruncatedSeries
from nchilbert.words import (
    Alphabet,
    FiniteLanguage,
    TruncatedLanguage,
    full_language,
    is_antichain,
    minimize_antichain,
    trunc_ideal,
)

XY = Alphabet(["x", "y"])


def flang(*texts):
    return FiniteLanguage.from_texts(XY, texts)


def test_chains_xy_combinatorially_free():
    levels, gldim = chains_finite(flang("x y"), 5)
    assert [l.texts() for l in levels] == [["x y"]]
    assert gldim == 2


def test_chains_xx_powers():
    levels, gldim = chains_finite(flang("x x"), 5)
    assert gldim is None
    for i, lang in enumerate(levels, start=1):
        assert lang.texts() == [" ".join(["x"] * (i + 1))]


def test_chains_rejects_non_antichain():
    with pytest.raises(InputError):
        chains_finite(flang("x x", "x x y"), 3)


def test_govorov_k1_recovers_basis():
    basis = flang("x x", "x y")
    l1 = TruncatedLanguage(XY, 8, basis.words)
    out = govorov_chains_trunc(l1, 1, 8)
    assert set(out.words) == set(basis.words)


def test_govorov_matches_chains_xx():
    basis = flang("x x")
    levels, _ = chains_finite(basis, 4)
    l1 = TruncatedLanguage(XY, 8, basis.words)
    for i, lang in enumerate(levels, start=1):
        got = govorov_chains_trunc(l1, i, 8)
        want = {w for w in lang.words if len(w) <= 8}
        assert set(got.words) == want


def _set_formula_chains(l1, m, d):
    """C_m to degree d by Govorov's formulas, each set product tested on
    every split of every word of length <= d."""
    basis = [v for v in l1.words if len(v) <= d]

    @lru_cache(maxsize=None)
    def in_ideal(w):
        return any(v in w for v in basis)

    @lru_cache(maxsize=None)
    def in_power(w, k):  # w in L^k
        if k == 0:
            return w == b""
        return any(
            in_ideal(w[:i]) and in_power(w[i:], k - 1) for i in range(len(w) + 1)
        )

    def left(w, k):  # X+ L^k
        return any(in_power(w[i:], k) for i in range(1, len(w) + 1))

    def right(w, k):  # L^k X+
        return any(in_power(w[:i], k) for i in range(len(w)))

    def both(w, k):  # X+ L^k X+
        return any(right(w[i:], k) for i in range(1, len(w) + 1))

    out = set()
    for w in full_language(l1.alphabet, d).words:
        if m % 2 == 0:
            k = m // 2
            keep = (left(w, k) and right(w, k)
                    and not (both(w, k) or in_power(w, k + 1)))
        else:
            k = (m + 1) // 2
            keep = (both(w, k - 1) and in_power(w, k)
                    and not (left(w, k) or right(w, k)))
        if keep:
            out.add(w)
    return out


def test_govorov_matches_set_formulas():
    rng = random.Random(20261018)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 3)
        alphabet = Alphabet(list("xyz"[:n]))
        d = rng.randint(0, 7)
        window = d + rng.choice((0, 0, 1, 2))
        words = set()
        for _ in range(rng.randint(0, 4)):
            length = min(rng.choice((0, 1, 2, 2, 3, 3, 4)), window)
            words.add(bytes(rng.randrange(n) for _ in range(length)))
        l1 = TruncatedLanguage(alphabet, window, frozenset(words))
        m = rng.randint(1, 5)
        got = set(govorov_chains_trunc(l1, m, d).words)
        assert got == _set_formula_chains(l1, m, d), (n, d, sorted(words), m)
        seen.add(("d", d))
        seen.add(("m", m))
        seen.add(("eps", b"" in words))
        seen.add(("letter", any(len(w) == 1 for w in words)))
        seen.add(("antichain", is_antichain(FiniteLanguage(alphabet, frozenset(words)))))
        seen.add(("wide", window > d))
        seen.add(("nonempty", bool(got)))
    wanted = {("d", d) for d in range(8)} | {("m", m) for m in range(1, 6)}
    wanted |= {(flag, value) for flag in ("eps", "letter", "antichain", "wide", "nonempty")
               for value in (True, False)}
    assert wanted <= seen


def test_govorov_triple_chains():
    g = parse_grammar(TRIPLE_L1)
    l1 = enumerate_words(g, 12)
    assert len(l1) == 8
    assert set(govorov_chains_trunc(l1, 1, 12).words) == set(l1.words)
    assert set(govorov_chains_trunc(l1, 2, 12).words) == {
        g.terminals.word(" ".join(["x"] * n + ["y"] * n + ["z"] * n))
        for n in (2, 3, 4)
    }
    assert not govorov_chains_trunc(l1, 3, 12).words


def test_govorov_window_built_once_per_l1_and_degree(monkeypatch):
    calls = []

    def counted(basis, d):
        calls.append(d)
        return trunc_ideal(basis, d)

    monkeypatch.setattr(homology, "trunc_ideal", counted)
    homology._govorov_window.cache_clear()
    l1 = TruncatedLanguage(XY, 8, flang("x x", "x y x").words)
    for m in range(1, 7):
        govorov_chains_trunc(l1, m, 8)
    assert calls == [3]  # min(d, the longest word of L1): x y x


def _four_scan_window(l1, d):
    """The window's tuples with one greedy cut each of w, w[1:], w[:-1] and
    w[1:-1], over candidates found by testing every word up to length d."""
    ideal = trunc_ideal(l1, d).words

    def pieces(w):
        if b"" in ideal:
            return math.inf
        count, start = 0, 0
        for end in range(1, len(w) + 1):
            if w[start:end] in ideal:
                count, start = count + 1, end
        return count

    return {
        (w, pieces(w),
         pieces(w[1:]) if w else -1,
         pieces(w[:-1]) if w else -1,
         pieces(w[1:-1]) if len(w) >= 2 else -1)
        for w in full_language(l1.alphabet, d).words
        if any(w.startswith(v) for v in l1.words) and any(w.endswith(v) for v in l1.words)
    }


def test_govorov_window_matches_four_scans():
    rng = random.Random(20261019)
    for _ in range(80):
        n = rng.choice((2, 3))
        alphabet = Alphabet(list("xyz"[:n]))
        words = {bytes(rng.randrange(n) for _ in range(rng.randint(1, 4)))
                 for _ in range(rng.randint(1, 4))}
        basis = minimize_antichain(FiniteLanguage(alphabet, frozenset(words)))
        d = rng.randint(0, 8)
        l1 = TruncatedLanguage(alphabet, d, frozenset(w for w in basis.words if len(w) <= d))
        assert set(homology._govorov_window(l1, d)) == _four_scan_window(l1, d), (words, d)
    # eps in L1: every count is infinite, but a slice of eps stays undefined
    for words in ({b""}, {b"", b"\x00\x01"}):
        l1 = TruncatedLanguage(XY, 3, frozenset(words))
        window = set(homology._govorov_window(l1, 3))
        assert window == _four_scan_window(l1, 3)
        assert (b"", math.inf, -1, -1, -1) in window
        assert (b"\x01", math.inf, math.inf, math.inf, -1) in window


def test_govorov_window_matches_four_scans_beyond_antichains():
    # the ideal stops at L1's longest word: non-antichains, words longer than
    # d/2, words beyond d in a wider window, and an empty L1
    rng = random.Random(20261020)
    seen = set()
    for _ in range(150):
        n = rng.choice((1, 2, 3))
        alphabet = Alphabet(list("xyz"[:n]))
        d = rng.randint(0, 7 if n == 3 else 9)
        window = d + rng.choice((0, 0, 1, 2))
        words = {bytes(rng.randrange(n) for _ in range(rng.randint(1, max(window, 1))))
                 for _ in range(rng.choice((0, 1, 2, 3, 4)))}
        words = {w for w in words if len(w) <= window}
        l1 = TruncatedLanguage(alphabet, window, frozenset(words))
        assert set(homology._govorov_window(l1, d)) == _four_scan_window(l1, d), (words, d)
        seen.add(("antichain", is_antichain(FiniteLanguage(alphabet, frozenset(words)))))
        seen.add(("long", any(2 * len(w) > d for w in words if len(w) <= d)))
        seen.add(("beyond d", any(len(w) > d for w in words)))
        seen.add(("empty", not words))
    wanted = {(flag, value) for flag in ("antichain", "long", "beyond d", "empty")
              for value in (True, False)}
    assert wanted <= seen


@pytest.mark.parametrize("text, degrees, nonempty", [
    (DYCK, range(9), False),  # eps in L1: every count infinite
    (DYCK, range(2, 10), True),
    (LUKASIEWICZ, range(1, 9), False),
    (TRIPLE_L1, (5, 6, 7, 8), False),
], ids=["dyck", "dyck-nonempty", "lukasiewicz", "triple"])
def test_govorov_window_on_grammar_windows(text, degrees, nonempty):
    # a grammar's window has a word of length d or d - 1: the ideal is cut
    # at most one letter short of d
    g = parse_grammar(text)
    for d in degrees:
        words = enumerate_words(g, d).words - ({b""} if nonempty else set())
        assert max(map(len, words)) in (d, d - 1)
        l1 = TruncatedLanguage(g.terminals, d, words)
        assert set(homology._govorov_window(l1, d)) == _four_scan_window(l1, d), d


def test_govorov_window_serves_no_stale_chains():
    bases = [flang("x x", "x y x"), flang("x y y", "y x"), flang("x x", "x y x")]
    for d in (7, 9):
        for basis in bases:  # A, B, A: the window changes twice
            levels, _ = chains_finite(basis, 4)
            l1 = TruncatedLanguage(XY, d, basis.words)
            for m in range(1, 5):
                want = {w for w in levels[m - 1].words if len(w) <= d} if m <= len(levels) else set()
                assert set(govorov_chains_trunc(l1, m, d).words) == want, (basis.texts(), d, m)


def test_govorov_equal_l1_distinct_object():
    basis = flang("x x y", "y x")
    levels, _ = chains_finite(basis, 4)
    first = TruncatedLanguage(XY, 8, basis.words)
    again = TruncatedLanguage(XY, 8, frozenset(set(basis.words)))
    assert again == first and again is not first
    for m in range(1, 5):
        want = {w for w in levels[m - 1].words if len(w) <= 8} if m <= len(levels) else set()
        assert set(govorov_chains_trunc(first, m, 8).words) == want
        assert set(govorov_chains_trunc(again, m, 8).words) == want


def test_govorov_eps_in_ideal():
    # eps in L1 puts every word in every power of the ideal; a finite
    # stand-in for "infinitely many pieces" would keep x in C_4
    X = Alphabet(["x"])
    l1 = TruncatedLanguage(X, 2, frozenset({b"", b"\x00", b"\x00\x00"}))
    assert _set_formula_chains(l1, 4, 1) == set()
    assert not govorov_chains_trunc(l1, 4, 1).words


def test_govorov_one_letter_basis():
    # a one-letter word of L1 lies in no C_m: here every C_m is empty
    l1 = TruncatedLanguage(XY, 6, flang("x").words)
    for m in range(1, 6):
        assert _set_formula_chains(l1, m, 6) == set()
        assert not govorov_chains_trunc(l1, m, 6).words


def test_oracle_fibonacci():
    rels = RelationSet(XY, flang("x x"))
    series = hilbert_oracle(rels, 6)
    assert list(series.coeffs) == [1, 2, 3, 5, 8, 13, 21]


def test_oracle_free_algebra():
    z = Alphabet(["x", "y", "z"])
    rels = RelationSet(z, FiniteLanguage(z, frozenset()))
    assert list(hilbert_oracle(rels, 3).coeffs) == [1, 3, 9, 27]


# normal-word counts of fp's predicted relations (3641 words to degree 16),
# recorded from the subset-construction automaton of their minimal basis
FP_ORACLE_D16 = [
    1, 7, 36, 166, 730, 3139, 13350, 56466, 238175, 1003236, 4222864,
    17768827, 74753916, 314463889, 1322782385, 5564119026, 23404513366,
]


def test_oracle_fp_predicted_relations_deep():
    alphabet = parse_presentation(FP_PRESENTATION)[0]
    rels = _predicted_relations(alphabet, FP_FINITE, FP_FAMILY)
    assert list(hilbert_oracle(rels, 16).coeffs) == FP_ORACLE_D16


def test_trivial_spec_free_on_one_letter():
    spec = HomologySpec(1, (("finite", FiniteLanguage(Alphabet(["x"]), frozenset())),),
                        gldim=2)
    res = hilbert_from_homology(spec, 8)
    assert list(res.series.coeffs) == [1] * 9


def test_hilbert_check_oracle_catches_one_coefficient_off():
    # relations {x y}: one chain, so gldim 2; both routes give 1, 2, 3, ...
    spec = HomologySpec(2, (("finite", flang("x y")),), gldim=2)
    oracle = hilbert_oracle(RelationSet(XY, flang("x y")), 6)
    assert hilbert_from_homology(spec, 6, check_oracle=oracle).series == oracle
    off = list(oracle.coeffs)
    off[4] += 1
    with pytest.raises(MismatchError, match="disagrees with the oracle"):
        hilbert_from_homology(spec, 6, check_oracle=TruncatedSeries(off, 6))


X_DYCK_X_EULER = "(2*t + 1)*E^2 + (10*t^2 + t - 2)*E + (13*t^3 - 4*t^2 - 3*t + 1)"


def _x_dyck_x(d):
    x = FiniteLanguage.from_texts(Alphabet(["x"]), ["x"])
    spec = HomologySpec(3, (), uchain2=Uchain2Spec(x, x, parse_grammar(DYCK)))
    return hilbert_from_homology(spec, d)


def test_sandwich_euler_polynomial():
    res = _x_dyck_x(10)
    assert repr(res.poly_e.cleared()) == X_DYCK_X_EULER
    assert list(res.series.coeffs) == [1, 3, 8, 22, 59, 160, 430, 1161, 3123, 8418, 22653]
    assert res.certifications == ((1, True, None),)


def test_sandwich_euler_polynomial_is_irreducible():
    sympy = pytest.importorskip("sympy")
    t, e = sympy.symbols("t E")
    p = sympy.sympify(X_DYCK_X_EULER.replace("^", "**"), locals={"t": t, "E": e})
    _, factors = sympy.factor_list(p)
    assert len(factors) == 1 and factors[0][1] == 1
    assert sympy.expand(sympy.discriminant(p, e) + t**2 * (2*t - 1) * (2*t + 1)) == 0


def test_sandwich_series_is_the_oracle_or_a_mismatch():
    # R and R' of 0-2 words of length 1-3 over {x, y}, L Dyck or Lukasiewicz:
    # the sandwich formula holds for some draws only, and the rest must raise
    rng = random.Random(7)
    grammars = [parse_grammar(DYCK), parse_grammar(LUKASIEWICZ)]

    def words():
        return FiniteLanguage(XY, frozenset(
            bytes(rng.randrange(2) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(0, 2))
        ))

    outcomes = set()
    for _ in range(100):
        r, rp = words(), words()
        g = rng.choice(grammars)
        d = rng.randint(3, 9)
        spec = HomologySpec(2 + g.n, (), uchain2=Uchain2Spec(r, rp, g))
        try:
            res = hilbert_from_homology(spec, d)
        except MismatchError:
            outcomes.add("mismatch")
            continue
        outcomes.add("series")
        assert res.series == homology._sandwich_oracle(r, rp, g, d)
        assert res.poly_h.cleared().eval_series(res.series, d).valuation() is None
    assert outcomes == {"series", "mismatch"}


def test_pattern_family_words():
    dyck = parse_grammar(
        "terminals: x a b\nvariables: S\nstart: S\nS -> eps | a S b S"
    )
    fam = PatternFamily((("word", bytes([0])), ("grammar", dyck), ("word", bytes([0]))))
    got = {dyck.terminals.text(w) for w in fam.words_upto(4)}
    assert got == {"x x", "x a b x"}


def test_overlap_language_single_letter():
    x = Alphabet(["x"])
    r = FiniteLanguage.from_texts(x, ["x"])
    q = overlap_language(r, r)
    # (xX* cap X*x) \ xX*x = {x}
    assert bytes([0]) in q
    assert bytes([0, 0]) not in q
    assert b"" not in q


def _overlap_brute(R, Rp, length):
    """(R X* cap X* R') minus R X* R', word by word up to the given length."""
    out = set()
    for n in range(length + 1):
        for w in map(bytes, product(range(R.alphabet.size), repeat=n)):
            ends = [i for i in range(len(w) + 1) if w[:i] in R]
            starts = [j for j in range(len(w) + 1) if w[j:] in Rp]
            # in R X* and X* R', and no prefix in R and suffix in R' side by side
            if ends and starts and not any(i <= j for i in ends for j in starts):
                out.add(w)
    return out


def test_overlap_language_matches_definition():
    rng = random.Random(8)
    seen = set()
    for _ in range(300):
        alphabet = Alphabet(["x", "y", "z"][: rng.randint(1, 3)])

        def draw(lo):
            return FiniteLanguage(alphabet, frozenset(
                bytes(rng.randrange(alphabet.size) for _ in range(rng.randint(0, 3)))
                for _ in range(rng.randint(lo, 3))
            ))

        R, Rp = draw(0), draw(1)
        bound = max(map(len, R.words), default=0) + max(map(len, Rp.words)) + 1
        q = overlap_language(R, Rp)
        assert q.alphabet == alphabet
        assert set(q.words) == _overlap_brute(R, Rp, bound)
        seen.add("Q nonempty" if q.words else "Q empty")
        if not R.words:
            seen.add("R empty")
        if b"" in R.words | Rp.words:
            seen.add("eps")
        if not (is_antichain(R) and is_antichain(Rp)):
            seen.add("not an antichain")
    assert seen == {"Q nonempty", "Q empty", "R empty", "eps", "not an antichain"}


def test_parse_qpoly():
    assert parse_qpoly("2*t^3 - t + 1") == QPoly(
        (Fraction(1), Fraction(-1), Fraction(0), Fraction(2))
    )
    assert parse_qpoly("-t") == QPoly((Fraction(0), Fraction(-1)))
    with pytest.raises(InputError):
        parse_qpoly("t^")


def test_parse_rational():
    f = parse_rational("1 + 2*t / 1 - 2*t^2")
    assert f == RationalFunction(QPoly((1, 2)), QPoly((1, 0, -2)))


def test_parse_homology_spec(tmp_path):
    (tmp_path / "c1.lang").write_text("x x\n")
    spec_text = "n: x y\nchain 1: finite c1.lang\ngldim: 2\n"
    spec = parse_homology_spec(
        spec_text, lambda p, parse, *args: parse((tmp_path / p).read_text(), *args)
    )
    assert spec.n == 2
    assert spec.gldim == 2
    kind, payload = spec.descriptors[0]
    assert kind == "finite" and payload.texts() == ["x x"]


def test_parse_relation_file(tmp_path):
    (tmp_path / "dyck.gf").write_text(
        "terminals: x a b\nvariables: S\nstart: S\nS -> eps | a S b S\n"
    )
    text = "alphabet: x a b\nx x\nfamily: x @dyck.gf x\n"
    rels = parse_relation_file(text, lambda p, parse, *args: parse((tmp_path / p).read_text(), *args))
    got = {rels.alphabet.text(w) for w in rels.words_upto(4)}
    assert got == {"x x", "x a b x"}


def test_spec_rejects_gapped_chains(tmp_path):
    (tmp_path / "c.lang").write_text("x x\n")
    text = "n: x y\nchain 2: finite c.lang\n"
    with pytest.raises(InputError):
        parse_homology_spec(text, lambda p, parse, *args: parse((tmp_path / p).read_text(), *args))
