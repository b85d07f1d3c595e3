"""Acceptance gate: one numbered pass/fail line per criterion.

Each test prints its verdict line even under pytest capture, then asserts.
"""

import random
from itertools import product
from math import comb

from nchilbert.csys import build_system, gamma_algebraic, gamma_linear
from nchilbert.examples import (
    DYCK,
    IFTHENELSE,
    LUKASIEWICZ,
    example_dyck_sandwich,
    example_fp,
    example_fp_variant,
    example_lukas1,
    example_lukas2,
    example_triple,
    example_xystar,
    palindrome_grammar,
    ratpoly,
)
from nchilbert.grammar import certify_unambiguous, count_derivations, parse_grammar
from nchilbert.groebner import (
    assert_groebner,
    buchberger_lex,
    eliminate_univariate,
)
from nchilbert.homology import chains_finite, govorov_chains_trunc
from nchilbert.multipoly import rename_terms
from nchilbert.newton import newton_series
from nchilbert.ratfunc import QPoly, RationalFunction, TruncatedSeries
from nchilbert.words import (
    Alphabet,
    FiniteLanguage,
    TruncatedLanguage,
    minimize_antichain,
)


def words_of_length(alphabet, n):
    """Every word of length n over the alphabet."""
    return [bytes(t) for t in product(range(alphabet.size), repeat=n)]


def verdict(capsys, number, ok, label):
    with capsys.disabled():
        print("criterion %2d: %s  (%s)" % (number, "PASS" if ok else "FAIL", label))
    assert ok, "criterion %d failed: %s" % (number, label)


def test_criterion_1_ifthenelse(capsys):
    g = parse_grammar(IFTHENELSE)
    system = build_system(g)
    ok = len(system.equations) == 3
    want = {
        "S": ratpoly("S", [[1], [-1, 2], [0, -1, 2]]),
        "A": ratpoly("A", [[1], [-1], [0, 0, 1]]),
        "B": ratpoly("B", [[0, 1], [-1, 1, 2], [0, 0, -1, 2]]),
    }
    for keep, expected in want.items():
        poly = eliminate_univariate(system, keep)
        ok = ok and poly.proportional_to(expected)
    q = eliminate_univariate(system, "S")
    series = newton_series(
        q, lambda D: TruncatedSeries(count_derivations(g, D)[g.start], D), 20
    )
    ok = ok and all(series[d] == comb(d, d // 2) for d in range(21))
    verdict(capsys, 1, ok, "if-then-else eliminations and central binomial series")


def test_criterion_2_palindromes(capsys):
    ok = True
    for n in (2, 3):
        symbols = "xyz"[:n]
        gamma = gamma_linear(palindrome_grammar(symbols))
        ok = ok and gamma == RationalFunction(QPoly((1, n)), QPoly((1, 0, -n)))
        # census: a length-k palindrome is its first ceil(k/2) letters
        alphabet = Alphabet(list(symbols))
        series = gamma.series(14)
        for k in range(15):
            half = (k + 1) // 2
            built = {u + u[: k // 2][::-1] for u in words_of_length(alphabet, half)}
            ok = ok and all(w == w[::-1] and len(w) == k for w in built)
            ok = ok and series[k] == len(built)
            if n == 2 and k <= 8:
                scan = sum(1 for w in words_of_length(alphabet, k) if w == w[::-1])
                ok = ok and series[k] == scan
    verdict(capsys, 2, ok, "palindrome rational gamma vs census to degree 14")


def test_criterion_3_xystar(capsys):
    report = example_xystar(max_deg=10)
    verdict(capsys, 3, report.ok, "Algorithm 1 on x*y*: grammar and enumeration")


def test_criterion_4_countex(capsys):
    report = example_triple(d_chain=12, d_series=10)
    verdict(capsys, 4, report.ok, "countex 2-chains at d=12 and rational HS vs oracle")


def test_criterion_5_lukas1(capsys):
    report = example_lukas1(d=7)
    verdict(capsys, 5, report.ok, "6-letter algebra: series, quadratic, oracle")


def test_criterion_6_lukas2(capsys):
    report = example_lukas2(d=7)
    verdict(capsys, 6, report.ok, "7-letter algebra: series, quadratic, oracle")


def test_criterion_7_uchain2(capsys):
    report = example_dyck_sandwich(d=10)
    verdict(capsys, 7, report.ok, "x.Dyck.x closed form vs oracle to degree 10")


def test_criterion_8_fp(capsys):
    report = example_fp(d=7)
    verdict(capsys, 8, report.ok, "fp completion at D=8, quadratic, series vs oracle")


def test_criterion_9_fp_variant(capsys):
    report = example_fp_variant(d=6)
    verdict(capsys, 9, report.ok, "fp variant completion at D=8 and series vs oracle")


def _random_antichain(rng):
    n = rng.choice((2, 3))
    alphabet = Alphabet(list("xyz"[:n]))
    words = set()
    for _ in range(rng.randint(1, 4)):
        length = rng.randint(2, 4)
        words.add(bytes(rng.randrange(n) for _ in range(length)))
    return minimize_antichain(FiniteLanguage(alphabet, frozenset(words)))


def _chains_agree(basis, k_max, d):
    levels, gldim = chains_finite(basis, k_max)
    l1 = TruncatedLanguage(basis.alphabet, d, basis.words)
    for i in range(1, k_max + 1):
        got = set(govorov_chains_trunc(l1, i, d).words)
        if i <= len(levels):
            want = {w for w in levels[i - 1].words if len(w) <= d}
        else:
            want = set()
        if got != want:
            return False
    return True


def test_criterion_10_property_suites(capsys):
    # (a) recursion vs set-algebra formulas on random antichains
    rng = random.Random(20240817)
    ok_a = True
    done = 0
    while done < 50:
        basis = _random_antichain(rng)
        if not basis.words:
            continue
        done += 1
        ok_a = ok_a and _chains_agree(basis, 3, 8)

    # (b) Buchberger postconditions on every elimination order used here
    ok_b = True
    system = build_system(parse_grammar(IFTHENELSE))
    names = system.unknowns
    for keep in ("S", "A", "B"):
        # eliminate_univariate's lex order: the others reversed, keep lowest
        order = tuple(v for v in reversed(names) if v != keep) + (keep,)
        gens = [rename_terms(eq, names, {}, order) for eq in system.equations]
        basis = buchberger_lex(gens)
        try:
            assert_groebner(basis, gens)
        except Exception:
            ok_b = False

    # (c) Chomsky-Schutzenberger consistency at degree 12
    ok_c = True
    grammars = [
        parse_grammar(DYCK),
        parse_grammar(LUKASIEWICZ),
        parse_grammar(IFTHENELSE),
        palindrome_grammar("xy"),
        palindrome_grammar("xyz"),
    ]
    from helpers import residual_series, solution_series

    for g in grammars:
        system = build_system(g)
        assignment = solution_series(g, 12)
        for residual in residual_series(system, assignment, 12):
            ok_c = ok_c and all(residual[k] == 0 for k in range(13))
        res = gamma_algebraic(g, 12)
        value = res.poly.cleared().eval_series(res.series, 12)
        ok_c = ok_c and all(value[k] == 0 for k in range(13))

    # (d) unambiguity certificates and the planted counterexample
    ok_d = True
    for g in grammars:
        certified, _ = certify_unambiguous(g, 12)
        ok_d = ok_d and certified
    planted = parse_grammar(
        "terminals: a\nvariables: S\nstart: S\nS -> a S | S a | a"
    )
    certified, witness = certify_unambiguous(planted, 12)
    ok_d = ok_d and not certified and witness == bytes([0, 0])

    for tag, ok in (("a", ok_a), ("b", ok_b), ("c", ok_c), ("d", ok_d)):
        assert ok, "property suite (%s) failed" % tag
    verdict(
        capsys, 10, ok_a and ok_b and ok_c and ok_d,
        "property suites: chain agreement, GB postconditions, CS consistency, "
        "ambiguity certificates",
    )
