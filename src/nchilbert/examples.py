"""Built-in worked examples wired end to end.

Each builder returns an ExampleReport whose checks compare two independent
computations (elimination pipeline vs direct counting, completion output vs
predicted language, and so on).  The CLI exposes them via `verify-example`
and the acceptance tests reuse the same constructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .csys import gamma_algebraic, gamma_linear
from .errors import InputError, MismatchError
from .grammar import enumerate_words, parse_grammar
from .gsb import compare_leading, gs_complete, leading_language, parse_presentation
from .homology import (
    HomologySpec,
    PatternFamily,
    RelationSet,
    Uchain2Spec,
    chain_relations,
    govorov_chains_trunc,
    hilbert_from_homology,
    hilbert_oracle,
)
from .multipoly import RatPoly
from .ratfunc import QPoly, RationalFunction, TruncatedSeries
from .regular import DFA, RegularLanguageHandle, myhill_nerode_grammar
from .words import Alphabet, FiniteLanguage


@dataclass
class ExampleReport:
    name: str
    lines: list = field(default_factory=list)
    ok: bool = True

    def check(self, label, passed, detail=""):
        self.ok = self.ok and bool(passed)
        status = "pass" if passed else "FAIL"
        self.lines.append(
            "%s=%s%s" % (label, status, (" (%s)" % detail) if detail and not passed else "")
        )

    def info(self, label, value):
        self.lines.append("%s=%s" % (label, value))


def ratpoly(var, coeff_lists):
    """RatPoly from ascending lists of integer t-coefficients."""
    return RatPoly(var, coeff_lists)


# ---------------------------------------------------------------------------
# grammars used repeatedly


IFTHENELSE = """
terminals: x y
variables: S A B
start: S
S -> A | B
A -> eps | x A y A
B -> x S | x A y B
"""

DYCK = """
terminals: a b
variables: S
start: S
S -> eps | a S b S
"""

LUKASIEWICZ = """
terminals: a b
variables: S
start: S
S -> a | b S S
"""


def palindrome_grammar(symbols):
    lines = ["terminals: %s" % " ".join(symbols), "variables: S", "start: S"]
    alts = ["eps"] + list(symbols) + ["%s S %s" % (s, s) for s in symbols]
    lines.append("S -> " + " | ".join(alts))
    return parse_grammar("\n".join(lines))


# ---------------------------------------------------------------------------
# the registry


def example_ifthenelse(max_deg=20):
    report = ExampleReport("ifthenelse")
    g = parse_grammar(IFTHENELSE)
    want = {
        "S": ratpoly("S", [[1], [-1, 2], [0, -1, 2]]),
        "A": ratpoly("A", [[1], [-1], [0, 0, 1]]),
        "B": ratpoly("B", [[0, 1], [-1, 1, 2], [0, 0, -1, 2]]),
    }
    # the eliminant does not depend on the degree: S's gives the series too
    results = {name: gamma_algebraic(g, max_deg if name == "S" else 8, keep=name) for name in want}
    for name, expected in want.items():
        res = results[name]
        report.check(
            "poly_%s" % name,
            res.poly.proportional_to(expected),
            repr(res.poly),
        )
    res = results["S"]
    expected = [comb(k, k // 2) for k in range(max_deg + 1)]
    report.check("series", list(res.series.coeffs) == expected, repr(res.series))
    report.check("certified", res.certified)
    report.info("series_prefix", ",".join(str(c) for c in res.series.coeffs[:8]))
    return report


def example_palindrome(max_deg=14):
    report = ExampleReport("palindrome")
    for n in (2, 3):
        g = palindrome_grammar("xyz"[:n])
        gamma = gamma_linear(g)
        expected = RationalFunction(QPoly((1, n)), QPoly((1, 0, -n)))
        report.check("gamma_n%d" % n, gamma == expected, repr(gamma))
        counts = [n ** ((k + 1) // 2) for k in range(max_deg + 1)]
        report.check(
            "series_n%d" % n,
            gamma.series(max_deg) == TruncatedSeries.from_counts(counts, max_deg),
        )
    return report


def xystar_handle():
    """Three-state machine for x*y* over {x, y}."""
    alphabet = Alphabet(["x", "y"])
    dfa = DFA(alphabet, ((0, 1), (2, 1), (2, 2)), frozenset([0, 1]), 0)
    return RegularLanguageHandle(dfa)


def example_xystar(max_deg=10):
    report = ExampleReport("xystar")
    g = myhill_nerode_grammar(xystar_handle())
    report.check("variables", g.variables.symbols == ("A1", "A2", "A3"))
    got = {(g.variables.symbols[v], g.rhs_text(rhs)) for v, rhs in g.productions}
    want = {
        ("A1", "eps"), ("A1", "x A1"), ("A1", "y A2"),
        ("A2", "eps"), ("A2", "x A3"), ("A2", "y A2"),
        ("A3", "x A3"), ("A3", "y A3"),
    }
    report.check("productions", got == want, repr(sorted(got)))
    lang = enumerate_words(g, max_deg)
    expected = {
        g.terminals.word(" ".join(["x"] * i + ["y"] * j))
        for i in range(max_deg + 1)
        for j in range(max_deg + 1 - i)
    }
    report.check("enumeration", set(lang.words) == expected)
    return report


TRIPLE_L1 = """
terminals: x y z
variables: S A B
start: S
S -> A z | x B
A -> x x y y | x A y
B -> y y z z | y B z
"""


def example_triple(d_chain=12, d_series=10):
    report = ExampleReport("triple")
    g = parse_grammar(TRIPLE_L1)
    l1 = enumerate_words(g, d_chain)
    l2 = govorov_chains_trunc(l1, 2, d_chain)
    expected = {
        g.terminals.word(" ".join(["x"] * n + ["y"] * n + ["z"] * n))
        for n in (2, 3, 4)
    }
    report.check("chain2", set(l2.words) == expected, repr(sorted(l2.words)))
    gamma1 = gamma_linear(g)
    gamma2 = RationalFunction(QPoly.t_power(6), QPoly((1, 0, 0, -1)))
    report.check(
        "gamma2_matches_chains",
        gamma2.series(d_chain) == TruncatedSeries.from_counts(l2.counts(d_chain), d_chain),
    )
    hs = (
        TruncatedSeries.from_counts([1, -3], d_series)
        + gamma1.series(d_series)
        + -gamma2.series(d_series)
    ).inverse()
    oracle = hilbert_oracle(chain_relations("grammar", g), d_series)
    report.check("series_vs_oracle", hs == oracle, repr(hs))
    report.info("series", ",".join(str(c) for c in oracle.coeffs))
    return report


LUKAS1_CHAINS = [
    """
terminals: x y z c a b
variables: S T
start: S
S -> x x y | x x z | x y y | x y z | x z y | x z z | y z z T c
T -> a | b T T
""",
    """
terminals: x y z c a b
variables: S T
start: S
S -> x x y y | x x y z | x x z y | x x z z | x y z z T c | x y y z z T c | x z y z z T c
T -> a | b T T
""",
    """
terminals: x y z c a b
variables: S T
start: S
S -> x x y y z z T c | x x z y z z T c
T -> a | b T T
""",
]

LUKAS1_SERIES = [1, 6, 36, 210, 1228, 7175, 41929, 245017]
LUKAS1_QUAD = [
    [1, -12, 36, 13, -87, 52, 56, -70, 9, 18, -11, 8, 0, -8, 4],
    [-2, 12, 0, -13, 9, 2, -2],
    [1],
]

LUKAS2_CHAINS = [
    """
terminals: x y z c d a b
variables: S T
start: S
S -> c T x x y | c T x y z | c T x z x | x y y T d | y y z T d | z z y T d
T -> a | b T T
""",
    """
terminals: x y z c d a b
variables: S T
start: S
S -> c T x x y y T d | c T x x y y z T d | c T x y z z y T d | c T x z x y y T d
T -> a | b T T
""",
]

LUKAS2_SERIES = [1, 7, 49, 343, 2401, 16801, 117565, 822655]
LUKAS2_QUAD = [
    [1, -14, 49, 6, -43, 4, 23, -8, -6, -6, -18, 0, 1, 6, 9],
    [-2, 14, 0, -6, 1, 3, -2, -6],
    [1],
]


def _chain_spec(chain_texts, n):
    descriptors = tuple(
        ("grammar", parse_grammar(text)) for text in chain_texts
    )
    return HomologySpec(n, descriptors, gldim=len(descriptors) + 1)


def _chain_checks(report, result, series, quad):
    """The checks every chain-spec example ends with: the series prefix, the
    eliminant against the quadratic (unless quad is None), the grammar
    certificates, and the series it printed."""
    report.check(
        "series", list(result.series.coeffs[: len(series)]) == series, repr(result.series)
    )
    if quad is not None:
        report.check(
            "quadratic",
            result.poly_e.proportional_to(ratpoly("E", quad)),
            repr(result.poly_e),
        )
    report.check("certified", all(ok for _, ok, _ in result.certifications))
    report.info("series_out", ",".join(str(c) for c in result.series.coeffs))


def _run_homology_example(name, chain_texts, n, series, quad, d):
    report = ExampleReport(name)
    spec = _chain_spec(chain_texts, n)
    oracle = hilbert_oracle(chain_relations(*spec.descriptors[0]), d)
    result = hilbert_from_homology(spec, d, check_oracle=oracle)
    _chain_checks(report, result, series, quad)
    if result.closed_form:
        report.info("closed_form", result.closed_form)
    return report


def example_lukas1(d=7):
    return _run_homology_example(
        "lukas1", LUKAS1_CHAINS, 6, LUKAS1_SERIES, LUKAS1_QUAD, d
    )


def example_lukas2(d=7):
    return _run_homology_example(
        "lukas2", LUKAS2_CHAINS, 7, LUKAS2_SERIES, LUKAS2_QUAD, d
    )


def example_dyck_sandwich(d=10):
    report = ExampleReport("dyck-sandwich")
    x_alpha = Alphabet(["x"])
    r = FiniteLanguage(x_alpha, frozenset([bytes([0])]))
    sandwich = Uchain2Spec(r, r, parse_grammar(DYCK))
    try:
        # compares its series with the normal-word count of x L(Dyck) x
        result = hilbert_from_homology(HomologySpec(3, (), uchain2=sandwich), d)
    except MismatchError as exc:
        report.check("series_vs_oracle", False, str(exc))
        return report
    t = RationalFunction(QPoly.t_power(1))
    gamma_r, _, gamma_q = sandwich.gammas()
    report.check("gamma_R", gamma_r == t, repr(gamma_r))
    report.check("gamma_Q", gamma_q == t, repr(gamma_q))
    report.check("series_vs_oracle", True)
    report.info("series", ",".join(str(c) for c in result.series.coeffs))
    report.info("closed_form", result.closed_form)
    return report


FP_PRESENTATION = """
alphabet: a' b' a b e x y
a' x - x a'
b' x - x e
a' a - a a'
a' b - a b'
b' a - b a'
b' b - b b'
a' e - a b
b' e - b b
a y - y y
b y - y y
a' y - y y
b' y - y y
x y
"""

FP_FINITE = [
    "a' x", "b' x", "a' a", "a' b", "b' a", "b' b",
    "a' e", "b' e", "a y", "b y", "a' y", "b' y",
]

FP_FAMILY = """
terminals: a' b' a b e x y
variables: W P T
start: W
W -> x P y
P -> eps | T e P
T -> eps | a T b T
"""

FP_CHAINS = [
    """
terminals: a' b' a b e x y
variables: S P T
start: S
S -> a' x | b' x | a' a | a' b | b' a | b' b | a' e | b' e | a y | b y | a' y | b' y | x P y
P -> eps | T e P
T -> eps | a T b T
""",
    """
terminals: a' b' a b e x y
variables: S P T
start: S
S -> a' a y | a' b y | b' a y | b' b y | a' x P y | b' x P y
P -> eps | T e P
T -> eps | a T b T
""",
]

FP_SERIES = [1, 7, 36, 166, 730, 3139, 13350, 56466]
FP_QUAD = [
    [1, -14, 74, -185, 226, -125, 26],
    [-2, 14, -25, 10],
    [1],
]

FPV_PRESENTATION = """
alphabet: a' b' a b c d e x y
a' x - x a'
b' x - x e
a' a - a a'
a' b - a b'
b' a - b a'
b' b - b b'
a' e - a b
b' e - b b
a y - y c
b y - y d
a' y
b' y
x y e
"""

FPV_FAMILY = """
terminals: a' b' a b c d e x y
variables: W P T Q
start: W
W -> x P y Q e
P -> eps | T e P
T -> eps | a T b T
Q -> eps | c Q d Q
"""

FPV_CHAINS = [
    """
terminals: a' b' a b c d e x y
variables: S P T Q
start: S
S -> a' x | b' x | a' a | a' b | b' a | b' b | a' e | b' e | a y | b y | a' y | b' y | x P y Q e
P -> eps | T e P
T -> eps | a T b T
Q -> eps | c Q d Q
""",
    """
terminals: a' b' a b c d e x y
variables: S P T Q
start: S
S -> a' a y | a' b y | b' a y | b' b y | a' x P y Q e | b' x P y Q e
P -> eps | T e P
T -> eps | a T b T
Q -> eps | c Q d Q
""",
]

FPV_SERIES = [1, 9, 69, 516, 3844, 28620, 213070]


def _predicted_relations(alphabet, finite_texts, family_text):
    finite = FiniteLanguage(
        alphabet, frozenset(alphabet.word(s) for s in finite_texts)
    )
    family = PatternFamily((("grammar", parse_grammar(family_text)),))
    return RelationSet(alphabet, finite, (family,))


def _run_fp_example(name, presentation, finite_texts, family_text, chains,
                    series, quad, d, D=8):
    report = ExampleReport(name)
    alphabet, order, relations = parse_presentation(presentation)
    basis = gs_complete(relations, order, D)
    computed = leading_language(basis, order)
    predicted = _predicted_relations(alphabet, finite_texts, family_text)
    diff = compare_leading(predicted, computed, D)
    report.check(
        "leading_language",
        diff.ok,
        "missing=%r extra=%r" % (
            [alphabet.text(w) for w in diff.missing],
            [alphabet.text(w) for w in diff.extra],
        ),
    )
    spec = _chain_spec(chains, alphabet.size)
    oracle = hilbert_oracle(predicted, d)
    result = hilbert_from_homology(spec, d, check_oracle=oracle)
    _chain_checks(report, result, series, quad)
    return report


def example_fp(d=7):
    return _run_fp_example(
        "fp", FP_PRESENTATION, FP_FINITE, FP_FAMILY, FP_CHAINS,
        FP_SERIES, FP_QUAD, d,
    )


def example_fp_variant(d=6):
    return _run_fp_example(
        "fp-variant", FPV_PRESENTATION, FP_FINITE, FPV_FAMILY, FPV_CHAINS,
        FPV_SERIES, None, d,
    )


REGISTRY = {
    "ifthenelse": example_ifthenelse,
    "palindrome": example_palindrome,
    "xystar": example_xystar,
    "triple": example_triple,
    "lukas1": example_lukas1,
    "lukas2": example_lukas2,
    "dyck-sandwich": example_dyck_sandwich,
    "fp": example_fp,
    "fp-variant": example_fp_variant,
}


def run_example(name):
    if name not in REGISTRY:
        raise InputError("unknown example %r" % name)
    return REGISTRY[name]()
