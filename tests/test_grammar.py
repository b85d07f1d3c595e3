"""Grammar validation, enumeration, counting, ambiguity certification."""

import random
import re

import pytest

from nchilbert import grammar
from nchilbert.errors import DivergenceError, ResourceCapError
from nchilbert import examples
from nchilbert.examples import (
    DYCK,
    IFTHENELSE,
    LUKAS1_CHAINS,
    LUKASIEWICZ,
    TRIPLE_L1,
    palindrome_grammar,
)
from nchilbert.grammar import (
    CFGrammar,
    certify_unambiguous,
    count_derivations,
    enumerate_words,
    format_grammar,
    parse_grammar,
)
from nchilbert.regular import myhill_nerode_grammar
from nchilbert.words import WORD_KEY, Alphabet, full_language

XYSTAR = """
terminals: x y
variables: A1 A2 A3
start: A1
A1 -> eps | x A1 | y A2
A2 -> eps | x A3 | y A2
A3 -> x A3 | y A3
"""

AMBIGUOUS = """
terminals: a
variables: S
start: S
S -> a S | S a | a
"""

DESTAR = """
terminals: a b e
variables: P T
start: P
P -> eps | T e P
T -> eps | a T b T
"""


def test_validate_dyck():
    g = parse_grammar(DYCK)
    assert g.productive == {0} and g.live == {0}
    assert g.nullable == {0}
    assert not g.is_right_linear


def test_validate_flags_unit_cycle():
    g = parse_grammar("terminals: a\nvariables: S\nstart: S\nS -> S | a")
    for d in (4, 4, 0):  # no plan is kept for a cyclic grammar
        with pytest.raises(DivergenceError, match="unit/epsilon cycle through S"):
            count_derivations(g, d)
        with pytest.raises(DivergenceError):
            enumerate_words(g, d)


def test_layer_plan_made_once_per_variable_set(monkeypatch):
    calls = []
    plan = grammar._layer_plan

    def counted(g, variables):
        calls.append(variables)
        return plan(g, variables)

    monkeypatch.setattr(grammar, "_layer_plan", counted)
    # B is productive but unreachable, so live and productive differ
    g = parse_grammar("terminals: x\nvariables: S B\nstart: S\nS -> eps | x S\nB -> x")
    for d in (3, 8, 5):
        count_derivations(g, d)
        enumerate_words(g, d)
        certify_unambiguous(g, d)
    assert calls == [g.productive, g.live]


def test_certificate_kept_per_degree(monkeypatch):
    g = parse_grammar(IFTHENELSE)
    first = certify_unambiguous(g, 8)
    degrees = []
    words = grammar.enumerate_words

    def counted(g, d, *args):
        degrees.append(d)
        return words(g, d, *args)

    monkeypatch.setattr(grammar, "enumerate_words", counted)
    assert certify_unambiguous(g, 8) == first
    assert degrees == []
    assert certify_unambiguous(g, 9) == (True, None)
    assert degrees == [9]


def test_validate_xystar_report():
    g = parse_grammar(XYSTAR)
    assert g.is_right_linear
    assert g.variables.index("A3") not in g.productive
    assert g.live == {0, 1}


def test_certificate_computes_grammar_facts_once(monkeypatch):
    calls = []
    deriving = grammar._deriving

    def counted(g, terminals):
        calls.append(terminals)
        return deriving(g, terminals)

    monkeypatch.setattr(grammar, "_deriving", counted)
    assert certify_unambiguous(parse_grammar(IFTHENELSE), 12) == (True, None)
    assert sorted(calls) == [False, True]


def test_enumerate_dyck():
    g = parse_grammar(DYCK)
    got = {g.terminals.text(w) for w in enumerate_words(g, 4).words}
    assert got == {"eps", "a b", "a b a b", "a a b b"}


def test_enumerate_lukasiewicz():
    g = parse_grammar(LUKASIEWICZ)
    got = {g.terminals.text(w) for w in enumerate_words(g, 5).words}
    assert got == {"a", "b a a", "b a b a a", "b b a a a"}


def test_enumerate_palindromes():
    g = palindrome_grammar("xy")
    got = {g.terminals.text(w) for w in enumerate_words(g, 2).words}
    assert got == {"eps", "x", "y", "x x", "y y"}


def test_count_derivations_catalan():
    g = parse_grammar(DYCK)
    counts = count_derivations(g, 8)[g.start]
    assert counts == [1, 0, 1, 0, 2, 0, 5, 0, 14]


def test_count_derivations_ifthenelse():
    g = parse_grammar(IFTHENELSE)
    counts = count_derivations(g, 7)[g.start]
    assert counts == [1, 1, 2, 3, 6, 10, 20, 35]


def test_count_derivations_tiny():
    g = parse_grammar("terminals: a\nvariables: S\nstart: S\nS -> a | a a")
    assert count_derivations(g, 2)[g.start] == [0, 1, 1]


def test_certify_dyck_unambiguous():
    ok, witness = certify_unambiguous(parse_grammar(DYCK), 10)
    assert ok and witness is None


def test_certify_planted_ambiguous():
    g = parse_grammar(AMBIGUOUS)
    ok, witness = certify_unambiguous(g, 3)
    assert not ok
    assert g.terminals.text(witness) == "a a"


def test_certify_witness_is_shortlex_least():
    # "a b" and "b a" both have two parse trees
    g = parse_grammar(
        "terminals: a b\nvariables: S A B\nstart: S\n"
        "S -> b a | B a | a b | A b\nA -> a\nB -> b"
    )
    assert certify_unambiguous(g, 3) == (False, g.terminals.word("a b"))


def test_certify_palindromes():
    ok, _ = certify_unambiguous(palindrome_grammar("xy"), 8)
    assert ok


def test_cyk_member_dyck():
    # membership is answered by the enumeration kernel; the name is kept
    # from the deleted CYK route
    g = parse_grammar(DYCK)
    words = enumerate_words(g, 4).words
    assert g.terminals.word("a a b b") in words
    assert g.terminals.word("a b a") not in words


def test_cyk_member_destar():
    g = parse_grammar(DESTAR)
    words = enumerate_words(g, 3).words
    assert g.terminals.word("e") in words
    assert g.terminals.word("a b e") in words
    assert g.terminals.word("a e") not in words


def test_enumeration_bounded_by_derivation_counts():
    for text in (DYCK, IFTHENELSE, LUKASIEWICZ, DESTAR):
        g = parse_grammar(text)
        counts = count_derivations(g, 8)[g.start]
        lang = enumerate_words(g, 8)
        per_len = [0] * 9
        for w in lang.words:
            per_len[len(w)] += 1
        assert all(per_len[k] <= counts[k] for k in range(9))


def test_enumeration_agrees_with_parse_counts():
    g = parse_grammar(DYCK)
    lang = set(enumerate_words(g, 6).words)
    count, _ = parse_counter(g)
    for w in full_language(g.terminals, 6).words:
        assert (w in lang) == (count(g.n + g.start, w) >= 1)


# Two bodies share the mid-body run prefix "b c" after "a b T", which ends a
# run in the third body.
SHARED_RUNS = """
terminals: a b c
variables: S T
start: S
S -> a b T b c a T | a b T b c b | a b T b c | T b c T c a | eps
T -> c | a b T b | a b c
"""

# (grammar, d, least word cap that enumerate_words(g, d) stays within),
# recorded before single-body layers were shared, and the last three before
# terminal runs became single steps; the cap counts a shared layer again and
# every body prefix inside a run, so the trigger must not move
WORD_CAP_PINS = [
    (IFTHENELSE, 8, 610),
    (DYCK, 10, 176),
    (LUKASIEWICZ, 9, 56),
    (DESTAR, 6, 86),
    ("terminals: x y\nvariables: S T\nstart: S\nS -> eps | x T y\nT -> S S", 10, 147),
    ("terminals: a b\nvariables: S A\nstart: S\nS -> eps | b | A b\nA -> S", 7, 40),
    (
        "terminals: a\nvariables: S A B\nstart: S\n"
        "S -> a S S | A | A A\nA -> eps | a A S\nB -> eps",
        8,
        69,
    ),
    (LUKAS1_CHAINS[1], 12, 279),
    (SHARED_RUNS, 10, 102),
    (TRIPLE_L1, 12, 55),
]


@pytest.mark.parametrize("text, d, least", WORD_CAP_PINS)
def test_word_cap_triggers_where_recorded(text, d, least):
    g = parse_grammar(text)
    assert enumerate_words(g, d, cap=least).words == enumerate_words(g, d).words
    with pytest.raises(ResourceCapError) as exc:
        enumerate_words(g, d, cap=least - 1)
    assert str(exc.value) == "enumeration exceeded word cap %d" % (least - 1)


def test_grammar_format_roundtrip():
    g = parse_grammar(IFTHENELSE)
    g2 = parse_grammar(format_grammar(g))
    assert g2.productions == g.productions
    assert g2.terminals == g.terminals


def test_count_derivations_unreachable_epsilon_cycle():
    # A is productive but unreachable; its epsilon cycle makes its counts
    # infinite, so counting every variable refuses before any arithmetic
    g = parse_grammar(
        "terminals: x\nvariables: S A B\nstart: S\nS -> x\nA -> A A | eps\nB -> x"
    )
    with pytest.raises(DivergenceError):
        count_derivations(g, 12)
    with pytest.raises(DivergenceError):
        count_derivations(g, 12, 1)
    # counted from S, only the variables S reaches are counted
    assert g.reached_from(g.start) == g.live == {0} and g.reached_from(1) == {1}
    assert count_derivations(g, 4, g.start) == {0: [0, 1, 0, 0, 0], 1: [0] * 5, 2: [0] * 5}
    assert set(enumerate_words(g, 12).words) == {b"\x00"}
    # the certificate counts over the live variables, as the enumeration does
    assert certify_unambiguous(g, 12) == (True, None)


def random_grammar(rng):
    """1-2 terminals, 1-3 variables, 1-3 bodies each of length 0-3."""
    n, m = rng.randint(1, 2), rng.randint(1, 3)
    prods = set()
    for var in range(m):
        for _ in range(rng.randint(1, 3)):
            body = tuple(rng.randrange(n + m) for _ in range(rng.randint(0, 3)))
            prods.add((var, body))
    return CFGrammar(Alphabet(list("ab"[:n])), Alphabet(list("SAB"[:m])), 0, sorted(prods))


def shortest_words(g):
    """A shortest word of each productive variable, by relaxation."""
    short = {}
    changed = True
    while changed:
        changed = False
        for var, rhs in g.productions:
            if all(not g.is_var(s) or g.var_of(s) in short for s in rhs):
                w = b"".join(
                    short[g.var_of(s)] if g.is_var(s) else bytes([s]) for s in rhs
                )
                if var not in short or len(w) < len(short[var]):
                    short[var] = w
                    changed = True
    return short


class Cycle(Exception):
    """A (variable, word) pair was reached again while it was being counted."""


def parse_counter(g):
    """count(symbol, word) = parse trees, by memoised splitting of the word.

    Only productive bodies are split: a body's first symbol takes a prefix
    of the word, which must be nonempty unless the symbol is nullable, and it
    is counted only when the rest of the body derives the rest of the word.
    So a pair is reached again only through a unit/epsilon cycle of a
    productive variable, and that raises Cycle.
    """
    short = shortest_words(g)
    bodies = {
        var: [
            rhs
            for v, rhs in g.productions
            if v == var and all(not g.is_var(s) or g.var_of(s) in short for s in rhs)
        ]
        for var in short
    }
    memo, splits, active = {}, {}, set()

    def nullable(s):
        return g.is_var(s) and short.get(g.var_of(s)) == b""

    def split(rhs, w):
        if not rhs:
            return int(not w)
        s = rhs[0]
        if not g.is_var(s):
            return split(rhs[1:], w[1:]) if w[:1] == bytes([s]) else 0
        if (rhs, w) not in splits:
            total = 0
            for i in range(0 if nullable(s) else 1, len(w) + 1):
                rest = split(rhs[1:], w[i:])
                if rest:
                    total += count(s, w[:i]) * rest
            splits[rhs, w] = total
        return splits[rhs, w]

    def count(s, w):
        if not g.is_var(s):
            return int(w == bytes([s]))
        key = (g.var_of(s), w)
        if key[0] not in short:
            return 0
        if key not in memo:
            if key in active:
                raise Cycle
            active.add(key)
            memo[key] = sum(split(rhs, w) for rhs in bodies[key[0]])
        return memo[key]

    return count, short


def has_cycle(g, variables):
    """True iff counting a shortest word of some variable in `variables`
    reaches a unit/epsilon cycle."""
    count, short = parse_counter(g)
    try:
        for var in variables:
            count(g.n + var, short[var])
    except Cycle:
        return True
    return False


def test_kernel_against_independent_routes():
    rng = random.Random(20261018)
    seen = set()
    for _ in range(300):
        g = random_grammar(rng)
        d = rng.randint(0, 5)
        words = full_language(g.terminals, d).words
        count, short = parse_counter(g)
        # a cycle stops the counts of every productive variable, but the
        # enumeration and the certificate only when the start reaches it
        cyclic_live = has_cycle(g, g.live)
        cyclic = cyclic_live or has_cycle(g, short)
        if short.get(g.start) == b"":
            seen.add("nullable start")
        if any(len(rhs) == 1 and g.is_var(rhs[0]) for _, rhs in g.productions):
            seen.add("unit rule")
        try:
            lang = set(enumerate_words(g, d).words)
            assert lang == {w for w in words if count(g.n + g.start, w) >= 1}
        except DivergenceError:
            assert cyclic_live
        if cyclic:
            seen.add("divergent" if cyclic_live else "unreachable cycle")
            with pytest.raises(DivergenceError):
                count_derivations(g, d)
        else:
            counts = count_derivations(g, d)
            for var in range(g.variables.size):
                want = [0] * (d + 1)
                for w in words:
                    want[len(w)] += count(g.n + var, w)
                assert counts[var] == want
        if cyclic_live:
            with pytest.raises(DivergenceError):
                certify_unambiguous(g, d)
            continue
        ambiguous = [w for w in words if count(g.n + g.start, w) >= 2]
        witness = min(ambiguous, key=WORD_KEY) if ambiguous else None
        assert certify_unambiguous(g, d) == (witness is None, witness)
        if ambiguous:
            seen.add("ambiguous")
    assert seen == {
        "nullable start", "unit rule", "ambiguous", "divergent", "unreachable cycle"
    }


def test_parse_layers_agree_with_counts_and_words():
    rng = random.Random(20261019)
    checked = 0
    while checked < 60:
        g = random_grammar(rng)
        d = rng.randint(6, 10)
        try:
            counts = count_derivations(g, d)[g.start]
            parses = grammar._layers(g, d, g.live, grammar._PARSES).get(g.start)
        except DivergenceError:
            continue
        if parses is None:  # the start derives no word
            continue
        assert [sum(layer.values()) for layer in parses] == counts
        assert set().union(*parses) == enumerate_words(g, d).words
        checked += 1


def run_grammar(rng):
    """2 terminals, 1-3 variables, 1-3 bodies each of 0-6 symbols: variables
    and runs of 2-4 letters, cut from three drawn runs so that bodies share
    run prefixes, at the start, in the middle and at the end of a body."""
    m = rng.randint(1, 3)
    runs = [tuple(rng.randrange(2) for _ in range(4)) for _ in range(3)]
    prods = set()
    for var in range(m):
        for _ in range(rng.randint(1, 3)):
            body = ()
            for _ in range(rng.randint(0, 3)):
                if rng.random() < 0.6:
                    body += rng.choice(runs)[: rng.randint(2, 4)]
                else:
                    body += (2 + rng.randrange(m),)
            prods.add((var, body[:6]))
    return CFGrammar(Alphabet(["a", "b"]), Alphabet(list("SAB"[:m])), 0, sorted(prods))


def run_shapes(g):
    """Where the grammar's bodies hold runs of two or more letters, and
    whether two bodies share a prefix that ends in a letter."""
    shapes = set()
    for _, rhs in g.productions:
        letters = "".join("v" if g.is_var(s) else "t" for s in rhs)
        if letters.startswith("tt") and "v" in letters:
            shapes.add("leading run")
        if re.search("vtt+v", letters):
            shapes.add("middle run")
        if letters.endswith("tt") and "v" in letters:
            shapes.add("trailing run")
    bodies = sorted({rhs for _, rhs in g.productions})
    for x, y in zip(bodies, bodies[1:]):
        common = next((i for i, (s, t) in enumerate(zip(x, y)) if s != t), None)
        i = min(len(x), len(y)) if common is None else common
        if i and not g.is_var(x[i - 1]):
            shapes.add("shared prefix")
    return shapes


def test_kernel_on_terminal_runs():
    rng = random.Random(20261020)
    shapes, checked = set(), 0
    while checked < 150:
        g = run_grammar(rng)
        d = rng.randint(4, 8)
        if has_cycle(g, g.productive):
            with pytest.raises(DivergenceError):
                count_derivations(g, d)
            continue
        count, short = parse_counter(g)
        words = full_language(g.terminals, d).words
        counts = count_derivations(g, d)
        for var in range(g.variables.size):
            want = [0] * (d + 1)
            for w in words:
                want[len(w)] += count(g.n + var, w)
            assert counts[var] == want
        want = {w for w in words if count(g.n + g.start, w)}
        assert enumerate_words(g, d).words == want
        for var, layers in grammar._layers(g, d, g.live, grammar._PARSES).items():
            for k, layer in enumerate(layers):
                want = {w: count(g.n + var, w) for w in words if len(w) == k}
                assert dict(layer) == {w: c for w, c in want.items() if c}
        shapes |= run_shapes(g)
        checked += 1
    assert shapes == {"leading run", "middle run", "trailing run", "shared prefix"}


def example_grammars():
    """Every grammar the nine built-in examples run."""
    texts = [
        IFTHENELSE, DYCK, TRIPLE_L1, examples.FP_FAMILY, examples.FPV_FAMILY,
        *LUKAS1_CHAINS, *examples.LUKAS2_CHAINS,
        *examples.FP_CHAINS, *examples.FPV_CHAINS,
    ]
    return [parse_grammar(text) for text in texts] + [
        palindrome_grammar("xy"),
        palindrome_grammar("xyz"),
        myhill_nerode_grammar(examples.xystar_handle()),
    ]


def test_layer_plans_step_over_whole_runs():
    # a terminal run is one step, never one per letter: every body prefix
    # that is a key ends a run or a variable in some body, and a body's
    # leading run is a constant
    for g in example_grammars():
        for variables in {g.productive, g.live}:
            constants, order, steps, _ = grammar._layer_plan(g, variables)
            bodies = [rhs for _, rhs in g.productions]

            def ends_a_run_or_variable(key, rhs):
                return rhs[: len(key)] == key and (
                    g.is_var(key[-1]) or len(rhs) == len(key) or g.is_var(rhs[len(key)])
                )

            keys = [k for k in steps if isinstance(k, tuple)] + [k for k, _ in constants]
            for key in keys:
                assert any(ends_a_run_or_variable(key, rhs) for rhs in bodies), key
            for rhs in bodies:
                j = next((i for i, s in enumerate(rhs) if g.is_var(s)), len(rhs))
                if j:
                    assert (rhs[:j], bytes(rhs[:j])) in constants
                    assert rhs[:j] not in steps
