"""Regular-language engine: the factor automaton of a monomial ideal,
automata of right-linear grammars, right quotients and the Myhill-Nerode
grammar construction.

Every automaton is built by one breadth-first search over a deterministic
transition function (`_explore`), and every `RegularLanguageHandle` holds the
minimal DFA with its states numbered in breadth-first order from the initial
state 0, so equal languages give equal automata.  The ideal X* S X* of any
finite word set S has one Aho-Corasick automaton (`ideal_automaton`), and
Moore's refinement (`refine`) both minimizes automata and merges equal
unknowns of an equation system.

No closure operations (concatenation, products) are needed: the sandwich
relations R * L(G) * R' take finite R and R', which homology treats as
word sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, ResourceCapError
from .grammar import CFGrammar
from .words import Alphabet

DEFAULT_STATE_CAP = 10**5


@dataclass(frozen=True)
class DFA:
    """Total deterministic automaton; transitions[s][i] is the successor."""

    alphabet: Alphabet
    transitions: tuple  # tuple of tuples, one row per state
    accepting: frozenset
    initial: int

    @property
    def n_states(self):
        return len(self.transitions)

    def run(self, word, start=None):
        s = self.initial if start is None else start
        for b in word:
            s = self.transitions[s][b]
        return s

    def accepts(self, word):
        return self.run(word) in self.accepting


def _explore(start, step, n_sym, cap=None):
    """Breadth-first search from `start` over `step(state, sym)`: the reachable
    states in discovery order, and each one's row of successor indices.  A
    `cap` bounds the number of states (the subset construction's cap)."""
    states = [start]
    index = {start: 0}
    rows = []
    for s in states:  # the list grows while it is walked: a FIFO queue
        row = []
        for i in range(n_sym):
            t = step(s, i)
            if t not in index:
                if cap is not None and len(index) >= cap:
                    raise ResourceCapError("determinization state cap %d exceeded" % cap)
                index[t] = len(states)
                states.append(t)
            row.append(index[t])
        rows.append(tuple(row))
    return states, rows


def refine(cls, signature):
    """Moore's partition refinement.  cls[i] is element i's first class and
    signature(cls) lists every element's signature under a class list; each
    round splits the classes by signature, until none splits.  The classes
    come back numbered by their first element."""
    n_classes = len(set(cls))
    while True:
        renum = {}
        cls = [renum.setdefault(key, len(renum)) for key in zip(cls, signature(cls))]
        if len(renum) == n_classes:
            return cls
        n_classes = len(renum)


def minimize(dfa):
    """Moore's refinement over every state, from the accepting and the other
    states; a state's signature is its successors' classes, built one letter
    column at a time and zipped into rows.  The minimal DFA is the part of
    the quotient reachable from the initial class, numbered breadth-first by
    `_explore`, so the initial state is 0 and equal languages give equal
    automata."""
    rows = dfa.transitions
    columns = list(zip(*rows)) or [[0] * len(rows)]  # no letters: no splits
    cls = refine(
        [int(s in dfa.accepting) for s in range(len(rows))],
        lambda cls: zip(*[[cls[t] for t in col] for col in columns]),
    )
    member = dict(zip(cls, rows))  # any member's row: they have equal classes
    classes, min_rows = _explore(
        cls[dfa.initial], lambda c, i: cls[member[c][i]], dfa.alphabet.size
    )
    final = {cls[s] for s in dfa.accepting}
    accepting = frozenset(k for k, c in enumerate(classes) if c in final)
    return DFA(dfa.alphabet, tuple(min_rows), accepting, 0)


class RegularLanguageHandle:
    """A regular language, normalized internally to its minimal total DFA."""

    def __init__(self, dfa):
        self.dfa = minimize(dfa)

    def accepts(self, word):
        return self.dfa.accepts(word)

    @classmethod
    def from_right_linear(cls, g, cap=DEFAULT_STATE_CAP):
        """Subset construction over the grammar's variables: A -> x B is a move
        from A to B on x and A -> eps makes A accepting.  A `cap` bounds the
        number of subsets."""
        if not g.is_right_linear:
            raise InputError("grammar is not right linear")
        moves = {}
        for var, rhs in g.productions:
            if rhs:
                moves.setdefault((var, rhs[0]), set()).add(g.var_of(rhs[1]))
        accepting = {var for var, rhs in g.productions if not rhs}

        def step(cur, i):
            return frozenset(t for s in cur for t in moves.get((s, i), ()))

        states, rows = _explore(frozenset({g.start}), step, g.n, cap)
        final = frozenset(k for k, s in enumerate(states) if s & accepting)
        return cls(DFA(g.terminals, tuple(rows), final, 0))


def ideal_automaton(lang):
    """Aho-Corasick automaton (Aho & Corasick 1975) of X* S X* for any finite
    word set S: S and its minimal basis generate one ideal, so they give one
    handle, and S need not be an antichain.

    A state is the longest suffix of the word read that is a proper prefix of
    a word of S, or None once the word has a factor in S: the accepting sink,
    and the start state when S holds eps.  fail[p] is the state of p's
    longest proper suffix, and goto[p + x] the step from p on letter x.
    Breadth-first order is length order, so fail[p]'s steps are in `goto`
    before p's are taken.
    """
    words = lang.words
    prefixes = {w[:k] for w in words for k in range(1, len(w))}
    letters = [bytes([i]) for i in range(lang.alphabet.size)]
    fail, goto = {}, {}

    def step(p, i):
        if p is None:
            return None
        q = p + letters[i]
        if q in words:
            t = None
        else:
            t = goto[fail[p] + letters[i]] if p else b""  # q's longest proper suffix
            if t is not None and q in prefixes:
                fail[q] = t
                t = q
        goto[q] = t
        return t

    start = None if b"" in words else b""
    states, rows = _explore(start, step, lang.alphabet.size)
    accepting = frozenset(k for k, s in enumerate(states) if s is None)
    return RegularLanguageHandle(DFA(lang.alphabet, tuple(rows), accepting, 0))


def right_quotient(handle, word):
    """Handle for w^{-1} L: move the initial state along w."""
    dfa = handle.dfa
    return RegularLanguageHandle(
        DFA(dfa.alphabet, dfa.transitions, dfa.accepting, dfa.run(word))
    )


def myhill_nerode_grammar(handle, cap=DEFAULT_STATE_CAP):
    """Minimal right-linear grammar read off the handle's minimal DFA.

    The DFA's states are numbered breadth-first from the initial state 0, so
    variable A(k+1) is state k and A1 is the start; each accepting state
    contributes an eps production and every symbol one A_k -> x_i A_l rule.
    """
    dfa = handle.dfa
    if dfa.n_states > cap:
        raise ResourceCapError("quotient automaton state cap %d exceeded" % cap)
    n_sym = dfa.alphabet.size
    productions = []
    for k, row in enumerate(dfa.transitions):
        if k in dfa.accepting:
            productions.append((k, ()))
        productions.extend((k, (i, n_sym + t)) for i, t in enumerate(row))
    variables = Alphabet(["A%d" % (k + 1) for k in range(dfa.n_states)])
    return CFGrammar(dfa.alphabet, variables, 0, productions)
