"""Regular-language engine: quotient automata of monomial ideals, automata
of right-linear grammars, right quotients and the Myhill-Nerode grammar
construction.

Every automaton is built by one breadth-first search over a deterministic
transition function (`_explore`), and every `RegularLanguageHandle` holds the
minimal DFA with its states numbered in breadth-first order from the initial
state 0, so equal languages give equal automata.

No closure operations (concatenation, products) are needed: the sandwich
relations R * L(G) * R' take finite R and R', which homology treats as
word sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, ResourceCapError
from .grammar import CFGrammar
from .words import Alphabet, is_antichain

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
    """Moore's refinement over the reachable part, from the accepting and the
    other states; a state's signature is its row of successor classes.
    Classes are numbered by their first state in breadth-first order, which
    is the breadth-first order of the minimal DFA, with the initial class 0."""
    states, rows = _explore(
        dfa.initial, lambda s, i: dfa.transitions[s][i], dfa.alphabet.size
    )
    cls = refine(
        [int(s in dfa.accepting) for s in states],
        lambda cls: [tuple(cls[t] for t in row) for row in rows],
    )
    class_rows = {}
    for c, row in zip(cls, rows):
        class_rows.setdefault(c, tuple(cls[t] for t in row))
    accepting = frozenset(c for c, s in zip(cls, states) if s in dfa.accepting)
    return DFA(dfa.alphabet, tuple(class_rows.values()), accepting, 0)


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


def ideal_automaton(basis):
    """Deterministic suffix-tracking automaton for X* basis X*.

    A state is the frozenset of proper nonempty basis prefixes matched as
    suffixes of the read word, or None once the word contains a basis word
    (the accepting sink; the start state when the basis holds eps).
    """
    if not is_antichain(basis):
        raise InputError("ideal automaton needs an antichain basis")
    bwords = basis.words
    prefixes = {w[:k] for w in bwords for k in range(1, len(w))}

    def step(state, sym):
        if state is None:
            return None
        ext = {s + bytes([sym]) for s in state} | {bytes([sym])}
        return None if ext & bwords else frozenset(ext & prefixes)

    start = None if b"" in bwords else frozenset()
    states, rows = _explore(start, step, basis.alphabet.size)
    accepting = frozenset(k for k, s in enumerate(states) if s is None)
    return RegularLanguageHandle(DFA(basis.alphabet, tuple(rows), accepting, 0))


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
