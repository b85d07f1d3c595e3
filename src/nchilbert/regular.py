"""Regular-language engine: quotient automata of monomial ideals, automata
of right-linear grammars, right quotients and the Myhill-Nerode grammar
construction.

No closure operations (concatenation, products) are needed: the sandwich
relations R * L(G) * R' take finite R and R', which homology treats as
word sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError, ResourceCapError
from .grammar import CFGrammar, validate
from .words import Alphabet, is_antichain

DEFAULT_STATE_CAP = 10**5


@dataclass(frozen=True)
class QuotientState:
    """Canonical right-quotient state of an ideal language X* B X*.

    ``suffixes`` are the proper nonempty prefixes of basis words currently
    matched as suffixes of the read word; ``absorbed`` marks the full ideal.
    """

    absorbed: bool
    suffixes: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.absorbed and self.suffixes:
            raise InputError("absorbed state carries no suffixes")


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


def _reachable(dfa):
    seen = [dfa.initial]
    index = {dfa.initial: 0}
    for s in seen:
        for t in dfa.transitions[s]:
            if t not in index:
                index[t] = len(seen)
                seen.append(t)
    return seen, index


def minimize(dfa):
    """Moore partition refinement over the reachable part."""
    order, index = _reachable(dfa)
    cls = {s: (s in dfa.accepting) for s in order}
    n_sym = dfa.alphabet.size
    while True:
        sig = {
            s: (cls[s],) + tuple(cls[dfa.transitions[s][i]] for i in range(n_sym))
            for s in order
        }
        renum = {}
        new_cls = {}
        for s in order:  # deterministic class ids by first occurrence
            if sig[s] not in renum:
                renum[sig[s]] = len(renum)
            new_cls[s] = renum[sig[s]]
        if len(set(new_cls.values())) == len(set(cls.values())):
            cls = new_cls
            break
        cls = new_cls
    n_classes = len(set(cls.values()))
    rows = [None] * n_classes
    accepting = set()
    for s in order:
        c = cls[s]
        if rows[c] is None:
            rows[c] = tuple(cls[dfa.transitions[s][i]] for i in range(n_sym))
        if s in dfa.accepting:
            accepting.add(c)
    return DFA(dfa.alphabet, tuple(rows), frozenset(accepting), cls[dfa.initial])


class NFA:
    """Nondeterministic automaton without epsilon moves (construction helper)."""

    def __init__(self, alphabet):
        self.alphabet = alphabet
        self.n = 0
        self.moves = {}  # (state, sym) -> set
        self.initial = set()
        self.accepting = set()

    def new_state(self):
        self.n += 1
        return self.n - 1

    def add(self, s, sym, t):
        self.moves.setdefault((s, sym), set()).add(t)


def determinize(nfa, cap=DEFAULT_STATE_CAP):
    n_sym = nfa.alphabet.size
    start = frozenset(nfa.initial)
    index = {start: 0}
    queue = [start]
    rows = []
    accepting = set()
    while queue:
        cur = queue.pop(0)
        if cur & nfa.accepting:
            accepting.add(index[cur])
        row = []
        for i in range(n_sym):
            nxt = frozenset(t for s in cur for t in nfa.moves.get((s, i), ()))
            if nxt not in index:
                if len(index) >= cap:
                    raise ResourceCapError("determinization state cap %d exceeded" % cap)
                index[nxt] = len(index)
                queue.append(nxt)
            row.append(index[nxt])
        rows.append(tuple(row))
    return DFA(nfa.alphabet, tuple(rows), frozenset(accepting), 0)


class RegularLanguageHandle:
    """A regular language, normalized internally to its minimal total DFA."""

    def __init__(self, dfa):
        self.dfa = minimize(dfa)

    @property
    def alphabet(self):
        return self.dfa.alphabet

    def accepts(self, word):
        return self.dfa.accepts(word)

    @classmethod
    def from_right_linear(cls, g):
        report = validate(g)
        if not report.is_right_linear:
            raise InputError("grammar is not right linear")
        nfa = NFA(g.terminals)
        for _ in range(g.variables.size):
            nfa.new_state()
        for var, rhs in g.productions:
            if rhs == ():
                nfa.accepting.add(var)
            else:
                nfa.add(var, rhs[0], g.var_of(rhs[1]))
        nfa.initial = {g.start}
        return cls(determinize(nfa))


def ideal_automaton(basis):
    """Deterministic suffix-tracking automaton for X* basis X*."""
    if not is_antichain(basis):
        raise InputError("ideal automaton needs an antichain basis")
    alphabet = basis.alphabet
    n_sym = alphabet.size
    bwords = basis.words
    prefixes = set()
    for w in bwords:
        for k in range(1, len(w)):
            prefixes.add(w[:k])

    start = QuotientState(False, frozenset())
    absorbed = QuotientState(True, frozenset())

    def step(state, sym):
        if state.absorbed:
            return absorbed
        ext = {s + bytes([sym]) for s in state.suffixes} | {bytes([sym])}
        if ext & bwords or b"" in bwords:
            return absorbed
        return QuotientState(False, frozenset(ext & prefixes))

    index = {start: 0}
    order = [start]
    rows = []
    queue = [start]
    while queue:
        st = queue.pop(0)
        row = []
        for i in range(n_sym):
            nxt = step(st, i)
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
            row.append(index[nxt])
        rows.append(tuple(row))
    dfa = DFA(
        alphabet,
        tuple(rows),
        frozenset(index[s] for s in order if s.absorbed),
        0,
    )
    return RegularLanguageHandle(dfa)


def right_quotient(handle, word):
    """Handle for w^{-1} L: move the initial state along w."""
    dfa = handle.dfa
    return RegularLanguageHandle(
        DFA(dfa.alphabet, dfa.transitions, dfa.accepting, dfa.run(word))
    )


def myhill_nerode_grammar(handle, cap=DEFAULT_STATE_CAP):
    """Minimal right-linear grammar via FIFO BFS over right quotients.

    Variables are named by discovery order A1, A2, ...; each accepting quotient
    contributes an eps production and every symbol one A_k -> x_i A_l rule.
    """
    dfa = handle.dfa
    if dfa.n_states > cap:
        raise ResourceCapError("quotient automaton state cap %d exceeded" % cap)
    n_sym = dfa.alphabet.size
    index = {dfa.initial: 0}
    order = [dfa.initial]
    queue = [dfa.initial]
    productions = []
    while queue:
        s = queue.pop(0)
        k = index[s]
        if s in dfa.accepting:
            productions.append((k, ()))
        for i in range(n_sym):
            t = dfa.transitions[s][i]
            if t not in index:
                index[t] = len(order)
                order.append(t)
                queue.append(t)
            productions.append((k, (i, n_sym + index[t])))
    variables = Alphabet(["A%d" % (k + 1) for k in range(len(order))])
    return CFGrammar(dfa.alphabet, variables, 0, productions)
