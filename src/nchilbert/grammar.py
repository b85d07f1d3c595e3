"""Context-free grammars: bounded enumeration, derivation counting and
bounded unambiguity certificates.

Enumeration, derivation counts and per-word parse counts are three modes of
one kernel, `_layers`, which builds the words of length k of every variable
from the shorter ones, a run of terminals at a time: a run that opens a body
is a constant word, a later run, or a variable after an opening run, shifts
a lower layer by a word, and a variable after a variable or a later run is a
convolution.  The word cap still charges every body prefix.  The nullable,
productive and live variables, and a layer plan per variable set, are found
once per grammar and kept on it.  Symbols on production right-hand sides are
ints: ``0..n-1`` are terminal positions, ``n+j`` is variable ``j``.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from itertools import product, starmap
from operator import add, mul

from .errors import DivergenceError, InputError, ResourceCapError
from .words import EMPTY, Alphabet, TruncatedLanguage, WORD_KEY, content_lines

DEFAULT_WORD_CAP = 10**7


class CFGrammar:
    """Productions over disjoint terminal and variable alphabets."""

    def __init__(self, terminals, variables, start, productions):
        if set(terminals.symbols) & set(variables.symbols):
            raise InputError("terminals and variables must be disjoint")
        if not 0 <= start < variables.size:
            raise InputError("start variable out of range")
        prods = tuple((var, tuple(rhs)) for var, rhs in productions)
        for var, rhs in prods:
            if not 0 <= var < variables.size:
                raise InputError("production for unknown variable")
            if any(not 0 <= s < terminals.size + variables.size for s in rhs):
                raise InputError("bad symbol in production body")
        if len(set(prods)) < len(prods):
            raise InputError("duplicate production")
        missing = set(range(variables.size)) - {v for v, _ in prods}
        if missing:
            raise InputError(
                "variables without productions: %s"
                % " ".join(variables.symbols[j] for j in sorted(missing))
            )
        self.terminals = terminals
        self.variables = variables
        self.start = start
        self.productions = prods
        self._plans = {}  # variable set -> its `_layer_plan`, filled by `_layers`
        self._certs = {}  # degree -> its `certify_unambiguous` result
        self._reached = {}  # variable -> its `reached_from` set

    @property
    def n(self):
        return self.terminals.size

    def is_var(self, sym):
        return sym >= self.n

    def var_of(self, sym):
        return sym - self.n

    def sym_text(self, sym):
        if self.is_var(sym):
            return self.variables.symbols[sym - self.n]
        return self.terminals.symbols[sym]

    def rhs_text(self, rhs):
        if not rhs:
            return "eps"
        return " ".join(self.sym_text(s) for s in rhs)

    def by_variable(self):
        out = {j: [] for j in range(self.variables.size)}
        for var, rhs in self.productions:
            out[var].append(rhs)
        return out

    @cached_property
    def nullable(self):
        """Variables that derive the empty word."""
        return _deriving(self, terminals=False)

    @cached_property
    def productive(self):
        """Variables that derive some terminal word."""
        return _deriving(self, terminals=True)

    @property
    def live(self):
        """Productive variables reachable from the start."""
        return self.reached_from(self.start)

    def reached_from(self, var):
        """Productive variables reachable from variable `var`, itself included
        when productive: a set closed under the bodies that derive words.
        Found once per variable and kept on the grammar."""
        if var not in self._reached:
            reachable, stack = {var}, [var]
            by_var = self.by_variable()
            while stack:
                for rhs in by_var[stack.pop()]:
                    new = {s - self.n for s in rhs if s >= self.n} - reachable
                    reachable |= new
                    stack += new
            self._reached[var] = self.productive & reachable
        return self._reached[var]

    @property
    def is_right_linear(self):
        """Every body is eps or a terminal followed by a variable."""
        return all(
            rhs == ()
            or (len(rhs) == 2 and not self.is_var(rhs[0]) and self.is_var(rhs[1]))
            for _, rhs in self.productions
        )

    def __repr__(self):
        return "CFGrammar(start=%s, %d productions)" % (
            self.variables.symbols[self.start],
            len(self.productions),
        )


def _deriving(g, terminals):
    """Variables that derive some word: any terminal word when `terminals`,
    otherwise the empty word."""
    found = set()
    changed = True
    while changed:
        changed = False
        for var, rhs in g.productions:
            if var not in found and all(
                g.var_of(s) in found if g.is_var(s) else terminals for s in rhs
            ):
                found.add(var)
                changed = True
    return frozenset(found)


def _layer_plan(g, variables):
    """The steps that build one length layer of `variables`, in order.

    Only productions of `variables` whose body variables all lie in
    `variables` are kept.  A body splits into maximal runs of terminals and
    single variables, and the body prefix that each ends is a step, keyed by
    its symbols (a variable by its symbol, the empty body by ()): a run w that
    opens the body is a constant, w at length |w|; a variable V that opens it
    is V's layer itself; V after an opening run w is V's layer k - |w| behind
    w; a run w after any other prefix H is H's layer k - |w| followed by w;
    and V after H is a convolution, whose layer k sums, over the splits
    k = j + l, layer j of H times layer l of V.  A variable's layer sums its
    bodies'.  Inside layer k a split reads a layer-k value only when l = 0 (V
    is nullable, by `g.nullable`) or j = 0 (H is nullable), and a variable
    reads its bodies'; those reads order the steps, and a cycle among them is
    a unit/epsilon cycle.

    Returns (constants, order, steps, charges): (key, word) pairs; the step
    keys in order; per key (_SUM, its bodies' keys), (_SHIFT, key shifted,
    word, whether the word goes before, |word|) or (_CONVOLVE, H, V, least l,
    k - greatest l); and the word cap's (key, j) pairs, one per step and per
    body prefix that is none (a constant, inside a run, an opening variable):
    at length k that prefix holds as many words as layer k - j of the key.
    """
    n = g.n
    null = {n + v for v in g.nullable}
    kept = {n + v for v in variables}
    constants, steps, reads, charges = {}, {}, {}, {}
    for var, rhs in g.productions:
        if var not in variables or any(s >= n and s not in kept for s in rhs):
            continue
        head, head_null, i = (), True, 0  # the key of rhs[:i], and its nullability
        while i < len(rhs):
            j = i + 1
            if rhs[i] >= n:
                s, key = rhs[i], rhs[:j]
                if not i:
                    charges[key], key = (s, 0), s  # no step: V's own layer
                elif head in constants:  # V behind the opening run
                    steps[key] = (_SHIFT, s, constants[head], True, i)
                else:
                    lo, off = int(s not in null), int(not head_null)
                    steps[key] = (_CONVOLVE, head, s, lo, off)
                    reads[key] = {x for x, r in ((head, not lo), (s, not off)) if r}
                head_null = head_null and s in null
            else:
                while j < len(rhs) and rhs[j] < n:
                    j += 1
                key = rhs[:j]
                for m in range(i + 1, j + 1):
                    charges.setdefault(rhs[:m], (head, m - i))
                if i:
                    steps[key] = (_SHIFT, head, bytes(rhs[i:j]), False, j - i)
                else:
                    constants[key] = bytes(key)
                head_null = False
            head, i = key, j
        steps.setdefault(n + var, (_SUM, [], None, 0, 0))[1].append(head)
        reads.setdefault(n + var, set()).add(head)
    graph = {key: steps.keys() & reads.get(key, ()) for key in steps}
    try:
        order = list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        names = dict.fromkeys(
            g.sym_text(key) for key in exc.args[1] if isinstance(key, int)
        )
        raise DivergenceError(
            "unit/epsilon cycle through %s" % " ".join(names)
        ) from None
    charges = [(key, 0) for key in order] + [
        c for key, c in charges.items() if key not in steps
    ]
    return list(constants.items()), order, steps, charges


# What a length layer holds, as (one word, product, sum of an iterable, the
# shift by a word before or after): parse-tree counts, the set of words, or
# word -> parse-tree count.
_COUNTS = (lambda w: 1, mul, sum, lambda c, w, before: c)
_WORDS = (
    lambda w: {w},
    lambda x, y: starmap(add, product(x, y)) if x and y else (),
    lambda xs: set().union(*xs),
    lambda x, w, before: {w + u for u in x} if before else {u + w for u in x},
)
_PARSES = (
    lambda w: {w: 1},
    lambda x, y: {u + v: cu * cv for u, cu in x.items() for v, cv in y.items()},
    lambda xs: sum(map(Counter, xs), Counter()),
    lambda x, w, before: {(w + u if before else u + w): c for u, c in x.items()},
)
_SUM, _SHIFT, _CONVOLVE = range(3)


def _layers(g, d, variables, mode, cap=None):
    """Length layers 0..d of each variable in `variables`, by variable index.

    `variables` must be productive and closed under the bodies of their
    productions.  Layer k of each step of the grammar's kept plan
    (`_layer_plan`) is built from the layers below k and the layer-k values
    of the steps before it, so each split of a body costs one product (the
    recursive method of Flajolet, Zimmermann and Van Cutsem, 1994).  A
    constant is filled once per call, a shift attaches its word to one lower
    layer, and a variable whose bodies are all empty at a length but one
    shares that body's layer.  A unit/epsilon cycle raises DivergenceError
    before any layer is built.  With `cap`, ResourceCapError is raised after
    the first length at which all body prefixes and variables hold more than
    `cap` words.
    """
    word, times, total, shift = mode
    zero = total(())
    if variables not in g._plans:
        g._plans[variables] = _layer_plan(g, variables)
    constants, order, steps, charges = g._plans[variables]
    vals = {(): [word(EMPTY)] + [zero] * d}
    for key, w in constants:  # w at length |w|
        vals[key] = ([zero] * len(w) + [word(w)] + [zero] * d)[: d + 1]
    vals.update((key, []) for key in order)
    run = []  # (layer list, kind, x, y, lo, off), as in the plan's steps
    for key in order:
        kind, x, y, lo, off = steps[key]
        x = [vals[body] for body in x] if kind == _SUM else vals[x]
        run.append((vals[key], kind, x, vals[y] if kind == _CONVOLVE else y, lo, off))
    charges = [(vals[key], j) for key, j in charges]
    held = 0
    for k in range(d + 1):
        for out, kind, x, y, lo, off in run:
            if kind == _CONVOLVE:  # x[k - l] times y[l] for l = lo .. k - off
                xs, ys = x[off : k - lo + 1], y[lo : k - off + 1]
                value = total(map(times, xs, reversed(ys)))
            elif kind == _SHIFT:  # x[k - off] with the word y before (lo) or after
                value = shift(x[k - off], y, lo) if k >= off else zero
            else:  # a variable's bodies; a lone nonempty one shares its layer
                parts = [body[k] for body in x if body[k]]
                value = parts[0] if len(parts) == 1 else total(parts)
            out.append(value)
        if cap is not None:
            held += sum(len(layer[k - j]) for layer, j in charges if k >= j)
            if held > cap:
                raise ResourceCapError("enumeration exceeded word cap %d" % cap)
    return {key - g.n: vals[key] for key in order if isinstance(key, int)}


def enumerate_words(g, d, cap=DEFAULT_WORD_CAP):
    """Distinct generated words of length <= d, by length in `by_length`."""
    layers = _layers(g, d, g.live, _WORDS, cap).get(g.start, ())
    by_length = {k: layer for k, layer in enumerate(layers) if layer}
    return TruncatedLanguage._built(
        g.terminals, d, frozenset().union(*layers), by_length
    )


def count_derivations(g, d, root=None):
    """c[A][k] = number of leftmost derivations (= parse trees) from A of words
    of length k, for k <= d, for every variable A (zero when A is not in
    `g.productive`, or, given a variable index `root`, not in
    `g.reached_from(root)`, so a unit/epsilon cycle that root cannot reach
    does not stop the count)."""
    variables = g.productive if root is None else g.reached_from(root)
    layers = _layers(g, d, variables, _COUNTS)
    return {j: layers.get(j, [0] * (d + 1)) for j in range(g.variables.size)}


def certify_unambiguous(g, d):
    """True iff derivation counts match distinct-word counts for all k <= d.

    Both count over `g.live`, so a unit/epsilon cycle that the start cannot
    reach does not stop it.  On failure also returns the shortlex-least word
    with >= 2 parse trees: parse trees are counted per word only at the first
    length that differs.  The result is kept on the grammar, one per degree.
    """
    if d not in g._certs:
        g._certs[d] = _certify(g, d)
    return g._certs[d]


def _certify(g, d):
    derivations = _layers(g, d, g.live, _COUNTS).get(g.start, [0] * (d + 1))
    per_len = enumerate_words(g, d).counts()
    if derivations == per_len:
        return True, None
    k = next(k for k, (a, b) in enumerate(zip(derivations, per_len)) if a != b)
    parses = _layers(g, k, g.live, _PARSES)[g.start][k]
    return False, min((w for w, c in parses.items() if c >= 2), key=WORD_KEY)


def parse_grammar(text):
    """Parse the grammar file format.

    ::

        terminals: x y
        variables: S T
        start: S
        S -> eps | x S y S

    Each of the three header lines appears exactly once.
    """
    headers = {}
    rules = []
    for line in content_lines(text):
        key, _, value = line.partition(":")
        if key in ("terminals", "variables", "start"):
            if key in headers:
                raise InputError("repeated grammar line %r" % line)
            headers[key] = value
        elif "->" in line:
            lhs, rhs = line.split("->", 1)
            rules.append((lhs.strip(), rhs))
        else:
            raise InputError("bad grammar line: %r" % line)
    if len(headers) < 3:
        raise InputError("grammar file needs terminals:, variables: and start:")
    terminals = Alphabet(headers["terminals"].split())
    variables = Alphabet(headers["variables"].split())
    start_name = headers["start"].strip()
    n = terminals.size

    def sym(tok):
        if tok in terminals._index:
            return terminals.index(tok)
        if tok in variables._index:
            return n + variables.index(tok)
        raise InputError("unknown symbol %r in grammar" % tok)

    productions = []
    for lhs, rhs in rules:
        var = variables.index(lhs)
        for alt in rhs.split("|"):
            toks = alt.split()
            if not toks:
                raise InputError(
                    "empty alternative for %s; write eps for the empty word" % lhs
                )
            if toks == ["eps"]:
                productions.append((var, ()))
            else:
                productions.append((var, tuple(sym(t) for t in toks)))
    return CFGrammar(terminals, variables, variables.index(start_name), productions)


def format_grammar(g):
    lines = [
        "terminals: " + " ".join(g.terminals.symbols),
        "variables: " + " ".join(g.variables.symbols),
        "start: " + g.variables.symbols[g.start],
    ]
    by_var = g.by_variable()
    for j in range(g.variables.size):
        alts = [g.rhs_text(rhs) for rhs in by_var[j]]
        lines.append("%s -> %s" % (g.variables.symbols[j], " | ".join(alts)))
    return "\n".join(lines) + "\n"
