"""Context-free grammars: bounded enumeration, derivation counting and
bounded unambiguity certificates.

Enumeration, derivation counts and per-word parse counts are three modes of
one kernel, `_layers`, which builds the words of length k of every variable
from the shorter ones.  The facts it needs about a grammar (nullable,
productive and live variables, and a layer plan per variable set) are
computed once per grammar and kept on it.  Symbols on production right-hand
sides are ints: ``0..n-1`` are terminal positions, ``n+j`` is variable ``j``.
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
        prods = []
        seen = set()
        n = terminals.size
        for var, rhs in productions:
            rhs = tuple(rhs)
            if not 0 <= var < variables.size:
                raise InputError("production for unknown variable")
            if any(not 0 <= s < n + variables.size for s in rhs):
                raise InputError("bad symbol in production body")
            if (var, rhs) in seen:
                raise InputError("duplicate production")
            seen.add((var, rhs))
            prods.append((var, rhs))
        have = {v for v, _ in prods}
        missing = set(range(variables.size)) - have
        if missing:
            raise InputError(
                "variables without productions: %s"
                % " ".join(variables.symbols[j] for j in sorted(missing))
            )
        self.terminals = terminals
        self.variables = variables
        self.start = start
        self.productions = tuple(prods)
        self._plans = {}  # variable set -> its `_layer_plan`, filled by `_layers`
        self._certs = {}  # degree -> its `certify_unambiguous` result

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

    @cached_property
    def live(self):
        """Productive variables reachable from the start."""
        reachable, stack = {self.start}, [self.start]
        by_var = self.by_variable()
        while stack:
            for rhs in by_var[stack.pop()]:
                for s in rhs:
                    if self.is_var(s) and self.var_of(s) not in reachable:
                        reachable.add(self.var_of(s))
                        stack.append(self.var_of(s))
        return self.productive & reachable

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
    `variables` are kept.  A step is a variable (keyed by its symbol), whose
    layer is the sum of its bodies' layers, or a nonempty body prefix (a tuple
    of symbols), whose layer k sums, over the splits k = j + l, layer j of the
    prefix one symbol shorter times layer l of its last symbol.  Inside layer
    k a split reads a layer-k value only when l = 0 (the last symbol is
    nullable, by `g.nullable`) or j = 0 (the shorter prefix is nullable);
    those reads order the steps, and a cycle among them is a unit/epsilon
    cycle.

    Returns (order, steps): a variable's step lists its bodies, a prefix's is
    (shorter prefix, last symbol, least l, k - greatest l).
    """

    def null(s):
        return g.is_var(s) and g.var_of(s) in g.nullable

    steps, reads = {}, {}
    for var, rhs in g.productions:
        if var not in variables or any(
            g.is_var(s) and g.var_of(s) not in variables for s in rhs
        ):
            continue
        steps.setdefault(g.n + var, []).append(rhs)
        reads.setdefault(g.n + var, set()).add(rhs)
        for i, s in enumerate(rhs):
            head, key = rhs[:i], rhs[: i + 1]
            head_null = all(map(null, head))
            steps[key] = (head, s, 0 if null(s) else 1, 0 if head_null else 1)
            reads[key] = {head} if null(s) else set()
            if head_null:
                reads[key].add(s)
    # the empty body and the terminals are given, not built
    graph = {key: {x for x in xs if x in steps} for key, xs in reads.items()}
    try:
        order = list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        names = dict.fromkeys(
            g.sym_text(key) for key in exc.args[1] if isinstance(key, int)
        )
        raise DivergenceError(
            "unit/epsilon cycle through %s" % " ".join(names)
        ) from None
    return order, steps


# What a length layer holds, as (empty word, one letter, product, sum of an
# iterable): parse-tree counts, the set of words, or word -> parse-tree count.
_COUNTS = (1, lambda a: 1, mul, sum)
_WORDS = (
    frozenset({EMPTY}),
    lambda a: {bytes([a])},
    lambda x, y: starmap(add, product(x, y)) if x and y else (),
    lambda xs: set().union(*xs),
)


def _sum_parses(xs):
    out = Counter()
    for x in xs:
        out.update(x)
    return out


_PARSES = (
    {EMPTY: 1},
    lambda a: {bytes([a]): 1},
    lambda x, y: {u + v: cu * cv for u, cu in x.items() for v, cv in y.items()},
    _sum_parses,
)
_SUM, _LETTER, _CONVOLVE = range(3)


def _layers(g, d, variables, mode, cap=None):
    """Length layers 0..d of each variable in `variables`, by variable index.

    `variables` must be productive and closed under the bodies of their
    productions.  Layer k of each step is built from the layers below k and
    from the layer-k values of the steps before it in the plan, so each split
    of a body costs one product (the recursive method of Flajolet, Zimmermann
    and Van Cutsem, 1994).  Each call resolves the grammar's kept plan into
    flat steps: a prefix ending in a letter is its head's layer k - 1 times
    the letter, and a one-body variable or one-variable prefix shares that
    layer.  A unit/epsilon cycle raises DivergenceError before any layer is
    built.  With `cap`, more than `cap` words held over all steps raises
    ResourceCapError.
    """
    unit, letter, times, total = mode
    zero = total(())
    if variables not in g._plans:
        g._plans[variables] = _layer_plan(g, variables)
    order, steps = g._plans[variables]
    vals = {key: [] for key in order}
    vals[()] = [unit] + [zero] * d
    run = []  # (layer list, kind, x, y, least l, k - greatest l)
    for key in order:
        step = steps[key]
        if isinstance(key, int):
            run.append((vals[key], _SUM, [vals[body] for body in step], None, 0, 0))
        else:
            head, s, lo, off = step
            if not g.is_var(s):
                run.append((vals[key], _LETTER, vals[head], letter(s), lo, off))
            elif head:
                run.append((vals[key], _CONVOLVE, vals[head], vals[s], lo, off))
            else:
                run.append((vals[key], _SUM, [vals[s]], None, 0, 0))
    held = 0
    for k in range(d + 1):
        for out, kind, x, y, lo, off in run:
            if kind == _CONVOLVE:  # x[k - l] times y[l] for l = lo .. k - off
                xs, ys = x[off : k - lo + 1], y[lo : k - off + 1]
                value = total(map(times, xs, reversed(ys)))
            elif kind == _LETTER:
                value = total((times(x[k - 1], y),)) if k > off else zero
            else:  # a variable's bodies; one body shares its layer
                value = total([body[k] for body in x]) if len(x) > 1 else x[0][k]
            out.append(value)
            if cap is not None:
                held += len(value)
                if held > cap:
                    raise ResourceCapError("enumeration exceeded word cap %d" % cap)
    return {key - g.n: vals[key] for key in order if isinstance(key, int)}


def enumerate_words(g, d, cap=DEFAULT_WORD_CAP):
    """Distinct generated words of length <= d."""
    layers = _layers(g, d, g.live, _WORDS, cap).get(g.start, ())
    return TruncatedLanguage._built(g.terminals, d, frozenset().union(*layers))


def count_derivations(g, d):
    """c[A][k] = number of leftmost derivations (= parse trees) from A of words
    of length k, for k <= d, for every variable A (zero when A is not in
    `g.productive`)."""
    layers = _layers(g, d, g.productive, _COUNTS)
    return {j: layers.get(j, [0] * (d + 1)) for j in range(g.variables.size)}


def certify_unambiguous(g, d):
    """True iff derivation counts match distinct-word counts for all k <= d.

    On failure also returns the shortlex-least word with >= 2 parse trees:
    parse trees are counted per word only at the first length that differs.
    The result is kept on the grammar, one per degree.
    """
    if d not in g._certs:
        g._certs[d] = _certify(g, d)
    return g._certs[d]


def _certify(g, d):
    derivations = count_derivations(g, d)[g.start]
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
