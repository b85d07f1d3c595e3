"""Degree-truncated Groebner-Shirshov completion in the free algebra.

Relations must be homogeneous: then every overlap ambiguity is homogeneous of
the length of its ambiguity word, so processing overlaps by increasing degree
makes the truncated basis complete below the degree cap. The basis is a
mapping from leading word to monic element whose keys form an antichain
(Bergman's diamond lemma, Mora's completion): reduction looks elements up by
their leading word and never recomputes one.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .errors import InputError, MismatchError, ResourceCapError
from .ratfunc import _qdiv, _rational
from .words import Alphabet, FiniteLanguage, WORD_KEY, alphabet_file, is_antichain


class MonomialOrder:
    """Graded left-lex order; the alphabet is listed highest symbol first."""

    def __init__(self, alphabet):
        self.alphabet = alphabet

    def key(self, word):
        # tuples compare like the order: longer wins, then earlier symbols win
        return (len(word), tuple(-b for b in word))

    def max_word(self, words):
        # the key's maximum without a key per word: among the longest words,
        # the bytes-least (earlier symbols are smaller bytes); the least word
        # of all is that one when it is longest, as in a homogeneous set
        n, w = max(map(len, words)), min(words)
        return w if len(w) == n else min(w for w in words if len(w) == n)


class NCPolynomial:
    """Free-algebra polynomial: words (bytes over the alphabet) to rationals."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet, terms=None):
        self.alphabet = alphabet
        clean = {}
        for w, c in (terms or {}).items():
            c = _rational(c)
            if c:
                clean[bytes(w)] = c
        self.terms = clean

    @classmethod
    def _built(cls, alphabet, terms):
        """From bytes words and nonzero exact rationals, as sums and products
        of canonical terms give them: only an integral Fraction becomes int."""
        p = object.__new__(cls)
        for w, c in terms.items():
            if type(c) is not int and c.denominator == 1:
                terms[w] = c.numerator
        p.alphabet, p.terms = alphabet, terms
        return p

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, NCPolynomial)
            and self.alphabet == other.alphabet
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.alphabet, frozenset(self.terms.items())))

    def __add__(self, other):
        return self._merged(other.terms.items())

    def __sub__(self, other):
        return self._merged((w, -c) for w, c in other.terms.items())

    def _merged(self, pairs):
        terms = dict(self.terms)
        for w, c in pairs:
            s = terms.get(w, 0) + c
            if s:
                terms[w] = s
            else:
                del terms[w]  # c is nonzero, so w was a term
        return NCPolynomial._built(self.alphabet, terms)

    def sandwich(self, left, right):
        """left * self * right for words left, right."""
        return NCPolynomial._built(
            self.alphabet, {left + w + right: c for w, c in self.terms.items()}
        )

    def lm(self, order):
        if not self.terms:
            raise InputError("zero polynomial has no leading monomial")
        return order.max_word(self.terms)

    def monic(self, order):
        inv = _qdiv(1, self.terms[self.lm(order)])
        return NCPolynomial._built(self.alphabet, {w: c * inv for w, c in self.terms.items()})

    def text(self):
        parts = []
        for w in sorted(self.terms, key=WORD_KEY):
            c = self.terms[w]
            size = "" if abs(c) == 1 else "%s " % abs(c)
            parts.append("%s %s%s" % ("-" if c < 0 else "+", size, self.alphabet.text(w)))
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else out


def nc_reduce(f, basis, order):
    """Two-sided normal form of f modulo basis, a mapping from leading word
    to monic element: the top term is rewritten by the first leading word
    that occurs in it until no term contains one."""
    done = {}
    work = dict(f.terms)
    while work:
        w = order.max_word(work)
        c = work.pop(w)
        for lead, g in basis.items():
            i = w.find(lead)
            if i >= 0:
                break
        else:
            done[w] = c  # every later top term is smaller, so w never returns
            continue
        left, right = w[:i], w[i + len(lead):]
        for v, cv in g.terms.items():
            if v != lead:
                u = left + v + right
                nu = work.get(u, 0) - c * cv
                if nu:
                    work[u] = nu
                else:
                    work.pop(u, None)
    return NCPolynomial._built(f.alphabet, done)


def gs_complete(relations, order, D, cap=20000):
    """Reduced truncated basis: all elements with leading monomial length <= D.

    The basis is kept reduced by leading word: a new element displaces every
    element whose leading word it divides, and those are reduced and added
    again (the inclusion compositions). Each overlap of a new leading word
    with a live one is queued once, by degree; a removed leading word lies
    in the leading ideal and never returns, so a pair is stale exactly when
    one of its words is no longer a key. Input relations above D are kept
    but form no pairs. The cap counts popped pairs.

    The overlap partners of a new leading word w come from two indexes over
    the live leading words, by proper prefix and by proper suffix: w's
    suffix of width o begins the words of the first index under it, and
    w's prefix of width o ends those of the second.
    """
    if any(len(set(map(len, f.terms))) > 1 for f in relations):
        raise InputError("relations must be homogeneous")
    basis = {}  # leading word -> monic element
    starts = {}  # proper prefix -> the live leading words that begin with it
    ends = {}  # proper suffix -> the live leading words that end with it
    queue = []
    longest = 0  # the length of the longest leading word added so far

    def add(r):
        # r is nonzero and in normal form modulo the basis
        nonlocal longest
        g = r.monic(order)
        w = g.lm(order)
        displaced = []
        # w is normal, so it is no key and can sit only inside a longer one
        hits = [v for v in basis if w in v] if len(w) < longest else ()
        for v in hits:
            displaced.append(basis.pop(v))
            for o in range(1, len(v)):
                starts[v[:o]].remove(v)
                ends[v[-o:]].remove(v)
        basis[w] = g
        longest = max(longest, len(w))
        for o in range(1, len(w)):
            starts.setdefault(w[:o], []).append(w)
            ends.setdefault(w[-o:], []).append(w)
        for o in range(1, len(w)):
            pairs = [(w, v) for v in starts.get(w[-o:], ())]  # self-overlaps too
            pairs += [(v, w) for v in ends.get(w[:o], ()) if v != w]
            for u, x in pairs:
                deg = len(u) + len(x) - o
                if deg <= D:
                    heapq.heappush(queue, (deg, u, x, o))
        for h in displaced:
            h = nc_reduce(h, basis, order)
            if h:
                add(h)

    for f in relations:
        r = nc_reduce(f, basis, order)
        if r:
            add(r)
    steps = 0
    while queue:
        _, u, v, o = heapq.heappop(queue)
        steps += 1
        if steps > cap:
            raise ResourceCapError("completion pair cap %d exceeded" % cap)
        if u not in basis or v not in basis:
            continue
        # ambiguity word u . v[o:]; both compositions monic
        s = basis[u].sandwich(b"", v[o:]) - basis[v].sandwich(u[:-o], b"")
        r = nc_reduce(s, basis, order)
        if r:
            if max(map(len, r.terms)) > D:
                raise MismatchError("homogeneity broken: remainder above cap")
            add(r)
    # leading words form an antichain, so one tail pass leaves the reduced
    # basis: no other leading word occurs in an element's own, and only its
    # tail is reduced; re-inserting each key keeps the dict order
    for w, g in list(basis.items()):
        del basis[w]
        tail = NCPolynomial._built(g.alphabet, {v: c for v, c in g.terms.items() if v != w})
        basis[w] = NCPolynomial._built(g.alphabet, {w: g.terms[w]}) + nc_reduce(tail, basis, order)
    return list(basis.values())


def leading_language(basis, order):
    alphabet = basis[0].alphabet if basis else Alphabet([])
    lang = FiniteLanguage(alphabet, frozenset(g.lm(order) for g in basis if g))
    if not is_antichain(lang):
        raise MismatchError("leading monomials are not an antichain")
    return lang


def compare_leading(predicted, computed, D):
    """Symmetric difference between a predicted relation set and computed
    leading monomials, both cut at degree D."""
    want = {w for w in predicted.words_upto(D)}
    got = {w for w in computed.words if len(w) <= D}
    missing = sorted(want - got, key=WORD_KEY)
    extra = sorted(got - want, key=WORD_KEY)
    return CompareReport(tuple(missing), tuple(extra))


class CompareReport:
    __slots__ = ("missing", "extra")

    def __init__(self, missing, extra):
        self.missing = missing
        self.extra = extra

    @property
    def ok(self):
        return not self.missing and not self.extra


def parse_presentation(text):
    """One `alphabet:` line (priority order, highest first), then one
    relation per line as a signed sum of words with optional rational
    coefficients, e.g. `a' x - x a'` or `2 x y - 1/2 y x`."""
    alphabet, lines = alphabet_file(text, "presentation")
    relations = [_parse_relation(alphabet, line) for line in lines]
    return alphabet, MonomialOrder(alphabet), relations


def _parse_relation(alphabet, line):
    terms = {}
    sign = 1
    coeff = None
    word = []
    started = False

    def flush():
        nonlocal sign, coeff, word, started
        if not started:
            return
        w = bytes(word)
        c = sign * (coeff if coeff is not None else 1)
        terms[w] = terms.get(w, 0) + c
        sign, coeff, word, started = 1, None, [], False

    for tok in line.split():
        if tok in ("+", "-"):
            flush()
            sign = 1 if tok == "+" else -1
            started = True
            continue
        if not word and coeff is None:
            try:
                coeff = Fraction(tok)
                started = True
                continue
            except ValueError:
                pass
            except ZeroDivisionError:
                raise InputError("coefficient %r has a zero denominator" % tok) from None
        word.append(alphabet.index(tok))
        started = True
    flush()
    return NCPolynomial(alphabet, terms)
