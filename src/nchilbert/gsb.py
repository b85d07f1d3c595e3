"""Degree-truncated Groebner-Shirshov completion in the free algebra.

Relations must be homogeneous: then every overlap ambiguity is homogeneous of
the length of its ambiguity word, so processing overlaps by increasing degree
makes the truncated basis complete below the degree cap.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .errors import InputError, MismatchError, ResourceCapError
from .words import Alphabet, FiniteLanguage, WORD_KEY, contains_factor


class MonomialOrder:
    """Graded left-lex order; the alphabet is listed highest symbol first."""

    def __init__(self, alphabet):
        self.alphabet = alphabet

    def key(self, word):
        # tuples compare like the order: longer wins, then earlier symbols win
        return (len(word), tuple(-b for b in word))

    def max_word(self, words):
        return max(words, key=self.key)


class NCPolynomial:
    """Free-algebra polynomial: words (bytes over the alphabet) to rationals."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet, terms=None):
        self.alphabet = alphabet
        clean = {}
        for w, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[bytes(w)] = c
        self.terms = clean

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
        terms = dict(self.terms)
        for w, c in other.terms.items():
            s = terms.get(w, 0) + c
            if s:
                terms[w] = s
            else:
                terms.pop(w, None)
        return NCPolynomial(self.alphabet, terms)

    def __neg__(self):
        return NCPolynomial(self.alphabet, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = Fraction(c)
        return NCPolynomial(self.alphabet, {w: x * c for w, x in self.terms.items()})

    def sandwich(self, left, right):
        """left * self * right for words left, right."""
        return NCPolynomial(
            self.alphabet, {left + w + right: c for w, c in self.terms.items()}
        )

    def lm(self, order):
        if not self.terms:
            raise InputError("zero polynomial has no leading monomial")
        return order.max_word(self.terms)

    def lc(self, order):
        return self.terms[self.lm(order)]

    def monic(self, order):
        return self.scale(1 / self.lc(order))

    def is_homogeneous(self):
        lengths = {len(w) for w in self.terms}
        return len(lengths) <= 1

    def degree(self):
        return max((len(w) for w in self.terms), default=-1)

    def text(self):
        parts = []
        for w in sorted(self.terms, key=WORD_KEY):
            c = self.terms[w]
            word = self.alphabet.text(w)
            if c == 1:
                parts.append("+ %s" % word)
            elif c == -1:
                parts.append("- %s" % word)
            else:
                sign = "-" if c < 0 else "+"
                parts.append("%s %s %s" % (sign, abs(c), word))
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else out


def nc_reduce(f, basis, order):
    """Two-sided normal form of f modulo the basis."""
    lms = [(g.lm(order), g.lc(order), g) for g in basis if g]
    done = {}
    work = dict(f.terms)
    while work:
        w = order.max_word(work)
        c = work.pop(w)
        if not c:
            continue
        hit = None
        for lm, lc, g in lms:
            i = w.find(lm)
            if i >= 0:
                hit = (lm, lc, g, i)
                break
        if hit is None:
            done[w] = done.get(w, 0) + c
            if not done[w]:
                del done[w]
            continue
        lm, lc, g, i = hit
        piece = g.sandwich(w[:i], w[i + len(lm):]).scale(c / lc)
        for v, cv in piece.terms.items():
            if v == w:
                continue
            nv = work.get(v, 0) - cv
            if nv:
                work[v] = nv
            else:
                work.pop(v, None)
    return NCPolynomial(f.alphabet, done)


def _overlaps(w, v):
    """Proper overlap widths o: a suffix of w of length o equals a prefix of v."""
    out = []
    for o in range(1, min(len(w), len(v))):
        if w[-o:] == v[:o]:
            out.append(o)
    return out


def _interreduce(basis, order):
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            g = basis[i]
            if not g:
                continue
            rest = [h for j, h in enumerate(basis) if j != i and h]
            r = nc_reduce(g, rest, order)
            if r != g:
                basis[i] = r.monic(order) if r else r
                changed = True
        basis[:] = [g for g in basis if g]
    return basis


def gs_complete(relations, order, D, cap=20000):
    """Reduced truncated basis: all elements with leading monomial length <= D."""
    for f in relations:
        if not f.is_homogeneous():
            raise InputError("relations must be homogeneous")
    basis = _interreduce([f.monic(order) for f in relations if f], order)

    queue = []
    counter = 0
    for i in range(len(basis)):
        wi = basis[i].lm(order)
        for j in range(i + 1):
            wj = basis[j].lm(order)
            for o in _overlaps(wi, wj):
                deg = len(wi) + len(wj) - o
                if deg <= D:
                    counter += 1
                    heapq.heappush(queue, (deg, counter, i, j, o))
            if i != j:
                for o in _overlaps(wj, wi):
                    deg = len(wj) + len(wi) - o
                    if deg <= D:
                        counter += 1
                        heapq.heappush(queue, (deg, counter, j, i, o))

    steps = 0
    while queue:
        deg, _, i, j, o = heapq.heappop(queue)
        steps += 1
        if steps > cap:
            raise ResourceCapError("completion pair cap exceeded")
        gi, gj = basis[i], basis[j]
        if not gi or not gj:
            continue
        wi, wj = gi.lm(order), gj.lm(order)
        if o >= min(len(wi), len(wj)) or wi[-o:] != wj[:o]:
            continue  # stale pair after interreduction
        # ambiguity word wi . wj[o:]; both compositions scaled monic
        s = gi.sandwich(b"", wj[o:]) - gj.sandwich(wi[: len(wi) - o], b"")
        r = nc_reduce(s, [g for g in basis if g], order)
        if r:
            if r.degree() > D:
                raise MismatchError("homogeneity broken: remainder above cap")
            basis.append(r.monic(order))
            _interreduce(basis, order)
            # indices may have shifted meaning; rebuild the queue lazily by
            # pushing pairs for every current element against the rest
            queue.clear()
            for k in range(len(basis)):
                wk = basis[k].lm(order)
                for l in range(k + 1):
                    wl = basis[l].lm(order)
                    for ov in _overlaps(wk, wl):
                        dg = len(wk) + len(wl) - ov
                        if dg >= deg and dg <= D:
                            counter += 1
                            heapq.heappush(queue, (dg, counter, k, l, ov))
                    if k != l:
                        for ov in _overlaps(wl, wk):
                            dg = len(wl) + len(wk) - ov
                            if dg >= deg and dg <= D:
                                counter += 1
                                heapq.heappush(queue, (dg, counter, l, k, ov))
    return _interreduce(basis, order)


def leading_language(basis, order):
    words = frozenset(g.lm(order) for g in basis if g)
    for w in words:
        for v in words:
            if v != w and contains_factor(w, v):
                raise MismatchError("leading monomials are not an antichain")
    alphabet = basis[0].alphabet if basis else Alphabet([])
    return FiniteLanguage(alphabet, words)


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
    """`alphabet:` line (priority order, highest first), then one relation
    per line as a signed sum of words, e.g. `a' x - x a'`."""
    alphabet = None
    relations = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower().startswith("alphabet:"):
            alphabet = Alphabet(line.split(":", 1)[1].split())
            continue
        if alphabet is None:
            raise InputError("presentation must start with an alphabet: line")
        relations.append(_parse_relation(alphabet, line))
    if alphabet is None:
        raise InputError("presentation has no alphabet: line")
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
