"""Buchberger's algorithm over Q(t) for the lexicographic order, plus
univariate elimination from the reduced lex basis.

The postcondition `assert_groebner` proves the same statement as reducing
every S-pair: a pair whose leading monomials are coprime reduces to zero by
Buchberger's first criterion (Gebauer & Moeller 1988), so only the other
pairs are reduced.  The Q(t) coefficients are `RationalFunction`s, whose
arithmetic keeps every result reduced with a monic denominator.
"""

from __future__ import annotations

import heapq

from .errors import EliminationError, ResourceCapError
from .multipoly import MultiPolynomial


def lex_key(ranking):
    """Monomial comparison key for lex with the given low-to-high ranking.

    ranking[i] is the position of variable i in the order (0 = lowest).
    The returned function maps an exponent vector to a key that compares
    like the monomials themselves: bigger key = bigger monomial.
    """
    order = sorted(range(len(ranking)), key=lambda i: -ranking[i])
    return lambda exps: tuple(exps[i] for i in order)


def leading_term(p, key):
    """(exponent vector, coefficient) of the lex-largest term; None for 0."""
    if not p.terms:
        return None
    e = max(p.terms, key=key)
    return e, p.terms[e]


def _divides(e1, e2):
    return all(a <= b for a, b in zip(e1, e2))


def _lcm(e1, e2):
    return tuple(max(a, b) for a, b in zip(e1, e2))


def _coprime(e1, e2):
    return all(a == 0 or b == 0 for a, b in zip(e1, e2))


def _monomial_mul(p, exps, coeff):
    return MultiPolynomial(
        p.variables,
        {tuple(a + b for a, b in zip(e, exps)): c * coeff for e, c in p.terms.items()},
    )


def reduce_poly(p, basis, key):
    """Full multivariate division remainder of p modulo the basis."""
    rem = MultiPolynomial.zero(p.variables)
    work = p
    lts = [(g, leading_term(g, key)) for g in basis if g]
    while work:
        e, c = leading_term(work, key)
        hit = None
        for g, (ge, gc) in lts:
            if _divides(ge, e):
                hit = (g, ge, gc)
                break
        if hit is None:
            mono = MultiPolynomial.monomial(work.variables, e, c)
            rem = rem + mono
            work = work - mono
        else:
            g, ge, gc = hit
            factor = tuple(a - b for a, b in zip(e, ge))
            work = work - _monomial_mul(g, factor, c / gc)
    return rem


def s_polynomial(f, f_lt, g, g_lt):
    """S-polynomial of f and g, given their leading terms."""
    (fe, fc), (ge, gc) = f_lt, g_lt
    lcm = _lcm(fe, ge)
    mf = tuple(a - b for a, b in zip(lcm, fe))
    mg = tuple(a - b for a, b in zip(lcm, ge))
    return _monomial_mul(f, mf, fc.inverse()) - _monomial_mul(g, mg, gc.inverse())


def buchberger_lex(gens, ranking, cap=2000):
    """Reduced lex Groebner basis; ranking maps variable index to rank
    (0 = lowest, eliminated last)."""
    key = lex_key(ranking)
    basis = [g for g in gens if g]
    if not basis:
        return []
    lts = [leading_term(g, key) for g in basis]
    # normal selection: smallest lcm of leading monomials first, ties in
    # pair order; `pending` is the same pairs as a set, for the chain test
    heap = []
    pending = set()

    def add_pair(i, j):
        lcm = _lcm(lts[i][0], lts[j][0])
        heapq.heappush(heap, (sum(lcm), key(lcm), i, j))
        pending.add((i, j))

    for i in range(len(basis)):
        for j in range(i):
            add_pair(i, j)
    steps = 0
    while heap:
        _, _, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        steps += 1
        if steps > cap:
            raise ResourceCapError("Buchberger pair cap %d exceeded" % cap)
        ei, ej = lts[i][0], lts[j][0]
        if _coprime(ei, ej):
            continue
        lcm = _lcm(ei, ej)
        # chain criterion: some k with lt(k) | lcm and both mixed pairs done
        if any(
            k != i and k != j and _divides(lts[k][0], lcm)
            and (max(i, k), min(i, k)) not in pending
            and (max(j, k), min(j, k)) not in pending
            for k in range(len(basis))
        ):
            continue
        r = reduce_poly(s_polynomial(basis[i], lts[i], basis[j], lts[j]), basis, key)
        if r:
            basis.append(r)
            lts.append(leading_term(r, key))
            for k in range(len(basis) - 1):
                add_pair(len(basis) - 1, k)
    return _reduce_basis(basis, [e for e, _ in lts], key)


def _reduce_basis(basis, lead, key):
    # minimal: drop elements whose leading monomial is divisible by another's
    keep = []
    for i, g in enumerate(basis):
        if not any(
            j != i and _divides(lead[j], lead[i])
            and (not _divides(lead[i], lead[j]) or j < i)
            for j in range(len(basis))
        ):
            keep.append(g)
    # fully reduce each against the others; normalize leading coefficient to 1
    out = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1:]
        r = reduce_poly(g, others, key) if others else g
        if r:
            _, c = leading_term(r, key)
            out.append(r * c.inverse())
    out.sort(key=lambda p: key(leading_term(p, key)[0]))
    return out


def assert_groebner(basis, gens, ranking):
    """Postconditions: every input reduces to zero modulo the basis, and every
    S-pair does too.  Pairs with coprime leading monomials are not reduced:
    Buchberger's first criterion proves they reduce to zero."""
    key = lex_key(ranking)
    for g in gens:
        if reduce_poly(g, basis, key):
            raise EliminationError("input does not reduce to zero modulo the basis")
    lts = [leading_term(g, key) for g in basis]
    for i in range(len(basis)):
        for j in range(i):
            if _coprime(lts[i][0], lts[j][0]):
                continue
            s = s_polynomial(basis[i], lts[i], basis[j], lts[j])
            if reduce_poly(s, basis, key):
                raise EliminationError("S-polynomial fails to reduce to zero")


def ranking_keep_lowest(variables, keep):
    """Keep-variable ranked lowest; the rest keep declaration order above it."""
    order = [keep] + [v for v in variables if v != keep]
    pos = {v: i for i, v in enumerate(order)}
    return [pos[v] for v in variables]


def eliminate_univariate(gens, keep):
    """Lowest-degree univariate relation in `keep` from the reduced lex basis,
    checked by `assert_groebner` before it is read off."""
    if not gens:
        raise EliminationError("empty generating set")
    variables = gens[0].variables
    if keep not in variables:
        raise EliminationError("unknown variable %r" % (keep,))
    ranking = ranking_keep_lowest(variables, keep)
    basis = buchberger_lex(gens, ranking)
    assert_groebner(basis, gens, ranking)
    idx = variables.index(keep)
    found = []
    for g in basis:
        if all(all(k == 0 for j, k in enumerate(e) if j != idx) for e in g.terms):
            found.append(g.restrict_univariate(keep))
    if not found:
        raise EliminationError("elimination ideal contains no univariate relation")
    best = min(found, key=lambda p: p.degree)
    return best.monic()
