"""Buchberger's algorithm for the lexicographic order, run fraction-free
in Z[t][X], plus univariate elimination from the reduced lex basis of a
system whose unknowns with equal equations are merged first.

Lex order is plain tuple order on exponent vectors, the first variable
highest: the leading monomial of p is `max(p)`.

A polynomial is a term dict from exponent vectors to nonzero integer
polynomials in t (`QPoly`s with int coefficients), as `build_system` writes
it, and every basis element is primitive: its content, the gcd of its
coefficients in Z[t], is taken out, and its leading coefficient's leading
integer is positive.  A reduction step is a pseudo-division step (Knuth,
TAOCP 2, 4.6.1): to cancel the top term c x^e with g, whose leading
coefficient is a, the remainder is scaled by a/h and (c/h) x^(e - lt g) g
is subtracted, h = gcd(a, c).  The content is taken out once per
remainder, as in the primitive remainder sequence of Brown & Traub (1971).
The reduced basis is returned in this primitive form, never made monic: a
nonzero scalar of Q(t) changes neither the ideal nor reduction to zero.

The postcondition `assert_groebner` proves the same statement as reducing
every S-pair: a pair whose leading monomials are coprime reduces to zero by
Buchberger's first criterion (Gebauer & Moeller 1988), so only the other
pairs are reduced.
"""

from __future__ import annotations

import heapq
from functools import cache
from itertools import groupby
from math import gcd, lcm
from operator import add, itemgetter, le, mul, sub

from .errors import EliminationError, ResourceCapError
from .multipoly import RatPoly, primitive_terms, rename_terms
from .ratfunc import QPoly, _zgcd
from .regular import refine

_ZERO = QPoly()


def _divides(e1, e2):
    return all(map(le, e1, e2))


def _lcm(e1, e2):
    return tuple(map(max, e1, e2))


def _coprime(e1, e2):
    return not any(map(mul, e1, e2))


def _cofactors(a, c):
    """a / h and c / h for h = gcd(a, c) in Z[t]."""
    q, r = c.divmod(a)
    if not r:  # q = c / a, and a / h is the least integer m with m q in Z[t]
        m = lcm(*(x.denominator for x in q.coeffs))
        return QPoly((m,)), q * m
    h = _zgcd(a, c)  # None unless a and c share a factor of positive degree
    if h is not None:
        a, c = a // h, c // h
    k = gcd(*a.coeffs, *c.coeffs)
    if k == 1:
        return a, c
    return QPoly([x // k for x in a.coeffs]), QPoly([x // k for x in c.coeffs])


def reduce_poly(f, basis, g=None):
    """Full multivariate division remainder of f modulo the basis in Z[t][X],
    by pseudo-division: a primitive multiple of the remainder over Q(t), or
    {} for zero.  With g, the remainder of the S-polynomial of f and g: f
    shifted to the lcm of the two leading monomials, its top term cancelled
    by g.  Worked in place on one dict of terms like `gsb.nc_reduce`."""
    leads = [(max(h), h) for h in basis if h]
    if g is None:
        work, first = dict(f), None
    else:
        first = [(max(g), g)]
        shift = tuple(map(sub, _lcm(max(f), first[0][0]), max(f)))
        work = {tuple(map(add, e, shift)): c for e, c in f.items()}
    done = {}
    while work:
        e = max(work)
        c = work.pop(e)
        for he, h in first or leads:
            if _divides(he, e):
                break
        else:
            done[e] = c  # every later top term is smaller, so e never returns
            continue
        first = None
        m, q = _cofactors(h[he], c)
        if m.coeffs != (1,):
            for u, x in work.items():
                work[u] = x * m
            for u, x in done.items():
                done[u] = x * m
        shift = tuple(map(sub, e, he))
        for v, cv in h.items():
            if v != he:
                u = tuple(map(add, v, shift))
                nu = work.get(u, _ZERO) - cv * q
                if nu:
                    work[u] = nu
                else:
                    work.pop(u, None)
    return primitive_terms(done) if done else done


def buchberger_lex(gens, cap=2000):
    """Reduced lex Groebner basis over Q(t) of the term dicts gens, sorted by
    leading monomial, each element primitive in Z[t][X] with a positive
    leading integer.  The cap counts the S-pairs that are reduced, not those
    the criteria skip."""
    basis = [primitive_terms(g) for g in gens if g]
    if not basis:
        return []
    lts = [max(g) for g in basis]
    # normal selection: smallest lcm of leading monomials first, ties in
    # pair order; `pending` is the same pairs as a set, for the chain test
    heap = []
    pending = set()

    def add_pair(i, j):
        lcm = _lcm(lts[i], lts[j])
        heapq.heappush(heap, (sum(lcm), lcm, i, j))
        pending.add((i, j))

    for i in range(len(basis)):
        for j in range(i):
            add_pair(i, j)
    steps = 0
    while heap:
        _, lcm, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        if _coprime(lts[i], lts[j]):
            continue
        # chain criterion: some k with lt(k) | lcm and both mixed pairs done
        if any(
            k != i and k != j and _divides(lts[k], lcm)
            and (max(i, k), min(i, k)) not in pending
            and (max(j, k), min(j, k)) not in pending
            for k in range(len(basis))
        ):
            continue
        steps += 1
        if steps > cap:
            raise ResourceCapError("Buchberger pair cap %d exceeded" % cap)
        r = reduce_poly(basis[i], basis, basis[j])
        if r:
            basis.append(r)
            lts.append(max(r))
            for k in range(len(basis) - 1):
                add_pair(len(basis) - 1, k)
    # minimal: drop elements whose leading monomial is divisible by another's
    keep = [
        g for i, g in enumerate(basis)
        if not any(
            j != i and _divides(lts[j], lts[i])
            and (not _divides(lts[i], lts[j]) or j < i)
            for j in range(len(basis))
        )
    ]
    # reduced, bottom up: in increasing leading-monomial order, each element
    # is reduced against the ones already reduced.  A tail term lies below
    # its own leading monomial, so no larger leading monomial divides it.
    out = []
    for g in sorted(keep, key=max):
        out.append(reduce_poly(g, out))
    return out


def assert_groebner(basis, gens):
    """Postconditions: every input reduces to zero modulo the basis, and every
    S-pair does too.  Pairs with coprime leading monomials are not reduced:
    Buchberger's first criterion proves they reduce to zero."""
    for g in gens:
        if reduce_poly(g, basis):
            raise EliminationError("input does not reduce to zero modulo the basis")
    lts = [max(g) for g in basis]
    for i in range(len(basis)):
        for j in range(i):
            if _coprime(lts[i], lts[j]):
                continue
            if reduce_poly(basis[i], basis, basis[j]):
                raise EliminationError("S-polynomial fails to reduce to zero")


def merge_unknowns(system, keep):
    """Each unknown's representative, the first unknown of its class.  The
    classes are refined from {keep} and the other unknowns until the members
    of each class have equal equations once every unknown is renamed to its
    class; equations[i] is the equation of unknowns[i], X - F(X) up to a
    factor in Z[t], and its slot j is unknowns[j].

    Moore's refinement (`regular.refine`) compares integer signatures: per
    term of the renamed equation, the sorted classes of its unknowns, with
    multiplicity, and an id of its coefficient.  Terms that meet under the
    renaming are collected first, their coefficients summed.

    Sound for proper systems: `_layers` rejects unit and eps cycles before
    gamma_algebraic and hilbert_from_homology eliminate, and gamma_linear
    gets right-linear grammars.  Then the iteration X <- F(X) from 0
    converges to the one power-series solution.  Its iterates give the
    members of a class equal values, since their renamed equations are
    equal, so merged unknowns have equal series.
    """
    ids, coeffs = {}, []  # coefficient -> id, id -> coefficient

    def coeff_id(c):
        if c not in ids:
            ids[c] = len(coeffs)
            coeffs.append(c)
        return ids[c]

    @cache
    def summed(cids):
        return coeff_id(sum((coeffs[i] for i in cids), _ZERO))

    zero = coeff_id(_ZERO)
    terms = [
        [
            (tuple(j for j, k in enumerate(e) for _ in range(k)), coeff_id(c))
            for e, c in eq.items()
        ]
        for eq in system.equations
    ]

    def signature(cls):
        out = []
        for eq in terms:
            sig = sorted((tuple(sorted(map(cls.__getitem__, occ))), cid) for occ, cid in eq)
            if any(a[0] == b[0] for a, b in zip(sig, sig[1:])):  # terms meet
                summed_sig = (
                    (key, summed(tuple(cid for _, cid in group)))
                    for key, group in groupby(sig, itemgetter(0))
                )
                sig = [term for term in summed_sig if term[1] != zero]
            out.append(tuple(sig))
        return out

    cls = refine([int(u != keep) for u in system.unknowns], signature)
    first = {}
    return {u: first.setdefault(c, u) for u, c in zip(system.unknowns, cls)}


def eliminate_univariate(system, keep):
    """Generator of the elimination ideal in `keep` of the merged system, the
    reduced basis element in keep alone, primitive in Z[t] with a positive
    leading integer: unknowns with equal equations are merged first
    (merge_unknowns), and the representatives are renamed to the others in
    reverse declaration order, then `keep` lowest, so the checked reduced
    basis has it first, if it has one.  The generator annihilates keep's
    series but can be reducible."""
    if not system.equations:
        raise EliminationError("empty generating set")
    if keep not in system.unknowns:
        raise EliminationError("unknown variable %r" % (keep,))
    rep = merge_unknowns(system, keep)
    reps = [v for v in system.unknowns if rep[v] == v]
    order = tuple(v for v in reversed(reps) if v != keep) + (keep,)
    gens = [
        rename_terms(eq, system.unknowns, rep, order)
        for u, eq in zip(system.unknowns, system.equations)
        if rep[u] == u
    ]
    basis = buchberger_lex(gens)
    assert_groebner(basis, gens)
    if not basis or any(max(basis[0])[:-1]):
        raise EliminationError("elimination ideal contains no univariate relation")
    coeffs = {e[-1]: c for e, c in basis[0].items()}
    return RatPoly(keep, [coeffs.get(k, _ZERO) for k in range(max(coeffs) + 1)])
