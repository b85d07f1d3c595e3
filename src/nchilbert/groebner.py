"""Buchberger's algorithm over Q(t) for the lexicographic order, plus
univariate elimination from the reduced lex basis of a system whose
unknowns with equal equations are merged first.

Lex order is plain tuple order on exponent vectors, the first variable
highest: the leading monomial of p is `max(p.terms)`.

The postcondition `assert_groebner` proves the same statement as reducing
every S-pair: a pair whose leading monomials are coprime reduces to zero by
Buchberger's first criterion (Gebauer & Moeller 1988), so only the other
pairs are reduced.  The Q(t) coefficients are `RationalFunction`s: each is
a reduced pair of integer polynomials, and its arithmetic runs on ints.
"""

from __future__ import annotations

import heapq
from functools import cache
from itertools import groupby
from operator import itemgetter

from .errors import EliminationError, ResourceCapError
from .multipoly import MultiPolynomial
from .ratfunc import RF_ZERO
from .regular import refine


def _divides(e1, e2):
    return all(a <= b for a, b in zip(e1, e2))


def _lcm(e1, e2):
    return tuple(max(a, b) for a, b in zip(e1, e2))


def _coprime(e1, e2):
    return all(a == 0 or b == 0 for a, b in zip(e1, e2))


def _sub_multiple(work, g, lead, shift, q):
    """work -= q * x^shift * (g minus its leading term), in place."""
    for v, cv in g.terms.items():
        if v != lead:
            u = tuple(a + b for a, b in zip(v, shift))
            nu = work.get(u, RF_ZERO) - q * cv
            if nu:
                work[u] = nu
            else:
                work.pop(u, None)


def reduce_poly(p, basis):
    """Full multivariate division remainder of p modulo the basis, worked in
    place on one dict of terms like `gsb.nc_reduce`."""
    leads = [(max(g.terms), g) for g in basis if g]
    done = {}
    work = dict(p.terms)
    while work:
        e = max(work)
        c = work.pop(e)
        for ge, g in leads:
            if _divides(ge, e):
                shift = tuple(a - b for a, b in zip(e, ge))
                _sub_multiple(work, g, ge, shift, c / g.terms[ge])
                break
        else:
            done[e] = c  # every later top term is smaller, so e never returns
    return MultiPolynomial(p.variables, done)


def s_polynomial(f, g):
    """f and g made monic and shifted to the lcm of their leading monomials,
    subtracted; the leading terms cancel and are never formed."""
    fe, ge = max(f.terms), max(g.terms)
    lcm = _lcm(fe, ge)
    work = {}
    for h, he, q in ((f, fe, -f.terms[fe].inverse()), (g, ge, g.terms[ge].inverse())):
        _sub_multiple(work, h, he, tuple(a - b for a, b in zip(lcm, he)), q)
    return MultiPolynomial(f.variables, work)


def buchberger_lex(gens, cap=2000):
    """Reduced lex Groebner basis, sorted by leading monomial.  The cap
    counts the S-pairs that are reduced, not those the criteria skip."""
    basis = [g for g in gens if g]
    if not basis:
        return []
    lts = [max(g.terms) for g in basis]
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
        r = reduce_poly(s_polynomial(basis[i], basis[j]), basis)
        if r:
            basis.append(r)
            lts.append(max(r.terms))
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
    # is reduced against the ones already reduced and made monic.  A tail term
    # lies below its own leading monomial, so no larger leading monomial
    # divides it.
    out = []
    for g in sorted(keep, key=lambda p: max(p.terms)):
        r = reduce_poly(g, out)
        out.append(r * r.terms[max(r.terms)].inverse())
    return out


def assert_groebner(basis, gens):
    """Postconditions: every input reduces to zero modulo the basis, and every
    S-pair does too.  Pairs with coprime leading monomials are not reduced:
    Buchberger's first criterion proves they reduce to zero."""
    for g in gens:
        if reduce_poly(g, basis):
            raise EliminationError("input does not reduce to zero modulo the basis")
    lts = [max(g.terms) for g in basis]
    for i in range(len(basis)):
        for j in range(i):
            if _coprime(lts[i], lts[j]):
                continue
            if reduce_poly(s_polynomial(basis[i], basis[j]), basis):
                raise EliminationError("S-polynomial fails to reduce to zero")


def merge_unknowns(system, keep):
    """Each unknown's representative, the first unknown of its class.  The
    classes are refined from {keep} and the other unknowns until the members
    of each class have equal equations once every unknown is renamed to its
    class; equations[i] is the equation of unknowns[i], X - F(X).

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
    pos = {name: i for i, name in enumerate(system.unknowns)}
    ids, coeffs = {}, []  # coefficient -> id, id -> coefficient

    def coeff_id(c):
        if c not in ids:
            ids[c] = len(coeffs)
            coeffs.append(c)
        return ids[c]

    @cache
    def summed(cids):
        return coeff_id(sum((coeffs[i] for i in cids), RF_ZERO))

    zero = coeff_id(RF_ZERO)
    terms = [
        [
            (tuple(pos[v] for v, k in zip(eq.variables, e) for _ in range(k)), coeff_id(c))
            for e, c in eq.terms.items()
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
    """Monic generator of the elimination ideal in `keep` of the merged
    system: unknowns with equal equations are merged first (merge_unknowns),
    and the representatives are renamed to the others in reverse declaration
    order, then `keep` lowest, so the checked reduced basis has it first, if
    it has one.  The generator annihilates keep's series but can be
    reducible."""
    if not system.equations:
        raise EliminationError("empty generating set")
    if keep not in system.unknowns:
        raise EliminationError("unknown variable %r" % (keep,))
    rep = merge_unknowns(system, keep)
    reps = [v for v in system.equations[0].variables if rep[v] == v]
    order = tuple(v for v in reversed(reps) if v != keep) + (keep,)
    gens = [
        eq.rename(rep, order)
        for u, eq in zip(system.unknowns, system.equations)
        if rep[u] == u
    ]
    basis = buchberger_lex(gens)
    assert_groebner(basis, gens)
    if not basis or any(max(basis[0].terms)[:-1]):
        raise EliminationError("elimination ideal contains no univariate relation")
    return basis[0].restrict_univariate(keep)
