"""Buchberger's algorithm over Q(t) for the lexicographic order, plus
univariate elimination from the reduced lex basis."""

from __future__ import annotations

from .errors import EliminationError, ResourceCapError
from .multipoly import MultiPolynomial


def lex_key(exps, ranking):
    """Monomial comparison key for lex with the given low-to-high ranking.

    ranking[i] is the position of variable i in the order (0 = lowest).
    Keys compare like the monomials themselves: bigger key = bigger monomial.
    """
    return tuple(exps[i] for i in sorted(range(len(exps)), key=lambda i: -ranking[i]))


def leading_term(p, ranking):
    """(exponent vector, coefficient) of the lex-largest term; None for 0."""
    if not p.terms:
        return None
    e = max(p.terms, key=lambda e: lex_key(e, ranking))
    return e, p.terms[e]


def _divides(e1, e2):
    return all(a <= b for a, b in zip(e1, e2))


def _monomial_mul(p, exps, coeff):
    return MultiPolynomial(
        p.variables,
        {tuple(a + b for a, b in zip(e, exps)): c * coeff for e, c in p.terms.items()},
    )


def reduce_poly(p, basis, ranking):
    """Full multivariate division remainder of p modulo the basis."""
    rem = MultiPolynomial.zero(p.variables)
    work = p
    lts = [(g, leading_term(g, ranking)) for g in basis if g]
    while work:
        e, c = leading_term(work, ranking)
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


def s_polynomial(f, g, ranking):
    fe, fc = leading_term(f, ranking)
    ge, gc = leading_term(g, ranking)
    lcm = tuple(max(a, b) for a, b in zip(fe, ge))
    mf = tuple(a - b for a, b in zip(lcm, fe))
    mg = tuple(a - b for a, b in zip(lcm, ge))
    return _monomial_mul(f, mf, fc.inverse()) - _monomial_mul(g, mg, gc.inverse())


def _coprime(e1, e2):
    return all(a == 0 or b == 0 for a, b in zip(e1, e2))


def buchberger_lex(gens, ranking, cap=2000):
    """Reduced lex Groebner basis; ranking maps variable index to rank
    (0 = lowest, eliminated last)."""
    basis = [g for g in gens if g]
    if not basis:
        return []
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    steps = 0
    while pairs:
        # normal selection: smallest lcm of leading monomials first
        def pair_key(ij):
            i, j = ij
            ei = leading_term(basis[i], ranking)[0]
            ej = leading_term(basis[j], ranking)[0]
            lcm = tuple(max(a, b) for a, b in zip(ei, ej))
            return (sum(lcm), lex_key(lcm, ranking))

        pairs.sort(key=pair_key)
        i, j = pairs.pop(0)
        steps += 1
        if steps > cap:
            raise ResourceCapError("Buchberger pair cap exceeded")
        ei = leading_term(basis[i], ranking)[0]
        ej = leading_term(basis[j], ranking)[0]
        if _coprime(ei, ej):
            continue
        lcm = tuple(max(a, b) for a, b in zip(ei, ej))
        # chain criterion: some k with lt(k) | lcm and both mixed pairs done
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            ek = leading_term(basis[k], ranking)[0]
            if _divides(ek, lcm):
                if (tuple(sorted((i, k))) not in {tuple(sorted(p)) for p in pairs}
                        and tuple(sorted((j, k))) not in {tuple(sorted(p)) for p in pairs}):
                    skip = True
                    break
        if skip:
            continue
        r = reduce_poly(s_polynomial(basis[i], basis[j], ranking), basis, ranking)
        if r:
            basis.append(r)
            pairs.extend((len(basis) - 1, k) for k in range(len(basis) - 1))
    return _reduce_basis(basis, ranking)


def _reduce_basis(basis, ranking):
    # minimal: drop elements whose leading monomial is divisible by another's
    lead = [leading_term(g, ranking)[0] for g in basis]
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
        r = reduce_poly(g, others, ranking) if others else g
        if r:
            _, c = leading_term(r, ranking)
            out.append(r * c.inverse())
    out.sort(key=lambda p: lex_key(leading_term(p, ranking)[0], ranking))
    return out


def assert_groebner(basis, gens, ranking):
    """Postconditions: inputs and all S-polynomials reduce to zero."""
    for g in gens:
        if reduce_poly(g, basis, ranking):
            raise EliminationError("input does not reduce to zero modulo the basis")
    for i in range(len(basis)):
        for j in range(i):
            if reduce_poly(s_polynomial(basis[i], basis[j], ranking), basis, ranking):
                raise EliminationError("S-polynomial fails to reduce to zero")


def ranking_keep_lowest(variables, keep):
    """Keep-variable ranked lowest; the rest keep declaration order above it."""
    order = [keep] + [v for v in variables if v != keep]
    pos = {v: i for i, v in enumerate(order)}
    return [pos[v] for v in variables]


def eliminate_univariate(gens, keep, check=True):
    """Lowest-degree univariate relation in `keep` from the reduced lex basis."""
    if not gens:
        raise EliminationError("empty generating set")
    variables = gens[0].variables
    if keep not in variables:
        raise EliminationError("unknown variable %r" % (keep,))
    ranking = ranking_keep_lowest(variables, keep)
    basis = buchberger_lex(gens, ranking)
    if check:
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
