"""Polynomials in the unknowns of an equation system, and univariate ones
over Q(t).

A polynomial in several unknowns is a term dict: each exponent vector, one
slot per unknown, to its nonzero coefficient, an integer polynomial in t (a
`QPoly` with int coefficients).  Equation systems are built, merged and
eliminated in this form, so their coefficients stay in Z[t] throughout.
`RatPoly` is the univariate eliminant, with coefficients in Q(t) kept as
canonical `RationalFunction` pairs.  It has no ring arithmetic: its cleared
form, primitive with coefficients in Z[t], decides proportionality, and
`newton` runs its gcds on that form with `groebner.reduce_poly`.
"""

from __future__ import annotations

from math import gcd

from .ratfunc import QPoly, RationalFunction, TruncatedSeries
from .ratfunc import format_qpoly, primitive_part

_ZERO = QPoly()


def _as_rational(c):
    """c in Q(t): a RationalFunction as it is, a number or a QPoly over 1,
    and a list of integer t-coefficients as that polynomial."""
    if isinstance(c, RationalFunction):
        return c
    return RationalFunction(QPoly(c) if isinstance(c, (list, tuple)) else c)


def integral_terms(terms):
    """The nonzero Q(t) coefficients {key: c} times the product of their
    distinct denominators: {key: c's multiple in Z[t], an int QPoly}."""
    dens = {c.zden.coeffs: c.zden for c in terms.values()}
    out = {}
    for key, c in terms.items():
        num = c.znum
        for k, den in dens.items():
            if k != c.zden.coeffs:
                num = num * den
        out[key] = num
    return out


def primitive_terms(terms):
    """Nonzero Z[t] coefficients {key: c} over their content, the gcd of the
    c in Z[t], with the leading integer of the largest key's c positive."""
    coeffs = iter(terms.values())
    h = next(coeffs)
    for c in coeffs:
        if h.degree <= 0:
            break
        h = c.gcd(h) if c.degree > 0 else c
    if h.degree > 0:
        h = QPoly(primitive_part(h.coeffs))
        terms = {key: c // h for key, c in terms.items()}
    k = gcd(*(x for c in terms.values() for x in c.coeffs))
    if terms[max(terms)].coeffs[-1] < 0:
        k = -k
    return terms if k == 1 else {key: QPoly([x // k for x in c.coeffs]) for key, c in terms.items()}


def rename_terms(terms, variables, mapping, new_variables):
    """The term dict over `variables` as one over `new_variables`, each
    variable v becoming mapping.get(v, v): terms that meet are summed, and
    those that cancel are dropped."""
    idx = {v: j for j, v in enumerate(new_variables)}
    slots = [idx[mapping.get(v, v)] for v in variables]
    out = {}
    for e, c in terms.items():
        new = [0] * len(new_variables)
        for j, k in zip(slots, e):
            new[j] += k
        key = tuple(new)
        s = out.get(key, _ZERO) + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


class RatPoly:
    """Univariate polynomial in a named unknown with Q(t) coefficients.  It
    has no ring arithmetic: it is differentiated, evaluated at a series,
    cleared and compared, and `newton` takes its gcds on the cleared form
    in Z[t]."""

    __slots__ = ("var", "coeffs")

    def __init__(self, var, coeffs):
        coeffs = list(map(_as_rational, coeffs))
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.var = var
        self.coeffs = tuple(coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __getitem__(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else RationalFunction(0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, RatPoly)
            and self.var == other.var
            and self.coeffs == other.coeffs
        )

    def derivative(self):
        """q', each k*c built in Z[t]."""
        coeffs = enumerate(self.coeffs)
        return RatPoly(self.var, [RationalFunction(c.znum * k, c.zden) for k, c in coeffs if k])

    def eval_series(self, h, d):
        """Evaluate at a truncated series argument (coefficients expanded)."""
        acc = TruncatedSeries([0] * (d + 1), d)
        for c in reversed(self.coeffs):
            acc = acc * h + c.series(d)
        return acc

    def cleared(self):
        """Scale by an element of Q(t) so coefficients are primitive Z[t]
        polynomials with no common factor, the leading one's leading integer
        positive.  The form is canonical: two polynomials have the same one
        exactly when they are proportional over Q(t)."""
        if not self:
            return self
        p = primitive_terms(integral_terms({k: c for k, c in enumerate(self.coeffs) if c}))
        return RatPoly(self.var, [p.get(k, _ZERO) for k in range(self.degree + 1)])

    def proportional_to(self, other):
        """Equal up to a nonzero scalar in Q(t)."""
        return self.cleared().coeffs == other.cleared().coeffs

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self[k]
            if not c:
                continue
            if c.is_polynomial():
                cs = format_qpoly(c.num)
                if ("+" in cs[1:]) or ("-" in cs[1:]) or " " in cs:
                    cs = "(%s)" % cs
            else:
                cs = "(%r)" % c
            if k == 0:
                parts.append(cs)
            else:
                vp = self.var if k == 1 else "%s^%d" % (self.var, k)
                parts.append(vp if cs == "1" else "%s*%s" % (cs, vp))
        return " + ".join(parts)
