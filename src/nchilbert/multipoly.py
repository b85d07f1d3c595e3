"""Polynomials in the unknowns of an equation system, and univariate ones
over Q(t).

A polynomial in several unknowns is a term dict: each exponent vector, one
slot per unknown, to its nonzero coefficient, an integer polynomial in t (a
`QPoly` with int coefficients).  Equation systems are built, merged and
eliminated in this form, so their coefficients stay in Z[t] throughout.
`RatPoly` is the univariate eliminant, with coefficients in Q(t).
"""

from __future__ import annotations

from math import gcd

from .ratfunc import QPoly, RationalFunction, RF_ZERO, TruncatedSeries
from .ratfunc import format_qpoly, primitive_part

_ZERO = QPoly()


def _as_rational(c):
    return c if isinstance(c, RationalFunction) else RationalFunction(c)


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


class RatPoly(QPoly):
    """Univariate polynomial in a named unknown with Q(t) coefficients; the
    dense arithmetic is QPoly's."""

    __slots__ = ("var",)
    _zero = RF_ZERO
    _coeff = staticmethod(_as_rational)
    _div = staticmethod(RationalFunction.__truediv__)

    def __init__(self, var, coeffs):
        self.var = var
        super().__init__(coeffs)

    def _new(self, coeffs):
        return RatPoly(self.var, coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, RatPoly)
            and self.var == other.var
            and self.coeffs == other.coeffs
        )

    def eval_series(self, h, d):
        """Evaluate at a truncated series argument (coefficients expanded)."""
        acc = TruncatedSeries([0] * (d + 1), d)
        for c in reversed(self.coeffs):
            acc = acc * h + c.series(d)
        return acc

    def gcd(self, other):
        """Monic gcd by the Euclidean algorithm over the field Q(t)."""
        a, b = self, other
        while b:
            a, b = b, a % b
        return a.monic()

    def squarefree_part(self):
        if self.degree <= 1:
            return self
        g = self.gcd(self.derivative())
        if g.degree <= 0:
            return self
        return (self // g).monic()

    def cleared(self):
        """Scale by an element of Q(t) so coefficients are primitive Z[t]
        polynomials with no common factor, the leading one's leading integer
        positive."""
        if not self:
            return self
        p = primitive_terms(integral_terms({k: c for k, c in enumerate(self.coeffs) if c}))
        return RatPoly(self.var, [p.get(k, RF_ZERO) for k in range(self.degree + 1)])

    def proportional_to(self, other):
        """Equal up to a nonzero scalar in Q(t)."""
        if self.degree != other.degree:
            return False
        if not self:
            return not other
        ratio = None
        for a, b in zip(self.coeffs, other.coeffs):
            if bool(a) != bool(b):
                return False
            if a:
                r = a / b
                if ratio is None:
                    ratio = r
                elif r != ratio:
                    return False
        return True

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
