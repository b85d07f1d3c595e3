"""Multivariate and univariate polynomials over Q(t), and their multiples in Z[t]."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InputError
from .ratfunc import QPoly, RationalFunction, RF_ONE, RF_ZERO, TruncatedSeries
from .ratfunc import format_qpoly, primitive_part


class MultiPolynomial:
    """Terms map exponent vectors (one slot per variable) to Q(t) coefficients."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        clean = {}
        for exps, c in (terms or {}).items():
            c = _as_rational(c)
            if len(exps) != len(self.variables):
                raise InputError("exponent vector length mismatch")
            if c:
                clean[tuple(exps)] = c
        self.terms = clean

    @classmethod
    def const(cls, variables, c):
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def var(cls, variables, name, coeff=RF_ONE):
        exps = [0] * len(variables)
        exps[list(variables).index(name)] = 1
        return cls(variables, {tuple(exps): coeff})

    @classmethod
    def monomial(cls, variables, exps, coeff):
        return cls(variables, {tuple(exps): coeff})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, MultiPolynomial)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def _check(self, other):
        if self.variables != other.variables:
            raise InputError("polynomials over different variable lists")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, QPoly, RationalFunction)):
            other = MultiPolynomial.const(self.variables, other)
        self._check(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = terms.get(exps, RF_ZERO) + c
            if s:
                terms[exps] = s
            else:
                terms.pop(exps, None)
        return MultiPolynomial(self.variables, terms)

    def __neg__(self):
        return MultiPolynomial(
            self.variables, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)  # __add__ takes a constant too

    def __mul__(self, c):
        """Scale every coefficient by a constant of Q(t)."""
        c = _as_rational(c)
        return MultiPolynomial(
            self.variables, {e: a * c for e, a in self.terms.items()}
        )

    def restrict_univariate(self, name):
        """View as a RatPoly in one variable; fails if others occur."""
        i = self.variables.index(name)
        coeffs = {}
        for e, c in self.terms.items():
            if any(k for j, k in enumerate(e) if j != i):
                raise InputError("polynomial is not univariate in %s" % name)
            coeffs[e[i]] = c
        deg = max(coeffs, default=0)
        return RatPoly(name, [coeffs.get(k, RF_ZERO) for k in range(deg + 1)])

    def rename(self, mapping, variables):
        """New variable list; exponents moved through the name mapping."""
        idx = {name: i for i, name in enumerate(variables)}
        terms = {}
        for e, c in self.terms.items():
            new = [0] * len(variables)
            for i, k in enumerate(e):
                if k:
                    new[idx[mapping.get(self.variables[i], self.variables[i])]] += k
            key = tuple(new)
            s = terms.get(key, RF_ZERO) + c
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
        return MultiPolynomial(variables, terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[e]
            mono = "*".join(
                "%s^%d" % (v, k) if k > 1 else v
                for v, k in zip(self.variables, e)
                if k
            )
            cs = "(%r)" % c
            parts.append(cs + ("*" + mono if mono else ""))
        return " + ".join(parts)


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
