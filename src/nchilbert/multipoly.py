"""Multivariate and univariate polynomials over Q(t)."""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

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
            if not isinstance(c, RationalFunction):
                c = RationalFunction(c)
            if len(exps) != len(self.variables):
                raise InputError("exponent vector length mismatch")
            if c:
                clean[tuple(exps)] = c
        self.terms = clean

    @classmethod
    def const(cls, variables, c):
        exps = (0,) * len(variables)
        return cls(variables, {exps: RationalFunction(c) if not isinstance(c, RationalFunction) else c})

    @classmethod
    def var(cls, variables, name, coeff=None):
        exps = [0] * len(variables)
        exps[list(variables).index(name)] = 1
        return cls(variables, {tuple(exps): coeff if coeff is not None else RF_ONE})

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
        if isinstance(other, (int, Fraction, QPoly, RationalFunction)):
            other = MultiPolynomial.const(self.variables, other)
        return self + (-other)

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

    def eval_series(self, assignment, d):
        """Substitute a truncated series for every variable."""
        out = TruncatedSeries([0] * (d + 1), d)
        for e, c in self.terms.items():
            term = c.series(d)
            for i, k in enumerate(e):
                for _ in range(k):
                    term = term * assignment[self.variables[i]]
            out = out + term
        return out

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


def _zlcm(a, b):
    """A common multiple of a and b in Z[t]: a times b's cofactor of their
    primitive gcd."""
    return a * (b // QPoly(primitive_part(a.gcd(b).coeffs)))


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
        polynomials with no common polynomial factor, lex-leading one positive.
        The integer pairs are brought to a common denominator in Z[t]."""
        if not self:
            return self
        den = reduce(_zlcm, (c.zden for c in self.coeffs))
        polys = [c.znum * (den // c.zden) for c in self.coeffs]
        g = QPoly(primitive_part(reduce(QPoly.gcd, polys).coeffs))
        ints = iter(primitive_part([c for p in polys for c in (p // g).coeffs]))
        return RatPoly(
            self.var, [RationalFunction(QPoly([next(ints) for _ in p.coeffs])) for p in polys]
        )

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
