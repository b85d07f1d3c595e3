"""Exact arithmetic: Q[t] polynomials, the rational function field Q(t) and
degree-truncated power series over Q."""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError

ZERO = Fraction(0)
ONE = Fraction(1)


class QPoly:
    """Dense univariate polynomial in t with exact rational coefficients.

    The arithmetic works over any coefficient field: a subclass sets the
    zero element `_zero`, the coefficient coercion `_coeff` and `_new`,
    which builds a result of its own type.
    """

    __slots__ = ("coeffs",)
    _zero = ZERO
    _coeff = Fraction

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(map(self._coeff, coeffs))

    def _new(self, coeffs):
        return QPoly(coeffs)

    @classmethod
    def const(cls, c):
        return cls((Fraction(c),))

    @classmethod
    def t_power(cls, k, c=1):
        return cls((0,) * k + (Fraction(c),))

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly.const(other)
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __getitem__(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else self._zero

    def __add__(self, other):
        if not isinstance(other, type(self)):
            other = self._new((other,))
        n = max(len(self.coeffs), len(other.coeffs))
        return self._new(tuple(self[i] + other[i] for i in range(n)))

    __radd__ = __add__

    def __neg__(self):
        return self._new(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            return self._new(tuple(c * other for c in self.coeffs))
        if not self or not other:
            return self._new(())
        out = [self._zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return self._new(out)

    __rmul__ = __mul__

    def divmod(self, other):
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [self._zero] * max(len(rem) - len(other.coeffs) + 1, 0)
        dlead = other.coeffs[-1]
        dn = len(other.coeffs)
        while len(rem) >= dn:
            c = rem[-1] / dlead
            k = len(rem) - dn
            q[k] = c
            for i, b in enumerate(other.coeffs):
                rem[k + i] -= c * b
            while rem and not rem[-1]:
                rem.pop()
        return self._new(q), self._new(rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self):
        if not self:
            return self
        lead = self.coeffs[-1]
        return self._new(tuple(c / lead for c in self.coeffs))

    def gcd(self, other):
        a, b = self, other
        while b:
            a, b = b, a % b
        return a.monic()

    def derivative(self):
        return self._new(tuple(i * self.coeffs[i] for i in range(1, len(self.coeffs))))

    def __repr__(self):
        return "QPoly(%s)" % format_qpoly(self)


def format_qpoly(p, var="t"):
    if not p:
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p[k]
        if not c:
            continue
        if k == 0:
            mono = str(c)
        else:
            tpow = var if k == 1 else "%s^%d" % (var, k)
            if c == 1:
                mono = tpow
            elif c == -1:
                mono = "-" + tpow
            else:
                mono = "%s*%s" % (c, tpow)
        parts.append(mono)
    out = parts[0]
    for mono in parts[1:]:
        out += " - " + mono[1:] if mono.startswith("-") else " + " + mono
    return out


T = QPoly.t_power(1)


class RationalFunction:
    """Element of Q(t), kept reduced with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = QPoly.const(num)
        if den is None:
            den = QPoly.const(1)
        elif isinstance(den, (int, Fraction)):
            den = QPoly.const(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        g = num.gcd(den)
        if g:
            num, den = num // g, den // g
        lead = den.coeffs[-1]
        if lead != 1:
            num = num * (ONE / lead)
            den = den.monic()
        self.num = num
        self.den = den

    @classmethod
    def const(cls, c):
        return cls(QPoly.const(c))

    @classmethod
    def t_power(cls, k, c=1):
        return cls(QPoly.t_power(k, c))

    def is_polynomial(self):
        return self.den == QPoly.const(1)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def inverse(self):
        return RationalFunction(self.den, self.num)

    def series(self, d):
        """Maclaurin expansion to degree d; needs no pole at t = 0."""
        if self.den[0] == 0:
            raise InputError("pole at t = 0; no power series expansion")
        num = TruncatedSeries.from_counts(self.num.coeffs, d)
        return num / TruncatedSeries.from_counts(self.den.coeffs, d)

    def __repr__(self):
        if self.is_polynomial():
            return format_qpoly(self.num)
        return "(%s)/(%s)" % (format_qpoly(self.num), format_qpoly(self.den))


def _coerce(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, (int, Fraction)):
        return RationalFunction.const(x)
    if type(x) is QPoly:  # a RatPoly is a polynomial over Q(t), not in Q[t]
        return RationalFunction(x)
    return None


RF_ZERO = RationalFunction.const(0)
RF_ONE = RationalFunction.const(1)
RF_T = RationalFunction.t_power(1)


class TruncatedSeries:
    """Power series known exactly up to and including degree d."""

    __slots__ = ("coeffs", "d")

    def __init__(self, coeffs, d):
        coeffs = list(coeffs)
        if len(coeffs) < d + 1:
            raise InputError("series shorter than its bound")
        self.coeffs = tuple(Fraction(c) for c in coeffs[: d + 1])
        self.d = d

    @classmethod
    def from_counts(cls, counts, d=None):
        d = len(counts) - 1 if d is None else d
        return cls(list(counts) + [0] * (d + 1 - len(counts)), d)

    @classmethod
    def one(cls, d):
        return cls([1] + [0] * d, d)

    def __getitem__(self, k):
        if k > self.d:
            raise InputError("coefficient %d beyond exactness bound %d" % (k, self.d))
        return self.coeffs[k] if k >= 0 else ZERO

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.d == other.d
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.coeffs, self.d))

    def prefix_equals(self, other, upto=None):
        k = min(self.d, other.d) if upto is None else upto
        return self.coeffs[: k + 1] == other.coeffs[: k + 1]

    def valuation(self):
        """Order of the lowest nonzero coefficient; None when all known are 0."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def __add__(self, other):
        other = self._coerce(other)
        d = min(self.d, other.d)
        return TruncatedSeries(
            [self.coeffs[i] + other.coeffs[i] for i in range(d + 1)], d
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs], self.d)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        d = min(self.d, other.d)
        out = [ZERO] * (d + 1)
        for i in range(d + 1):
            a = self.coeffs[i]
            if a:
                for j in range(d + 1 - i):
                    out[i + j] += a * other.coeffs[j]
        return TruncatedSeries(out, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.coeffs[0] == 0:
            raise InputError("division by a series with zero constant term")
        d = min(self.d, other.d)
        out = []
        for k in range(d + 1):
            c = self.coeffs[k]
            for j in range(1, k + 1):
                c -= other.coeffs[j] * out[k - j]
            out.append(c / other.coeffs[0])
        return TruncatedSeries(out, d)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def inverse(self):
        return TruncatedSeries.one(self.d) / self

    def _coerce(self, other):
        if isinstance(other, TruncatedSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries([other] + [0] * self.d, self.d)
        if type(other) is QPoly:
            return RationalFunction(other).series(self.d)
        if isinstance(other, RationalFunction):
            return other.series(self.d)
        raise InputError("cannot combine series with %r" % (other,))

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[: min(self.d, 10) + 1])
        return "TruncatedSeries([%s]%s, d=%d)" % (
            shown,
            "..." if self.d > 10 else "",
            self.d,
        )
