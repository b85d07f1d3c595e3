"""Exact arithmetic: Q[t] polynomials, elements of Q(t) as canonical pairs
in Z[t], and degree-truncated power series over Q.

One number rule holds for every exact rational of the package: `_rational`
stores an integral value as a Python int and any other as a Fraction, and
`_qdiv` divides two of them exactly, never giving a float.  So integer
series and the pairs of Q(t) run on ints; a Fraction appears only where a
value is not integral.  Q(t) has no arithmetic here: an eliminant's
operations run fraction-free in Z[t], and a `RationalFunction` is only
normalised, compared and expanded into a series."""

from __future__ import annotations

from fractions import Fraction
from itertools import starmap, zip_longest
from math import gcd, lcm
from operator import add, sub

from .errors import InputError


def _rational(c):
    """c as an exact rational: an int when it is integral, else a Fraction."""
    if type(c) is not int:
        if not isinstance(c, Fraction):
            c = Fraction(c)
        if c.denominator == 1:
            return c.numerator
    return c


def _qdiv(a, b):
    """a / b in Q, exactly: an int when it is integral, never a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _rational(Fraction(a, b))


class QPoly:
    """Dense univariate polynomial in t with exact rational coefficients:
    an integral coefficient is an int, any other a Fraction."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(map(_rational, coeffs))

    @classmethod
    def const(cls, c):
        return cls((c,))

    @classmethod
    def t_power(cls, k, c=1):
        return cls((0,) * k + (c,))

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
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __add__(self, other, op=add):
        if not isinstance(other, QPoly):
            other = QPoly((other,))
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return QPoly(tuple(starmap(op, pairs)))

    def __neg__(self):
        return QPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self.__add__(other, sub)

    def __mul__(self, other):
        if not isinstance(other, QPoly):
            return QPoly(tuple(c * other for c in self.coeffs))
        if not self or not other:
            return QPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return QPoly(out)

    def divmod(self, other):
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [0] * max(len(rem) - len(other.coeffs) + 1, 0)
        dlead = other.coeffs[-1]
        dn = len(other.coeffs)
        while len(rem) >= dn:
            c = _qdiv(rem[-1], dlead)
            k = len(rem) - dn
            q[k] = c
            for i, b in enumerate(other.coeffs):
                rem[k + i] -= c * b
            while rem and not rem[-1]:
                rem.pop()
        return QPoly(q), QPoly(rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self):
        if not self:
            return self
        lead = self.coeffs[-1]
        return QPoly(tuple(_qdiv(c, lead) for c in self.coeffs))

    def gcd(self, other):
        """Monic gcd by the primitive pseudo-remainder sequence over Z (Collins
        1967; Brown & Traub 1971): only the result is divided in Q."""
        if not self or not other:
            return (self or other).monic()
        a, b = primitive_part(self.coeffs), primitive_part(other.coeffs)
        if len(a) < len(b):
            a, b = b, a
        while len(b) > 1:
            n = len(b) - 1
            while len(a) > n:  # a becomes an integer multiple of a mod b
                c = a.pop()
                g = gcd(c, b[-1])
                m, c, k = b[-1] // g, c // g, len(a) - n
                a = [x * m for x in a]
                for i in range(n):
                    a[k + i] -= c * b[i]
                while a and not a[-1]:
                    a.pop()
            a, b = b, primitive_part(a) if a else []
        g = b or a  # a nonzero constant remainder is [1]: the gcd is 1
        return QPoly(tuple(_qdiv(c, g[-1]) for c in g))

    def derivative(self):
        return QPoly(tuple(i * self.coeffs[i] for i in range(1, len(self.coeffs))))

    def __repr__(self):
        return "QPoly(%s)" % format_qpoly(self)


def primitive_part(coeffs):
    """The primitive integer coefficients, leading one positive, of a
    nonzero polynomial that the rational `coeffs` give up to a scalar."""
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
    return [c // g for c in ints]


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


class RationalFunction:
    """Element of Q(t), kept as a reduced pair of integer polynomials.

    Every instance holds znum/zden in Z[t] with int coefficients, coprime in
    Z[t] (no common factor of positive degree and no common integer factor),
    zden's leading coefficient positive.  The form is canonical, so `==` and
    `hash` compare the pair.  The constructor normalises its input: the
    gcd is `QPoly.gcd`'s, made primitive, each cofactor an exact division in
    Z[t], and a last integer gcd takes out the common content.  `num` and
    `den` read the same element as a reduced fraction over Q with a monic
    denominator.
    """

    __slots__ = ("znum", "zden")

    def __init__(self, num, den=1):
        num, den = _as_qpoly(num), _as_qpoly(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        m = lcm(*(c.denominator for c in num.coeffs + den.coeffs))
        if m != 1:
            num = QPoly(c.numerator * (m // c.denominator) for c in num.coeffs)
            den = QPoly(c.numerator * (m // c.denominator) for c in den.coeffs)
        g = _zgcd(num, den)
        if g is not None:
            num, den = num // g, den // g
        k = gcd(*num.coeffs, *den.coeffs)
        if den.coeffs[-1] < 0:
            k = -k
        if k != 1:
            num = QPoly(c // k for c in num.coeffs)
            den = QPoly(c // k for c in den.coeffs)
        self.znum, self.zden = num, den

    @property
    def num(self):
        lead = self.zden.coeffs[-1]
        if lead == 1:
            return self.znum
        return QPoly(_qdiv(c, lead) for c in self.znum.coeffs)

    @property
    def den(self):
        return self.zden.monic()

    def is_polynomial(self):
        return self.zden.degree == 0

    def __bool__(self):
        return bool(self.znum)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.znum.coeffs == other.znum.coeffs and self.zden.coeffs == other.zden.coeffs

    def __hash__(self):
        return hash((self.znum.coeffs, self.zden.coeffs))

    def series(self, d):
        """Maclaurin expansion to degree d; needs no pole at t = 0."""
        if not self.zden.coeffs[0]:
            raise InputError("pole at t = 0; no power series expansion")
        return TruncatedSeries.from_counts(self.znum.coeffs, d) / TruncatedSeries.from_counts(
            self.zden.coeffs, d
        )

    def __repr__(self):
        if self.is_polynomial():
            return format_qpoly(self.num)
        return "(%s)/(%s)" % (format_qpoly(self.num), format_qpoly(self.den))


def _as_qpoly(x):
    return x if isinstance(x, QPoly) else QPoly.const(x)


def _zgcd(p, q):
    """Primitive gcd, leading coefficient positive, of the integer
    polynomials p and q (q nonzero), or None when it is 1.  A nonzero
    constant shares no factor of positive degree with anything, so it needs
    no remainder sequence."""
    if p.degree == 0 or q.degree == 0:
        return None
    g = p.gcd(q)
    return None if g.degree == 0 else QPoly(primitive_part(g.coeffs))


class TruncatedSeries:
    """Power series known exactly up to and including degree d, with exact
    rational coefficients: an integral coefficient is an int, any other a
    Fraction."""

    __slots__ = ("coeffs", "d")

    def __init__(self, coeffs, d):
        coeffs = list(coeffs)
        if len(coeffs) < d + 1:
            raise InputError("series shorter than its bound")
        self.coeffs = tuple(map(_rational, coeffs[: d + 1]))
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
        return self.coeffs[k] if k >= 0 else 0

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
        d = min(self.d, other.d)
        return TruncatedSeries(
            [self.coeffs[i] + other.coeffs[i] for i in range(d + 1)], d
        )

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs], self.d)

    def __mul__(self, other):
        d = min(self.d, other.d)
        out = [0] * (d + 1)
        for i in range(d + 1):
            a = self.coeffs[i]
            if a:
                for j in range(d + 1 - i):
                    out[i + j] += a * other.coeffs[j]
        return TruncatedSeries(out, d)

    def __truediv__(self, other):
        """The quotient to the lower bound; the inner loop stops at the
        divisor's last nonzero coefficient, so dividing by a polynomial of
        degree m costs O(m) per coefficient."""
        den = other.coeffs
        if den[0] == 0:
            raise InputError("division by a series with zero constant term")
        d = min(self.d, other.d)
        last = max(j for j in range(d + 1) if den[j])
        out = []
        for k in range(d + 1):
            c = self.coeffs[k]
            for j in range(1, min(k, last) + 1):
                c -= den[j] * out[k - j]
            out.append(_qdiv(c, den[0]))
        return TruncatedSeries(out, d)

    def inverse(self):
        return TruncatedSeries.one(self.d) / self

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[: min(self.d, 10) + 1])
        return "TruncatedSeries([%s]%s, d=%d)" % (
            shown,
            "..." if self.d > 10 else "",
            self.d,
        )
