"""Exact kernel: Q[t] polynomials, canonical Q(t) pairs, truncated series."""

from fractions import Fraction

import pytest

from nchilbert.errors import InputError
from nchilbert.gsb import MonomialOrder, NCPolynomial
from nchilbert.ratfunc import QPoly, RationalFunction, TruncatedSeries
from nchilbert.words import Alphabet


def qp(*cs):
    return QPoly(tuple(Fraction(c) for c in cs))


def test_geometric_series():
    f = RationalFunction(qp(1), qp(1, -2))
    assert list(f.series(4).coeffs) == [1, 2, 4, 8, 16]


def test_free_algebra_series():
    f = RationalFunction(qp(1), qp(1, -4))
    assert list(f.series(3).coeffs) == [1, 4, 16, 64]


def test_palindrome_series():
    f = RationalFunction(qp(1, 2), qp(1, 0, -2))
    assert list(f.series(5).coeffs) == [1, 2, 2, 4, 4, 8]


def test_polynomial_series_cut_and_padded():
    f = RationalFunction(qp(1, -2, 0, 5, 7))
    assert f.series(2) == TruncatedSeries((1, -2, 0), 2)
    assert f.series(6) == TruncatedSeries((1, -2, 0, 5, 7, 0, 0), 6)
    assert RationalFunction(qp()).series(1) == TruncatedSeries((0, 0), 1)


def test_rational_eval_series_pole():
    f = RationalFunction(qp(1), qp(0, 1))
    with pytest.raises(InputError):
        f.series(3)


def test_rational_reduction_and_monic_denominator():
    f = RationalFunction(qp(0, 2, 2), qp(0, 4))  # (2t + 2t^2) / 4t
    assert f == RationalFunction(qp(1, 1), qp(2))
    assert f.den.coeffs[-1] == 1


def test_series_arith_div():
    one = TruncatedSeries.one(6)
    g = RationalFunction(qp(1), qp(1, -2)).series(6)
    assert one / g == RationalFunction(qp(1, -2)).series(6)


def test_series_div_by_zero_constant_term():
    a = TruncatedSeries.one(4)
    b = TruncatedSeries((0, 1, 0, 0, 0), 4)
    with pytest.raises(InputError):
        a / b


def test_series_inverse_roundtrip():
    s = TruncatedSeries((1, 3, 8, 22, 59), 4)
    prod = s * s.inverse()
    assert prod == TruncatedSeries.one(4)


def test_series_valuation():
    assert TruncatedSeries((0, 0, 5, 1), 3).valuation() == 2
    assert TruncatedSeries((0, 0, 0, 0), 3).valuation() is None


def test_qpoly_gcd():
    a = qp(-1, 0, 1)  # t^2 - 1
    b = qp(1, 1)      # t + 1
    g = a.gcd(b)
    assert g == b.monic()


def test_qpoly_division_is_exact():
    # integral coefficients are ints; a quotient that is not integral is a
    # Fraction, never a float
    p = QPoly((Fraction(4, 2), 1))
    assert [type(c) for c in p.coeffs] == [int, int]
    m = QPoly((1, 2)).monic()
    assert m.coeffs == (Fraction(1, 2), 1)
    assert [type(c) for c in m.coeffs] == [Fraction, int]
    q = QPoly((3,)) // QPoly((2,))
    assert q.coeffs == (Fraction(3, 2),) and type(q.coeffs[0]) is Fraction
    q, r = QPoly((2, 0, 4)).divmod(QPoly((1, 2)))
    assert (q.coeffs, r.coeffs) == ((-1, 2), (3,))
    assert all(type(c) is int for c in q.coeffs + r.coeffs)
    # series follow the same rule: 1/(1 - 2t) holds ints, 1/(2 - t) halves
    s = RationalFunction(qp(1), qp(1, -2)).series(6)
    assert all(type(c) is int for c in s.coeffs)
    s = RationalFunction(qp(1), qp(2, -1)).series(4)
    assert s.coeffs == tuple(Fraction(1, 2 ** (k + 1)) for k in range(5))
    assert all(type(c) is Fraction for c in s.coeffs)
    # RationalFunction.series is the series division of numerator by
    # denominator: on a polynomial, a constant denominator and a general pair
    for num, den in ((qp(1, -2, 0, 5), qp(1)), (qp(1, 1), qp(3)), (qp(2, 0, 1), qp(3, -1, 4))):
        got = RationalFunction(num, den).series(7)
        assert got == TruncatedSeries.from_counts(num.coeffs, 7) / TruncatedSeries.from_counts(
            den.coeffs, 7
        )
        assert not any(isinstance(c, float) for c in got.coeffs)
    # a free-algebra polynomial made monic divides exactly too
    alphabet = Alphabet(["x", "y"])
    p = NCPolynomial(alphabet, {b"\x00\x01": 2, b"\x01\x00": -1})
    m = p.monic(MonomialOrder(alphabet))
    assert m.terms == {b"\x00\x01": 1, b"\x01\x00": Fraction(-1, 2)}
    assert [type(c) for c in m.terms.values()] == [int, Fraction]
