"""Power-series roots of univariate polynomials over Q(t), checked on their
cleared form in Z[t][H].

`newton_series` is the one place where a series is paired with the
polynomial it solves, and it ends in one residual check.  Let h be the
series exact to degree D, zero-padded past it, and v = val(q'(h)) <= D.
If q(h) = 0 mod t^(D+v+1), then by Newton's lemma h is exact to degree D,
and the root it approximates is the only one agreeing with h to degree v.
Tracking v matters because the quadratics of Euler-characteristic systems
often have a double root at t = 0.
"""

from __future__ import annotations

from .errors import RootMismatchError
from .groebner import reduce_poly
from .multipoly import RatPoly, primitive_terms
from .ratfunc import QPoly, TruncatedSeries

_ZERO = QPoly()


def reciprocal_poly(p, var="H"):
    """q(H) = H^deg(p) * p(1/H): coefficient reversal."""
    if not p:
        raise RootMismatchError("reciprocal of the zero polynomial")
    return RatPoly(var, list(reversed(p.coeffs)))


def newton_series(q, series_at, d):
    """The root of q whose exact expansion to degree D is series_at(D),
    checked against q and returned to degree d.

    The check needs v <= D, and v can exceed d (it is 2 to 6 for the
    Hilbert polynomials).  So D starts at d and grows to 2D + 1 until q'(h)
    has a valuation, but not past (2n - 1)m for the cleared q of degree n
    with coefficients of t-degree <= m.  That bounds v for a squarefree q:
    Res(q, q') = Aq + Bq' with A, B in Q[t][H], so v is at most
    val Res(q, q') <= (2n - 1)m.  So if q'(h) still vanishes at the bound,
    h can only be a repeated root of q, hence a root of gcd(q, q'), and q is
    replaced by that gcd until its derivative has a valuation at h; a
    constant gcd means h is no root.  The check stays sound, since a root of
    a factor of q is a root of q, and a failed residual needs no retry for
    the same reason.  A factor's t-degrees are at most q's, so the bound
    holds for it too.
    """
    q = q.cleared()  # monic coefficients may carry poles at t = 0
    if q.degree < 1:
        raise RootMismatchError("polynomial has no root")
    qd = q.derivative()
    bound = (2 * q.degree - 1) * max(c.num.degree for c in q.coeffs)
    D = d
    h = series_at(D)
    v = qd.eval_series(h, D).valuation()
    while v is None and D < bound:
        D = min(2 * D + 1, bound)
        h = series_at(D)
        v = qd.eval_series(h, D).valuation()
    while v is None:
        q = _gcd_with_derivative(q)
        if q.degree < 1:
            raise RootMismatchError("derivative vanishes to degree %d" % D)
        v = q.derivative().eval_series(h, D).valuation()
    n = D + v
    bad = q.eval_series(TruncatedSeries.from_counts(h.coeffs, n), n).valuation()
    if bad is not None:
        raise RootMismatchError("series is not a root (residual at degree %d)" % bad)
    return TruncatedSeries(h.coeffs, d)


def _gcd_with_derivative(q):
    """gcd(q, q') of the cleared q in Z[t][H], cleared: the primitive
    pseudo-remainder sequence that `reduce_poly` steps on univariate term
    dicts."""
    a = {(k,): c.znum for k, c in enumerate(q.coeffs) if c}
    b = {(k - 1,): c * k for (k,), c in a.items() if k}
    while b:
        a, b = b, reduce_poly(a, [b])
    a = primitive_terms(a)
    return RatPoly(q.var, [a.get((k,), _ZERO) for k in range(max(a)[0] + 1)])
