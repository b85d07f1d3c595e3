"""Power-series roots of univariate polynomials over Q(t).

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
from .multipoly import RatPoly
from .ratfunc import TruncatedSeries


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
    val Res(q, q') <= (2n - 1)m.  If q'(h) still vanishes at the bound, h
    can only be a repeated root, and q's squarefree part is checked instead.
    A failed residual needs no such retry: a root of a factor of q is a
    root of q.
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
    if v is None:
        q = q.squarefree_part().cleared()
        v = q.derivative().eval_series(h, D).valuation()
        if v is None:
            raise RootMismatchError("derivative vanishes to degree %d" % D)
    n = D + v
    bad = q.eval_series(TruncatedSeries.from_counts(h.coeffs, n), n).valuation()
    if bad is not None:
        raise RootMismatchError("series is not a root (residual at degree %d)" % bad)
    return TruncatedSeries(h.coeffs, d)
