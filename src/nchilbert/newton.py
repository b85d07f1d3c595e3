"""Power-series roots of univariate polynomials over Q(t).

`newton_series` is the one place where a series is paired with the
polynomial it solves, and it ends in one residual check.  Let h be the
series zero-padded past degree d and v = val(q'(h)), at most d; then
q(h) = 0 mod t^(d+v+1).  By Newton's lemma h is then exact to degree d,
and the root it approximates is the only one agreeing with h to degree v.

Pipelines that already hold the whole series (derivation counts, an
inverted E-series) go through `root_series`, which passes it in full and
long enough to reach v, so only the check runs.  A shorter seed is first
lifted coefficient by coefficient: with h agreeing with a root up to
t^(k-1), coefficient k is read off the residual at t^(k+v).
Tracking v matters because the quadratics of Euler-characteristic systems
often have a double root at t = 0, where plain Newton from the constant
seed stalls.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import RootMismatchError
from .multipoly import RatPoly
from .ratfunc import TruncatedSeries


def reciprocal_poly(p, var="H"):
    """q(H) = H^deg(p) * p(1/H): coefficient reversal."""
    if not p:
        raise RootMismatchError("reciprocal of the zero polynomial")
    return RatPoly(var, list(reversed(p.coeffs)))


def _as_prefix(seed):
    if isinstance(seed, TruncatedSeries):
        return list(seed.coeffs)
    return [Fraction(c) for c in seed]


def newton_series(q, seed, d):
    """The unique power-series root of q agreeing with the seed prefix, to
    degree d.  Falls back to the squarefree part before giving up."""
    try:
        return _lift(q, seed, d)
    except RootMismatchError:
        sf = q.squarefree_part()
        if sf.degree == q.degree:
            raise
        return _lift(sf, seed, d)


def root_series(q, series_at, d):
    """The root of q whose exact expansion to degree D is series_at(D),
    checked by newton_series and returned to degree d.

    The check needs v = val q'(h) <= D, and v can exceed d (it is 2 to 6
    for the Hilbert polynomials).  So D starts at d and grows to 2D + 1
    until q'(h) has a valuation, but not past (2n - 1)m for the cleared q
    of degree n with coefficients of t-degree <= m.  That bounds v for a
    squarefree q: Res(q, q') = Aq + Bq' with A, B in Q[t][H], so v is at
    most val Res(q, q') <= (2n - 1)m.  At the bound q'(h) can only vanish
    for a repeated root, which newton_series then handles.
    """
    qc = q.cleared()
    qd = qc.derivative()
    bound = (2 * qc.degree - 1) * max(c.num.degree for c in qc.coeffs)
    D = d
    h = series_at(D)
    while D < bound and qd.eval_series(h, D).valuation() is None:
        D = min(2 * D + 1, bound)
        h = series_at(D)
    return TruncatedSeries(newton_series(q, h, D).coeffs, d)


def _padded(coeffs, n):
    return TruncatedSeries(coeffs + [Fraction(0)] * (n + 1 - len(coeffs)), n)


def _derivative_valuation(qd, coeffs, d):
    v = qd.eval_series(_padded(coeffs, d), d).valuation()
    if v is None:
        raise RootMismatchError("derivative vanishes to degree %d at the seed" % d)
    return v


def _lift(q, seed, d):
    # monic coefficients may carry poles at t = 0; clearing fixes the roots
    q = q.cleared()
    coeffs = _as_prefix(seed)[: d + 1]
    if not coeffs:
        raise RootMismatchError("empty seed")
    if q.degree < 1:
        raise RootMismatchError("polynomial has no root")
    qd = q.derivative()
    if len(coeffs) <= d:
        # lift a short seed: coefficient k is read off the residual at t^(k+v)
        big = d + _derivative_valuation(qd, coeffs, d) + 1
        for k in range(len(coeffs), d + 1):
            h = _padded(coeffs, big)
            qv = q.eval_series(h, big)
            dv = qd.eval_series(h, big)
            v = dv.valuation()
            if v is None or k + v > big:
                raise RootMismatchError("derivative degenerates during lifting")
            coeffs.append(-qv[k + v] / dv[v])
    v = _derivative_valuation(qd, coeffs, d)
    bad = q.eval_series(_padded(coeffs, d + v), d + v).valuation()
    if bad is not None:
        raise RootMismatchError("series is not a root (residual at degree %d)" % bad)
    return TruncatedSeries(coeffs, d)
