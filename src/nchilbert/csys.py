"""From grammars to algebraic systems in Z[t] and back to counting series.

Each production contributes its commutative image: terminals become t, the
variable multiset survives.  For an unambiguous grammar the tuple of counting
series of the variables solves the system, so eliminating down to the start
unknown yields a polynomial annihilating the language's generating function.
"""

from __future__ import annotations

from .errors import InputError
from .grammar import count_derivations, certify_unambiguous
from .groebner import eliminate_univariate
from .newton import newton_series
from .ratfunc import QPoly, RationalFunction, TruncatedSeries

DEFAULT_CERT_DEG = 12


class AlgebraicSystem:
    __slots__ = ("unknowns", "equations")

    def __init__(self, unknowns, equations):
        self.unknowns = unknowns  # the head of each equation
        # one term dict per unknown, slot j for unknowns[j]: {exponents: QPoly}
        self.equations = equations


def build_system(g, root=None):
    """One unknown per variable of `g.reached_from(root)`, root the start by
    default, whose equation is the unknown minus each body's commutative
    image, t^(#terminals) times its unknowns, as a term dict with no zero term.
    An unproductive variable's series is 0, so it is no unknown and a body
    that uses it is dropped; an unproductive start is an InputError.  A
    variable that root does not reach is no unknown either, so its equation
    cannot make the system inconsistent."""
    if g.start not in g.productive:
        raise InputError(
            "start variable %s derives no word" % g.variables.symbols[g.start]
        )
    productive = sorted(g.reached_from(g.start if root is None else root))
    names = tuple(g.variables.symbols[j] for j in productive)
    n = g.n
    slot = {n + j: i for i, j in enumerate(productive)}
    by_var = g.by_variable()
    equations = []
    for i, j in enumerate(productive):
        terms = {tuple(int(m == i) for m in range(len(names))): QPoly.const(1)}
        for rhs in by_var[j]:
            if all(s < n or s in slot for s in rhs):
                exps = [0] * len(names)
                for s in rhs:
                    if s >= n:
                        exps[slot[s]] += 1
                key, t_deg = tuple(exps), len(rhs) - sum(exps)
                terms[key] = terms.get(key, QPoly()) - QPoly.t_power(t_deg)
        equations.append({e: c for e, c in terms.items() if c})
    return AlgebraicSystem(names, tuple(equations))


def gamma_linear(g):
    """Rational counting series of a grammar whose system is linear in the
    unknowns (right-linear and general linear grammars alike).

    The start unknown is eliminated as in gamma_algebraic, so the result
    passes assert_groebner and the run is bounded by Buchberger's pair cap
    (2000 S-pairs reduced; the pairs its criteria skip are not counted).  A
    linear system leaves p1*S + p0 with p0, p1 in Z[t], and its root
    -p0/p1 is the series; any other degree raises InputError.
    """
    system = build_system(g)
    poly = eliminate_univariate(system, g.variables.symbols[g.start])
    if poly.degree != 1:
        raise InputError(
            "start unknown's polynomial has degree %d; a linear grammar gives 1"
            % poly.degree
        )
    return RationalFunction(-poly[0].znum, poly[1].znum)


class GammaResult:
    __slots__ = ("poly", "series", "cert_bound", "certified", "counterexample")

    def __init__(self, poly, series, cert_bound, certified, counterexample):
        self.poly = poly  # the elimination ideal's generator in the kept unknown, cleared
        self.series, self.cert_bound = series, cert_bound
        self.certified, self.counterexample = certified, counterexample


def gamma_algebraic(g, d, cert_deg=DEFAULT_CERT_DEG, keep=None):
    """The eliminant of the kept unknown, the start by default, and its
    certified series.

    The system and the derivation counts both run over the variables the
    kept unknown reaches.  The eliminant generates that system's elimination
    ideal; it annihilates the series but can be reducible.  The series is
    the counts to degree d, checked against the eliminant by newton_series's
    one residual test.
    """
    name = keep or g.variables.symbols[g.start]
    index = g.variables.index(name)  # InputError for an unknown variable
    system = build_system(g, index)
    if name not in system.unknowns:
        raise InputError("variable %s derives no word" % name)
    certified, witness = certify_unambiguous(g, cert_deg)
    poly = eliminate_univariate(system, name)
    series = newton_series(
        poly,
        lambda D: TruncatedSeries(count_derivations(g, D, index)[index], D),
        d,
    )
    return GammaResult(poly, series, cert_deg, certified, witness)

