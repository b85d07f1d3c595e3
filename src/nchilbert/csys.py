"""From grammars to algebraic systems over Q(t) and back to counting series.

Each production contributes its commutative image: terminals become t, the
variable multiset survives.  For an unambiguous grammar the tuple of counting
series of the variables solves the system, so eliminating down to the start
unknown yields a polynomial annihilating the language's generating function.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .grammar import count_derivations, certify_unambiguous, validate
from .groebner import eliminate_univariate
from .multipoly import MultiPolynomial, gaussian_solve
from .newton import newton_series
from .ratfunc import QPoly, RationalFunction, RF_ONE, RF_ZERO, TruncatedSeries

DEFAULT_CERT_DEG = 12


@dataclass(frozen=True)
class AlgebraicSystem:
    unknowns: tuple
    equations: tuple  # MultiPolynomial, one per unknown, A_i - sum of images
    grammar: object = None

    def equation_for(self, name):
        return self.equations[self.unknowns.index(name)]


def production_image(g, rhs, variables):
    """Commutative image of a right-hand side: t^(#terminals) * product of
    unknowns for the variables, in any order."""
    exps = [0] * len(variables)
    t_deg = 0
    for s in rhs:
        if g.is_var(s):
            exps[g.var_of(s)] += 1
        else:
            t_deg += 1
    coeff = RationalFunction(QPoly.t_power(t_deg)) if t_deg else RF_ONE
    return MultiPolynomial.monomial(variables, tuple(exps), coeff)


def build_system(g):
    names = g.variables.symbols
    by_var = g.by_variable()
    equations = []
    for j, name in enumerate(names):
        eq = MultiPolynomial.var(names, name)
        for rhs in by_var[j]:
            eq = eq - production_image(g, rhs, names)
        equations.append(eq)
    return AlgebraicSystem(tuple(names), tuple(equations), g)


def gamma_rational(g):
    """Counting series of a right-linear grammar as a rational function."""
    report = validate(g)
    if not report.is_right_linear:
        raise InputError("gamma_rational requires a right-linear grammar")
    return gamma_linear(g)


def gamma_linear(g):
    """Rational counting series of any grammar whose system is linear in the
    unknowns (right-linear and general linear grammars alike)."""
    system = build_system(g)
    names = system.unknowns
    m = len(names)
    matrix = [[RF_ZERO] * m for _ in range(m)]
    rhs = [RF_ZERO] * m
    for i, eq in enumerate(system.equations):
        for exps, c in eq.terms.items():
            total = sum(exps)
            if total == 0:
                rhs[i] = rhs[i] - c
            elif total == 1:
                j = next(k for k, e in enumerate(exps) if e)
                matrix[i][j] = matrix[i][j] + c
            else:
                raise InputError("nonlinear term in a right-linear system")
    sol = gaussian_solve(matrix, rhs)
    return sol[g.start]


@dataclass(frozen=True)
class GammaResult:
    poly: object  # RatPoly in the start unknown over Q(t), monic
    series: TruncatedSeries
    cert_bound: int
    certified: bool
    counterexample: object = None

    @property
    def status(self):
        if self.certified:
            return "certified to degree %d" % self.cert_bound
        return "unverified: grammar ambiguity not certified"


def gamma_algebraic(g, d, cert_deg=DEFAULT_CERT_DEG, keep=None):
    """Minimal polynomial of the start unknown plus its certified series.

    The series is the derivation counts to degree d.  newton_series checks
    them against the eliminated polynomial by one residual test, which fails
    if elimination returned a polynomial that does not annihilate them.
    """
    if g.start not in validate(g).productive:
        raise InputError(
            "start variable %s derives no word" % g.variables.symbols[g.start]
        )
    name = keep or g.variables.symbols[g.start]
    index = g.variables.index(name)  # InputError for an unknown variable
    certified, witness = certify_unambiguous(g, cert_deg)
    system = build_system(g)
    poly = eliminate_univariate(list(system.equations), name)
    series = newton_series(poly, count_derivations(g, d)[index], d)
    return GammaResult(poly, series, cert_deg, certified, witness)


def solution_series(g, d):
    """One counting series per unknown, straight from derivation counts."""
    counts = count_derivations(g, d)
    return {
        name: TruncatedSeries(counts[j], d)
        for j, name in enumerate(g.variables.symbols)
    }


def residual_series(system, assignment, d):
    """Evaluate every equation at the assignment; all-zero means consistency."""
    return [eq.eval_series(assignment, d) for eq in system.equations]
