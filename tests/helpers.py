"""Reference routines that only the tests use: the straightforward
definitions that the library's routes are checked against."""

from nchilbert.grammar import count_derivations
from nchilbert.ratfunc import TruncatedSeries


def is_normal(word, basis):
    """True iff no basis element occurs as a contiguous factor of word."""
    return not any(v in word for v in basis.words)


def solution_series(g, d):
    """One counting series per unknown, straight from derivation counts."""
    counts = count_derivations(g, d)
    return {
        name: TruncatedSeries(counts[j], d)
        for j, name in enumerate(g.variables.symbols)
    }


def residual_series(system, assignment, d):
    """Every equation with a truncated series substituted for each unknown;
    all-zero means consistency."""
    out = []
    for eq in system.equations:
        total = TruncatedSeries([0] * (d + 1), d)
        for e, c in eq.items():
            term = TruncatedSeries.from_counts(c.coeffs, d)
            for name, k in zip(system.unknowns, e):
                for _ in range(k):
                    term = term * assignment[name]
            total = total + term
        out.append(total)
    return out
