"""Hilbert series of noncommutative monomial algebras.

Chain-language homology, unambiguous grammar enumeration, algebraic systems
in Z[t], lex Groebner elimination, and truncated Groebner-Shirshov bases,
all in exact rational arithmetic.
"""

from .errors import (
    BoundError,
    DivergenceError,
    EliminationError,
    InputError,
    MismatchError,
    NchilbertError,
    ResourceCapError,
    RootMismatchError,
)
from .words import (
    Alphabet,
    FiniteLanguage,
    TruncatedLanguage,
    full_language,
    is_antichain,
    minimize_antichain,
    parse_language_file,
    trunc_boolean,
    trunc_ideal,
    trunc_product,
)
from .grammar import (
    CFGrammar,
    certify_unambiguous,
    count_derivations,
    enumerate_words,
    format_grammar,
    parse_grammar,
)
from .regular import (
    DFA,
    RegularLanguageHandle,
    ideal_automaton,
    myhill_nerode_grammar,
    right_quotient,
)
from .ratfunc import QPoly, RationalFunction, TruncatedSeries
from .multipoly import RatPoly
from .groebner import assert_groebner, buchberger_lex, eliminate_univariate
from .newton import newton_series, reciprocal_poly
from .csys import build_system, gamma_algebraic, gamma_linear
from .homology import (
    HomologySpec,
    PatternFamily,
    RelationSet,
    Uchain2Spec,
    chains_finite,
    govorov_chains_trunc,
    hilbert_from_homology,
    hilbert_oracle,
    overlap_language,
    parse_homology_spec,
    parse_relation_file,
)
from .gsb import (
    MonomialOrder,
    NCPolynomial,
    compare_leading,
    gs_complete,
    leading_language,
    nc_reduce,
    parse_presentation,
)
from .examples import run_example

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
