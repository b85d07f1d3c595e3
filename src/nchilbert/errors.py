"""Exception hierarchy shared by all modules."""


class NchilbertError(Exception):
    """Base class for all library errors."""


class InputError(NchilbertError):
    """Malformed input file or inconsistent user data."""


class BoundError(NchilbertError):
    """A truncated-language operation cannot guarantee exactness."""


class DivergenceError(NchilbertError):
    """Grammar has unit/epsilon derivation cycles; counting diverges."""


class ResourceCapError(NchilbertError):
    """A configured resource cap (states, words, terms) was exceeded."""


class EliminationError(NchilbertError):
    """No univariate member found in the elimination ideal."""


class RootMismatchError(NchilbertError):
    """No power-series root of the polynomial matches the seed."""


class MismatchError(NchilbertError):
    """A mathematical cross-check failed (oracle disagreement etc.)."""
