"""Exact combinatorics of words and finite/truncated languages.

Words are stored as ``bytes``: each byte is the position of a symbol in the
owning :class:`Alphabet`.  The empty word is ``b""`` and its text form is
``eps``.  Canonical word order is length first, then position-lexicographic,
which for equal lengths coincides with the natural byte order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby, product, starmap
from operator import add

from .errors import BoundError, InputError

Word = bytes

EMPTY: Word = b""

MAX_LETTERS = 255  # an Alphabet's largest size: a letter is one byte

WORD_KEY = lambda w: (len(w), w)  # noqa: E731  - canonical order, used everywhere


class Alphabet:
    """Ordered list of distinct symbol names; order fixes all tie-breaking."""

    def __init__(self, symbols):
        symbols = list(symbols)
        if len(set(symbols)) != len(symbols):
            raise InputError("duplicate symbols in alphabet: %r" % (symbols,))
        for s in symbols:
            if not s or any(c.isspace() for c in s):
                raise InputError("bad symbol name: %r" % (s,))
        if len(symbols) > MAX_LETTERS:
            raise InputError("alphabet too large (max %d symbols)" % MAX_LETTERS)
        self.symbols = tuple(symbols)
        self._index = {s: i for i, s in enumerate(symbols)}

    @property
    def size(self):
        return len(self.symbols)

    def __len__(self):
        return len(self.symbols)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self):
        return hash(self.symbols)

    def __repr__(self):
        return "Alphabet(%s)" % " ".join(self.symbols)

    def index(self, symbol):
        try:
            return self._index[symbol]
        except KeyError:
            raise InputError("unknown symbol %r" % (symbol,)) from None

    def word(self, text):
        """Parse a word from its text form (symbols split on whitespace)."""
        text = text.strip()
        if text == "eps" or not text:
            return EMPTY
        return bytes(self.index(tok) for tok in text.split())

    def text(self, word):
        """Text form of a word; the empty word prints as ``eps``."""
        if not word:
            return "eps"
        return " ".join(self.symbols[b] for b in word)

    def union(self, other):
        """Disjoint union; rejects symbol-name collisions."""
        common = set(self.symbols) & set(other.symbols)
        if common:
            raise InputError("alphabets overlap on %s" % sorted(common))
        return Alphabet(self.symbols + other.symbols)


@dataclass(frozen=True)
class FiniteLanguage:
    """Finite set of words with deterministic canonical iteration order."""

    alphabet: Alphabet
    words: frozenset = field(default_factory=frozenset)

    @classmethod
    def from_texts(cls, alphabet, texts):
        return cls(alphabet, frozenset(alphabet.word(s) for s in texts))

    def sorted_words(self):
        return sorted(self.words, key=WORD_KEY)

    def texts(self):
        return [self.alphabet.text(w) for w in self.sorted_words()]

    def __contains__(self, word):
        return word in self.words

    def __len__(self):
        return len(self.words)

    def min_length(self):
        """Length of the shortest word; None when empty."""
        return min((len(w) for w in self.words), default=None)


@dataclass(frozen=True)
class TruncatedLanguage:
    """Window of a (possibly infinite) language: all its words of length <= d.

    The bound ``d`` is a promise of exactness: every word of the underlying
    language with length <= d is present, and nothing else is.
    """

    alphabet: Alphabet
    d: int
    words: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.d < 0:
            raise InputError("negative degree bound")
        if max(map(len, self.words), default=0) > self.d:
            raise InputError("word longer than the declared bound")

    @classmethod
    def _built(cls, alphabet, d, words, by_length=None):
        """A window whose words are no longer than d by construction: no length
        walk.  `by_length`, when given, is taken as the window's `by_length`."""
        if d < 0:
            raise InputError("negative degree bound")
        lang = object.__new__(cls)
        lang.__dict__.update(alphabet=alphabet, d=d, words=words)
        if by_length is not None:
            lang.__dict__["by_length"] = by_length
        return lang

    def __len__(self):
        return len(self.words)

    @cached_property
    def by_length(self):
        """Each length that has words to the words of that length, computed once."""
        return {n: list(ws) for n, ws in groupby(sorted(self.words, key=len), len)}

    def counts(self, d=None):
        """Number of words per length, indices 0..d."""
        d = self.d if d is None else d
        if d > self.d:
            raise BoundError("counts requested beyond the exactness bound")
        return [len(self.by_length.get(n, ())) for n in range(d + 1)]

    def min_length_bound(self):
        """Lower bound for the minimum word length of the underlying language.

        Exact when the window is nonempty (truncation keeps all short words);
        otherwise every word is longer than d, so d+1 is a valid bound.
        """
        return min(self.by_length, default=self.d + 1)


def minimize_antichain(lang):
    """Drop every word containing another (distinct) word of the set as a factor.

    The result is the unique minimal monomial basis of the ideal generated by
    the input.
    """
    kept = []
    for w in lang.sorted_words():  # shorter words first: they can only survive
        if not any(v in w for v in kept):  # v is no longer than w and not w
            kept.append(w)
    return FiniteLanguage(lang.alphabet, frozenset(kept))


def is_antichain(lang):
    """No word is a factor of another: each occurs once in the words joined by
    byte 255, which no letter is (MAX_LETTERS), so no occurrence spans a join."""
    joined = b"\xff".join(lang.words)
    return all(joined.count(w) == 1 for w in lang.words)


def full_language(alphabet, d):
    """All words of length <= d, as a truncated language, one length layer
    extending the last."""
    letters = [bytes([i]) for i in range(alphabet.size)]
    layers = [[EMPTY]]
    for _ in range(d):
        layers.append(list(starmap(add, product(layers[-1], letters))))
    return TruncatedLanguage._built(
        alphabet, d, frozenset().union(*layers),
        {n: layer for n, layer in enumerate(layers) if layer},
    )


def trunc_product(a, b, d):
    """Bounded concatenation {uv : u in a, v in b, |uv| <= d}, exact to d.

    Exactness demands that no word of the true product of length <= d needs a
    factor longer than the operand's window: we require a.d >= d - min_b and
    b.d >= d - min_a, where min_a/min_b bound the minimum word lengths of the
    true factor languages (min_length_bound of each window).
    """
    if a.alphabet != b.alphabet:
        raise InputError("product of languages over different alphabets")
    min_a, min_b = a.min_length_bound(), b.min_length_bound()
    if a.d < d - min_b or b.d < d - min_a:
        raise BoundError(
            "product to degree %d needs factor windows of at least %d and %d "
            "(got %d and %d)" % (d, d - min_b, d - min_a, a.d, b.d)
        )
    out = set()
    for la, words_a in a.by_length.items():
        for lb, words_b in b.by_length.items():
            if la + lb <= d:
                out.update(starmap(add, product(words_a, words_b)))
    return TruncatedLanguage._built(a.alphabet, d, frozenset(out))


def trunc_ideal(basis, d):
    """All words of length <= d containing some basis element as a factor.

    Built one length layer at a time: a word lies in the ideal iff it
    begins with a basis word or its tail w[1:] lies in the ideal, and it
    begins with a basis word iff w[:-1] does or it is one.  A basis holding
    eps gives every word; a basis with no word of length <= d gives the
    empty set.
    """
    if basis.d < d:
        raise BoundError("ideal to degree %d from a basis window of %d" % (d, basis.d))
    letters = [bytes([i]) for i in range(basis.alphabet.size)]
    heads, layer, layers = set(), [], []  # heads: begin with a basis word
    for n in range(d + 1):
        heads = set(starmap(add, product(heads, letters)))
        heads.update(basis.by_length.get(n, ()))
        layer = list(heads.union(starmap(add, product(letters, layer))))
        layers.append(layer)
    return TruncatedLanguage._built(basis.alphabet, d, frozenset().union(*layers))


def trunc_boolean(a, b):
    """Set-theoretic intersection, exact to the common bound."""
    if a.alphabet != b.alphabet:
        raise InputError("boolean operation over different alphabets")
    d = min(a.d, b.d)
    wa, wb = (
        lang.words if lang.d == d else {w for w in lang.words if len(w) <= d}
        for lang in (a, b)
    )
    return TruncatedLanguage._built(a.alphabet, d, frozenset(wa & wb))


def content_lines(text):
    """Each line of text with its ``#`` comment cut and its ends stripped;
    blank lines are skipped.  Every input format reads its lines this way."""
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            yield line


def alphabet_file(text, what):
    """(Alphabet, the other content lines) of a file whose first content line
    is its one ``alphabet:`` line; `what` names the format in the error."""
    first, *rest = list(content_lines(text)) or [""]
    if not first.lower().startswith("alphabet:"):
        raise InputError("%s must start with an alphabet: line" % what)
    for line in rest:
        if line.lower().startswith("alphabet:"):
            raise InputError("repeated alphabet: line %r" % line)
    return Alphabet(first.split(":", 1)[1].split()), rest


def parse_language_file(text, alphabet):
    """One word per line; ``#`` starts a comment; ``eps`` is the empty word."""
    return FiniteLanguage.from_texts(alphabet, content_lines(text))
