"""Chain languages of monomial algebras and the Hilbert series pipelines.

Two independent routes to the chain languages of a finite antichain: the
overlap recursion on chain elements (word plus split point), and Govorov's
ideal set-algebra formulas inside a degree window.  The formulas are
evaluated by membership: each candidate word, one that begins and ends with
a basis word, is tested against the ideal by the greedy-cut counts of the
word, its suffix, its prefix and its middle, from two scans per word, so no
power or product of the ideal is built.  The ideal, the candidates and their
counts are built once per (L1, d) and shared by every chain index.  The
routes must agree, and the acceptance suite leans on that.

The series pipeline assembles the Euler characteristic equation,
E = 1 - n*t + E_1 - E_2 + ... from per-chain descriptors or one equation for
a sandwich R * L * R', eliminates down to a univariate polynomial, and
checks the Hilbert series, the inverse of the E-series, as a root of the
reciprocal polynomial (newton_series) and against the normal-word oracle.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

from .csys import DEFAULT_CERT_DEG, AlgebraicSystem, build_system
from .errors import InputError, MismatchError
from .grammar import (
    CFGrammar,
    certify_unambiguous,
    count_derivations,
    enumerate_words,
    parse_grammar,
)
from .groebner import eliminate_univariate
from .multipoly import rename_terms
from .newton import newton_series, reciprocal_poly
from .ratfunc import QPoly, RationalFunction, TruncatedSeries
from .regular import ideal_automaton
from .words import (
    EMPTY,
    Alphabet,
    FiniteLanguage,
    TruncatedLanguage,
    WORD_KEY,
    alphabet_file,
    content_lines,
    full_language,
    is_antichain,
    parse_language_file,
    trunc_boolean,
    trunc_ideal,
    trunc_product,
)


@dataclass(frozen=True)
class ChainElement:
    """An i-chain as a word with the split separating prefix chain and tail."""

    word: bytes
    split: int


def _next_chains(current, basis_words):
    """One step of the overlap recursion: prechain tails, then prefix-minimal
    pruning per chain element."""
    out = set()
    for el in current:
        w, split = el.word, el.split
        tails = set()
        for wp in basis_words:
            for o in range(1, min(len(wp), len(w) - split) + 1):
                if w.endswith(wp[:o]):
                    tails.add(wp[o:])
        kept = []
        for u in sorted(tails, key=WORD_KEY):
            if not u:
                # a basis word sits inside the (normal) tail: broken input
                raise InputError("basis is not an antichain with normal tails")
            if not any(u[: len(v)] == v for v in kept):
                kept.append(u)
        for u in kept:
            out.add(ChainElement(w + u, len(w)))
    return out


def chains_finite(L1, k_max):
    """Chain languages L_1..L_k of a finite antichain, k <= k_max.

    Returns (languages, gldim) where gldim = j+1 when L_j is the last
    nonempty language found below k_max, and None when the recursion is
    still alive at the cutoff.
    """
    if not is_antichain(L1):
        raise InputError("chain recursion needs an antichain")
    if any(len(w) < 2 for w in L1.words):
        raise InputError("basis words must have length >= 2")
    basis_words = set(L1.words)
    levels = []
    current = {ChainElement(w, 1) for w in L1.words}
    while current and len(levels) < k_max:
        levels.append(FiniteLanguage(L1.alphabet, frozenset(el.word for el in current)))
        current = _next_chains(current, basis_words)
    return levels, None if current else len(levels) + 1


@lru_cache(maxsize=1)
def _govorov_window(L1, d):
    """(w, p, pl, pr, pb) for each word w of L1 X* cap X* L1 up to length d:
    the greedy-cut piece counts of w, w[1:], w[:-1] and w[1:-1] against the
    ideal of L1, -1 where the slice is not defined, infinite when eps is in
    the ideal (every word is then in every power of it).  Nothing here
    depends on the chain index, so every index asked of one (L1, d) shares
    one window.

    Two scans per word give the four counts: the greedy cut of w[:-1] makes
    the same cuts as that of w, less one that ends at |w|, and so does that
    of w[1:-1] against w[1:].  Every piece is at least b =
    L1.min_length_bound() long, so a scan tests its next piece b letters
    after the last cut.

    The ideal is built only to l, the length of the longest word of L1 up
    to d, not to d.  Every piece w[start:end] that a scan tests has
    w[start:end-1] outside the ideal: on a first test that slice is shorter
    than b, and on a retry the shorter test just failed.  So the piece lies
    in the ideal iff a word of L1 is a suffix of it, iff
    w[max(start, end - l):end] lies in the ideal truncated at l."""
    ell = max((len(v) for v in L1.words if len(v) <= d), default=0)
    ideal = trunc_ideal(L1, ell).words
    b = L1.min_length_bound()
    pad = full_language(L1.alphabet, max(d - b, 0))
    candidates = trunc_boolean(trunc_product(L1, pad, d), trunc_product(pad, L1, d))
    if EMPTY in ideal:
        inf = math.inf
        return tuple(
            (w, inf, inf if w else -1, inf if w else -1, inf if len(w) >= 2 else -1)
            for w in candidates.words
        )

    window = []
    for w in candidates.words:  # eps is not one: it would put eps in the ideal
        n, cuts = len(w), []
        for start in (0, 1):  # the greedy cuts of w, then of w[1:]; b >= 1 here
            count, end = 0, start + b
            while end <= n:
                lo = end - ell  # the lemma's clamp, as an expression: max() is slower
                if w[lo if lo > start else start:end] in ideal:
                    count, start, end = count + 1, end, end + b
                else:
                    end += 1
            # the count, then the count less a last piece ending at |w|
            cuts += count, count - (count > 0 and start == n)
        p, pr, pl, pb = cuts
        window.append((w, p, pl, pr, pb if n >= 2 else -1))
    return tuple(window)


def govorov_chains_trunc(L1, m, d):
    """The m-th chain language to degree d by ideal set algebra alone.

    With L the ideal generated by L1 and X+ the nonempty words, Govorov's
    formulas are, for m = 2k and m = 2k - 1:

        C_2k     = (X+ L^k  cap  L^k X+)  minus  (X+ L^k X+  cup  L^(k+1))
        C_(2k-1) = (X+ L^(k-1) X+  cap  L^k)  minus  (X+ L^k  cup  L^k X+)

    They are evaluated word by word, without building X+ or any power of L.
    A word is in L^k, k >= 1, iff the greedy cut, which keeps taking the
    shortest prefix of the rest that lies in L, finds at least k pieces.
    L^k is an ideal, so w is in X+ L^k iff w[1:] is in L^k, in L^k X+ iff
    w[:-1] is, and in X+ L^k X+ iff |w| >= 2 and w[1:-1] is; X+ L^0 X+ is
    every word of length >= 2.  Every word of C_m begins and ends with a
    word of L1, so only the words of L1 X* cap X* L1 up to length d are
    tested.  Their piece counts do not depend on m and come from one
    window per (L1, d); each index then compares integers.  The ideal is
    built only to l, the longest word of L1 up to d: a piece that the greedy
    cut tests is one letter longer than a slice outside L, so a word of L1
    in it is a suffix, and the piece lies in L iff its last l letters do.
    """
    if m < 1:
        raise InputError("chain index must be >= 1")
    if L1.d < d:
        raise InputError("L1 window too small for the requested degree")
    k = (m + 1) // 2
    window = _govorov_window(L1, d)
    if m % 2 == 0:
        words = (w for w, p, pl, pr, pb in window
                 if pl >= k and pr >= k and not (pb >= k or p >= k + 1))
    else:
        words = (w for w, p, pl, pr, pb in window
                 if pb >= k - 1 and p >= k and not (pl >= k or pr >= k))
    return TruncatedLanguage._built(L1.alphabet, d, frozenset(words))


# ---------------------------------------------------------------------------
# relation descriptors and the brute-force oracle


@dataclass(frozen=True)
class PatternFamily:
    """Concatenation of literal words and grammar-generated blocks."""

    parts: tuple  # items: ("word", bytes) | ("grammar", CFGrammar)

    def words_upto(self, d):
        fixed = sum(len(p) for kind, p in self.parts if kind == "word")
        if fixed > d:
            return set()
        acc = {EMPTY}
        for kind, p in self.parts:
            block = (p,) if kind == "word" else enumerate_words(p, d - fixed).words
            acc = {u + v for u in acc for v in block if len(u) + len(v) <= d}
        return acc


@dataclass(frozen=True)
class RelationSet:
    """Monomial relations: a finite part plus optional pattern families."""

    alphabet: object
    finite: FiniteLanguage
    families: tuple = ()

    def words_upto(self, d):
        words = {w for w in self.finite.words if len(w) <= d}
        for fam in self.families:
            words |= fam.words_upto(d)
        return words


def count_normal(lang, d):
    """Number of normal words per length, 0..d, by DP over the ideal
    automaton of the finite word set `lang` (any set: its minimal basis
    gives the same automaton)."""
    dfa = ideal_automaton(lang).dfa
    vec = [0] * dfa.n_states
    vec[dfa.initial] = 1
    counts = []
    for _ in range(d + 1):
        counts.append(sum(c for s, c in enumerate(vec) if s not in dfa.accepting))
        nxt = [0] * dfa.n_states
        for c, row in zip(vec, dfa.transitions):
            for t in row:
                nxt[t] += c
        vec = nxt
    return counts


def hilbert_oracle(rels, d):
    """HS coefficients of F modulo the relation ideal, lengths 0..d, exact:
    the normal words counted on the automaton of the relation words of
    length <= d, which generate the ideal's part up to degree d."""
    words = FiniteLanguage(rels.alphabet, frozenset(rels.words_upto(d)))
    return TruncatedSeries.from_counts(count_normal(words, d), d)


def chain_relations(kind, payload):
    """The relation set whose words are chain 1's: a finite descriptor's
    words, or a grammar's language as one family; None for a rational one."""
    if kind == "finite":
        return RelationSet(payload.alphabet, payload)
    if kind == "grammar":
        return RelationSet(
            payload.terminals,
            FiniteLanguage(payload.terminals, frozenset()),
            (PatternFamily((("grammar", payload),)),),
        )
    return None


# ---------------------------------------------------------------------------
# homology specs and the assembled pipeline


@dataclass(frozen=True)
class HomologySpec:
    n: int  # the number of generators, a sandwich grammar's terminals included
    descriptors: tuple  # per chain degree i >= 1: (kind, payload)
    gldim: int = None
    uchain2: object = None  # a Uchain2Spec, with no descriptors

    @property
    def terms(self):
        """The descriptor of each unknown E1, E2, ...: a sandwich has one."""
        if self.uchain2 is not None:
            return (("grammar", self.uchain2.grammar),)
        return self.descriptors


@dataclass(frozen=True)
class Uchain2Spec:
    """Relations R * L(grammar) * R' for finite word sets R and R'."""

    R: FiniteLanguage
    Rp: FiniteLanguage
    grammar: CFGrammar

    def gammas(self):
        """The length polynomials of R, R' and Q = overlap_language(R, R')."""
        return tuple(
            _descriptor_poly("finite", lang)
            for lang in (self.R, self.Rp, overlap_language(self.R, self.Rp))
        )


def _descriptor_series(kind, payload, d):
    if kind == "grammar":
        return TruncatedSeries.from_counts(
            count_derivations(payload, d, payload.start)[payload.start], d
        )
    return _descriptor_poly(kind, payload).series(d)


def _descriptor_poly(kind, payload):
    """Chain contribution as a rational function of t when no grammar is
    involved."""
    if kind == "rational":
        return payload
    if kind == "finite":
        coeffs = {}
        for w in payload.words:
            coeffs[len(w)] = coeffs.get(len(w), 0) + 1
        deg = max(coeffs, default=0)
        return RationalFunction(QPoly(coeffs.get(i, 0) for i in range(deg + 1)))
    raise InputError("unknown chain descriptor %r" % (kind,))


@dataclass(frozen=True)
class HilbertResult:
    poly_e: object  # cleared eliminant annihilating the Euler characteristic
    poly_h: object  # its reciprocal, annihilating the Hilbert series
    series: TruncatedSeries
    closed_form: str = None
    certifications: tuple = ()


def _radical_closed_form(q):
    cleared = q.cleared()
    a, b, c = cleared[2], cleared[1], cleared[0]
    return "H = (-(%r) +/- sqrt((%r)^2 - 4*(%r)*(%r))) / (2*(%r))" % (
        b, b, a, c, a
    )


def assemble_system(spec):
    """The Euler characteristic system: an AlgebraicSystem whose unknowns,
    E, E1, E2, ... and the grammars' other productive variables, head one
    equation each, as build_system's do, so that eliminate_univariate can
    merge the unknowns with equal equations.

    For chains, E = 1 - n*t + E1 - E2 + ...; for a sandwich, with gR, gR'
    and gQ from Uchain2Spec.gammas, (E - 1 + n*t)(1 + gQ*E1) = gR*gR'*E1.
    A rational descriptor p/q gives q*E_i - p, from its canonical pair in
    Z[t].  A grammar's start unknown is renamed to its E_i.  Auxiliary
    grammar variables sharing a name across chains are merged and must carry
    identical production sets (the usual shared-counter pattern).
    """
    names = ["E"]
    systems = {}
    for i, (kind, payload) in enumerate(spec.terms, start=1):
        e_name = "E%d" % i
        if kind != "grammar":
            names.append(e_name)
            continue
        start = payload.variables.symbols[payload.start]
        system = build_system(payload)
        systems[i] = ({start: e_name}, system)
        for sym in system.unknowns:
            if sym != start and (sym == "E" or re.fullmatch(r"E\d+", sym)):
                raise InputError("auxiliary variable name %r is reserved" % sym)
            name = e_name if sym == start else sym
            if name not in names:
                names.append(name)
    names = tuple(names)

    def monomial(*unknowns):
        exps = [0] * len(names)
        for v in unknowns:
            exps[names.index(v)] += 1
        return tuple(exps)

    shift = QPoly((-1, spec.n))
    eceq = {monomial("E"): QPoly.const(1), monomial(): shift}
    if spec.uchain2 is not None:
        # the gammas of finite word sets are polynomials: zden is 1
        g_r, g_rp, g_q = (g.znum for g in spec.uchain2.gammas())
        eceq[monomial("E", "E1")] = g_q
        eceq[monomial("E1")] = shift * g_q - g_r * g_rp
    else:
        for i in range(1, len(spec.descriptors) + 1):
            eceq[monomial("E%d" % i)] = QPoly.const((-1) ** i)

    heads = {"E": eceq}
    for i, (kind, payload) in enumerate(spec.terms, start=1):
        e_name = "E%d" % i
        if kind != "grammar":
            value = _descriptor_poly(kind, payload)
            heads[e_name] = {monomial(e_name): value.zden, monomial(): -value.znum}
            continue
        rename, system = systems[i]
        for sym, eq in zip(system.unknowns, system.equations):
            name = rename.get(sym, sym)
            eq = rename_terms(eq, system.unknowns, rename, names)
            if heads.setdefault(name, eq) != eq:  # only an auxiliary recurs
                raise InputError("shared variable %r has conflicting equations" % name)
    equations = ({e: c for e, c in heads[v].items() if c} for v in names)
    return AlgebraicSystem(names, tuple(equations))


def hilbert_from_homology(spec, d, cert_deg=DEFAULT_CERT_DEG, check_oracle=None):
    """Eliminant and series of HS(A) from a chain or sandwich spec.  The
    eliminant generates the elimination ideal of E; it need not be minimal.
    The sandwich formula holds only for some R, R' and L, so a sandwich's
    series is always compared to degree d with the normal-word count of its
    relations, instead of check_oracle.  A disagreement raises MismatchError.
    """
    if spec.gldim is not None and spec.gldim != len(spec.descriptors) + 1:
        raise InputError("declared global dimension does not match descriptors")
    u = spec.uchain2
    if u is not None:
        check_oracle = _sandwich_oracle(u.R, u.Rp, u.grammar, d)
        g_r, g_rp, g_q = u.gammas()
    certs = []
    for i, (kind, payload) in enumerate(spec.terms, start=1):
        if kind == "grammar":
            ok, witness = certify_unambiguous(payload, cert_deg)
            certs.append((i, ok, witness))
    poly_e = eliminate_univariate(assemble_system(spec), "E")
    poly_h = reciprocal_poly(poly_e, "H")

    def h_series(D):
        e_series = TruncatedSeries.from_counts([1, -spec.n], D)
        if u is not None:
            gl = _descriptor_series("grammar", u.grammar, D)
            one = TruncatedSeries.one(D)
            e_series = e_series + g_r.series(D) * g_rp.series(D) * gl / (one + g_q.series(D) * gl)
        for i, (kind, payload) in enumerate(spec.descriptors, start=1):
            term = _descriptor_series(kind, payload, D)
            e_series = e_series + (term if i % 2 == 1 else -term)
        return e_series.inverse()

    series = newton_series(poly_h, h_series, d)
    for k, c in enumerate(series.coeffs):
        if c.denominator != 1 or not (0 <= c <= spec.n ** k) or (k == 0 and c != 1):
            raise MismatchError(
                "series coefficient %d is %s, not a Hilbert series value" % (k, c)
            )
    if check_oracle is not None:
        bound = min(d, check_oracle.d)
        if not series.prefix_equals(check_oracle, bound):
            raise MismatchError(
                "Hilbert series disagrees with the oracle to degree %d" % bound
            )
    closed = _radical_closed_form(poly_h) if poly_h.degree == 2 else None
    if u is not None:
        closed = "HS^-1 = 1 - %d*t + (%r)*(%r)*gL / (1 + (%r)*gL)" % (
            spec.n, g_r, g_rp, g_q
        )
    return HilbertResult(poly_e, poly_h, series, closed, tuple(certs))


# ---------------------------------------------------------------------------
# the sandwich family R * L * R', of infinite global dimension


def overlap_language(R, Rp):
    """Q = (R X* cap X* R') minus R X* R' for finite word sets R and R'.

    A word of Q has a prefix u in R and a suffix v in R', and no such pair
    sits side by side, so u and v overlap: the word is u v[o:] with
    1 <= o <= min(|u|, |v|) and v[:o] a suffix of u.  Q is the set of those
    words whose shortest prefix in R ends after its longest suffix in R'
    starts; it is finite, its words shorter than max|u| + max|v|.
    """
    if R.alphabet != Rp.alphabet:
        raise InputError("overlap languages need a common alphabet")

    def side_by_side(w):
        end = min(i for i in range(len(w) + 1) if w[:i] in R.words)
        start = max(j for j in range(len(w) + 1) if w[j:] in Rp.words)
        return end <= start

    joins = {
        u + v[o:]
        for u in R.words
        for v in Rp.words
        for o in range(1, min(len(u), len(v)) + 1)
        if u.endswith(v[:o])
    }
    return FiniteLanguage(
        R.alphabet, frozenset(w for w in joins if not side_by_side(w))
    )


def _sandwich_oracle(R, Rp, Lg, d):
    """Normal-word counts, lengths 0..d, of the algebra on R's alphabet plus
    Lg's terminals with the relation words u w v, u in R, w in L(Lg), v in R'."""
    joint = R.alphabet.union(Lg.terminals)  # InputError on a shared symbol
    words = set()
    if R.words and Rp.words:
        bound = d - R.min_length() - Rp.min_length()
        if bound >= 0:
            lift = bytes.maketrans(
                bytes(range(Lg.terminals.size)),
                bytes(range(R.alphabet.size, joint.size)),
            )
            words = {
                u + w.translate(lift) + v
                for w in enumerate_words(Lg, bound).words
                for u in R.words
                for v in Rp.words
                if len(u) + len(w) + len(v) <= d
            }
    rels = RelationSet(joint, FiniteLanguage(joint, frozenset(words)))
    return hilbert_oracle(rels, d)


# ---------------------------------------------------------------------------
# spec files


_RATIONAL_TOKEN = re.compile(
    r"\s*(?P<num>[^/]+?)\s*(?:/\s*(?P<den>.+?)\s*)?$"
)


def parse_qpoly(text):
    """Integer polynomials in t: terms like '2*t^5', 't', '-3', '+ t^2'."""
    text = text.replace("-", "+-").replace(" ", "")
    coeffs = {}
    for term in text.split("+"):
        if not term:
            continue
        m = re.fullmatch(
            r"(?P<sign>-)?(?P<coef>\d+)?\*?(?P<t>t(\^(?P<exp>\d+))?)?", term
        )
        if not m or (m.group("coef") is None and m.group("t") is None):
            raise InputError("bad polynomial term %r" % term)
        c = int(m.group("coef")) if m.group("coef") else 1
        if m.group("sign"):
            c = -c
        k = 0
        if m.group("t"):
            k = int(m.group("exp")) if m.group("exp") else 1
        coeffs[k] = coeffs.get(k, 0) + c
    deg = max(coeffs, default=0)
    return QPoly(coeffs.get(i, 0) for i in range(deg + 1))


def parse_rational(text):
    m = _RATIONAL_TOKEN.fullmatch(text)
    if not m:
        raise InputError("bad rational function %r" % text)
    num = parse_qpoly(m.group("num"))
    den = parse_qpoly(m.group("den")) if m.group("den") else QPoly.const(1)
    if not den:
        raise InputError("zero denominator in rational function %r" % text)
    return RationalFunction(num, den)


def parse_relation_file(text, loader):
    """Relation set file: one `alphabet:` line first, then one relation word
    per line and `family:` lines whose tokens are symbols or `@file` grammar
    references.  `loader(name, parse, *args)` parses the file `name` with
    `parse(text, *args)`, and an input error in it names that file."""
    alphabet, lines = alphabet_file(text, "relation file")
    words = set()
    families = []
    for line in lines:
        if line.lower().startswith("family:"):
            parts = []
            pending = []
            for tok in line.split(":", 1)[1].split():
                if tok.startswith("@"):
                    if pending:
                        parts.append(("word", bytes(pending)))
                        pending = []
                    g = loader(tok[1:], parse_grammar)
                    if g.terminals != alphabet:
                        raise InputError(
                            "family grammar terminals must match the alphabet"
                        )
                    parts.append(("grammar", g))
                else:
                    pending.append(alphabet.index(tok))
            if pending:
                parts.append(("word", bytes(pending)))
            if not parts:
                raise InputError("family line %r has no symbols or grammars" % line)
            families.append(PatternFamily(tuple(parts)))
        else:
            words.add(alphabet.word(line))
    return RelationSet(
        alphabet, FiniteLanguage(alphabet, frozenset(words)), tuple(families)
    )


def parse_homology_spec(text, loader):
    """Spec file with sections `n:`, `chain i: ...`, `gldim: ...`.

    `n:` takes either a count or the symbol list.  `loader(name, parse,
    *args)` parses a referenced grammar or language file with `parse(text,
    *args)`, and an input error in it names that file.  Each line appears at
    most once, a chain key is exactly `chain <index>`, and a `gldim:
    infinite-uchain2` spec has no chain lines; its n counts the symbols of
    `n:` and the grammar's terminals.
    """
    n = None
    alphabet = None
    chains = {}
    gldim = None
    uspec = None
    seen = set()
    for line in content_lines(text):
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if key.startswith("chain"):
            toks = key.split()
            if len(toks) != 2 or toks[0] != "chain" or not toks[1].isdecimal():
                raise InputError("spec line %r needs `chain <index>:`" % line)
            key = int(toks[1])  # the chain index
        if key in seen:
            raise InputError("repeated spec line %r" % line)
        seen.add(key)
        if key == "n":
            toks = value.split()
            if len(toks) == 1 and toks[0].isdecimal():
                n = int(toks[0])
            else:
                alphabet = Alphabet(toks)
                n = alphabet.size
        elif isinstance(key, int):
            kind, _, rest = value.partition(" ")
            rest = rest.strip()
            if kind == "grammar":
                chains[key] = ("grammar", loader(rest, parse_grammar))
            elif kind == "finite":
                if alphabet is None:
                    raise InputError("finite descriptors need named symbols in n:")
                chains[key] = ("finite", loader(rest, parse_language_file, alphabet))
            elif kind == "rational":
                chains[key] = ("rational", parse_rational(rest))
            else:
                raise InputError("unknown chain descriptor %r" % kind)
        elif key == "gldim":
            if value.startswith("infinite-uchain2"):
                opts = dict(tok.partition("=")[::2] for tok in value.split()[1:])
                missing = [k + "=" for k in ("R", "Rp", "L") if not opts.get(k)]
                if missing:
                    raise InputError("uchain2 spec needs %s" % " ".join(missing))
                if alphabet is None:
                    raise InputError("uchain2 specs need named symbols in n:")
                r = loader(opts["R"], parse_language_file, alphabet)
                rp = loader(opts["Rp"], parse_language_file, alphabet)
                uspec = Uchain2Spec(r, rp, loader(opts["L"], parse_grammar))
            else:
                try:
                    gldim = int(value)
                except ValueError:
                    raise InputError(
                        "gldim must be an integer or infinite-uchain2, not %r" % value
                    ) from None
        else:
            raise InputError("unknown spec line %r" % line)
    if n is None:
        raise InputError("spec is missing the n: line")
    if uspec is not None:
        if chains:
            raise InputError("an infinite-uchain2 spec takes no chain lines")
        n += uspec.grammar.n  # the grammar's terminals are generators too
    descriptors = tuple(chains[i] for i in sorted(chains))
    if sorted(chains) != list(range(1, len(chains) + 1)):
        raise InputError("chain indices must be 1..k without gaps")
    return HomologySpec(n, descriptors, gldim, uspec)
