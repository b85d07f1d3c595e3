"""Chain languages of monomial algebras and the Hilbert series pipelines.

Two independent routes to the chain languages of a finite antichain: the
overlap recursion on chain elements (word plus split point), and the ideal
set-algebra formulas working inside a degree window.  They must agree, and
the acceptance suite leans on that.

The series pipelines assemble the Euler characteristic equation
E = 1 - n*t + E_1 - E_2 + ... from per-chain descriptors, eliminate down to
a univariate polynomial, and check the Hilbert series, the inverse of the
E-series, as a root of the reciprocal polynomial (root_series).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .csys import production_image
from .errors import InputError, MismatchError
from .grammar import (
    CFGrammar,
    certify_unambiguous,
    count_derivations,
    enumerate_words,
    parse_grammar,
    validate,
)
from .groebner import eliminate_univariate
from .multipoly import MultiPolynomial
from .newton import reciprocal_poly, root_series
from .ratfunc import QPoly, RationalFunction, RF_ONE, TruncatedSeries
from .regular import (
    RegularLanguageHandle,
    concat_dfa,
    difference,
    ideal_automaton,
    intersect,
    minimize,
    myhill_nerode_grammar,
    universal_dfa,
)
from .words import (
    EMPTY,
    FiniteLanguage,
    TruncatedLanguage,
    WORD_KEY,
    full_language,
    is_antichain,
    minimize_antichain,
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

    def prefix(self):
        return self.word[: self.split]

    def tail(self):
        return self.word[self.split:]


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
    for i in range(1, k_max + 1):
        if not current:
            return levels, len(levels) + 1
        levels.append(
            FiniteLanguage(L1.alphabet, frozenset(el.word for el in current))
        )
        current = _next_chains(current, basis_words)
    if not current:
        return levels, len(levels) + 1
    return levels, None


def govorov_chains_trunc(L1, m, d):
    """The m-th chain language to degree d by ideal set algebra alone."""
    if m < 1:
        raise InputError("chain index must be >= 1")
    if L1.d < d:
        raise InputError("L1 window too small for the requested degree")
    alphabet = L1.alphabet
    xp = full_language(alphabet, d, 1)
    L = trunc_ideal(L1, d)

    def power(k):
        acc = TruncatedLanguage(alphabet, d, frozenset([EMPTY]))
        for _ in range(k):
            acc = trunc_product(acc, L, d)
        return acc

    if m % 2 == 0:
        k = m // 2
        lk = power(k)
        left = trunc_product(xp, lk, d)
        right = trunc_product(lk, xp, d)
        both = trunc_product(xp, trunc_product(lk, xp, d), d)
        inner = trunc_boolean(left, right, "intersection")
        excl = trunc_boolean(both, power(k + 1), "union")
    else:
        k = (m + 1) // 2
        lk = power(k)
        mid = trunc_product(xp, trunc_product(power(k - 1), xp, d), d)
        inner = trunc_boolean(mid, lk, "intersection")
        excl = trunc_boolean(
            trunc_product(xp, lk, d), trunc_product(lk, xp, d), "union"
        )
    return trunc_boolean(inner, excl, "difference")


# ---------------------------------------------------------------------------
# relation descriptors and the brute-force oracle


@dataclass(frozen=True)
class PatternFamily:
    """Concatenation of literal words and grammar-generated blocks."""

    parts: tuple  # items: ("word", bytes) | ("grammar", CFGrammar)

    def words_upto(self, alphabet, d):
        langs = []
        fixed = sum(len(p) for kind, p in self.parts if kind == "word")
        for kind, p in self.parts:
            if kind == "word":
                langs.append({p})
            else:
                bound = d - fixed
                if bound < 0:
                    return set()
                inner = enumerate_words(p, bound)
                langs.append(set(inner.words))
        acc = {EMPTY}
        for block in langs:
            acc = {u + v for u in acc for v in block if len(u) + len(v) <= d}
            if not acc:
                break
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
            words |= fam.words_upto(self.alphabet, d)
        return words

    def basis_upto(self, d):
        return minimize_antichain(
            FiniteLanguage(self.alphabet, frozenset(self.words_upto(d)))
        )


def count_normal(basis, d):
    """Number of normal words per length, by DP over the ideal automaton."""
    handle = ideal_automaton(basis)
    dfa = handle.dfa
    n = len(dfa.alphabet.symbols)
    vec = [0] * dfa.n_states
    vec[dfa.initial] = 1
    counts = []
    for _ in range(d + 1):
        counts.append(sum(c for s, c in enumerate(vec) if s not in dfa.accepting))
        nxt = [0] * dfa.n_states
        for s, c in enumerate(vec):
            if c:
                for a in range(n):
                    nxt[dfa.transitions[s][a]] += c
        vec = nxt
    return counts


def hilbert_oracle(rels, d):
    """HS coefficients of F modulo the relation ideal, lengths 0..d, exact."""
    basis = rels.basis_upto(d)
    return TruncatedSeries.from_counts(count_normal(basis, d), d)


# ---------------------------------------------------------------------------
# homology specs and the assembled pipeline


@dataclass(frozen=True)
class HomologySpec:
    n: int
    descriptors: tuple  # per chain degree i >= 1: (kind, payload)
    gldim: int = None
    alphabet: object = None
    uchain2: object = None


@dataclass(frozen=True)
class Uchain2Spec:
    R: FiniteLanguage
    Rp: FiniteLanguage
    grammar: CFGrammar


def _descriptor_series(kind, payload, d):
    if kind == "grammar":
        return TruncatedSeries.from_counts(
            count_derivations(payload, d)[payload.start], d
        )
    if kind == "rational":
        return payload.series(d)
    if kind == "finite":
        counts = [0] * (d + 1)
        for w in payload.words:
            if len(w) <= d:
                counts[len(w)] += 1
        return TruncatedSeries.from_counts(counts, d)
    raise InputError("unknown chain descriptor %r" % (kind,))


def _descriptor_poly(kind, payload, d):
    """Chain contribution as a polynomial in t when no grammar is involved."""
    if kind == "rational":
        return payload
    if kind == "finite":
        coeffs = {}
        for w in payload.words:
            coeffs[len(w)] = coeffs.get(len(w), 0) + 1
        deg = max(coeffs, default=0)
        return RationalFunction(
            QPoly(tuple(Fraction(coeffs.get(i, 0)) for i in range(deg + 1)))
        )
    return None


@dataclass(frozen=True)
class HilbertResult:
    poly_e: object  # monic RatPoly annihilating the Euler characteristic
    poly_h: object  # its reciprocal, annihilating the Hilbert series
    series: TruncatedSeries
    closed_form: str = None
    certifications: tuple = ()
    gldim: int = None


def _radical_closed_form(q):
    cleared = q.cleared()
    a, b, c = cleared[2], cleared[1], cleared[0]
    return "H = (-(%r) +/- sqrt((%r)^2 - 4*(%r)*(%r))) / (2*(%r))" % (
        b, b, a, c, a
    )


def assemble_system(spec):
    """Joint unknown list and equations for the Euler characteristic system.

    Auxiliary grammar variables sharing a name across chains are merged and
    must carry identical production sets (the usual shared-counter pattern).
    """
    names = ["E"]
    chain_names = []
    aux_sources = {}
    for i, (kind, payload) in enumerate(spec.descriptors, start=1):
        e_name = "E%d" % i
        chain_names.append(e_name)
        names.append(e_name)
        if kind == "grammar":
            for j, sym in enumerate(payload.variables.symbols):
                if j == payload.start:
                    continue
                if sym == "E" or re.fullmatch(r"E\d+", sym):
                    raise InputError("auxiliary variable name %r is reserved" % sym)
                if sym not in names:
                    names.append(sym)
    names = tuple(names)

    equations = []
    eceq = MultiPolynomial.var(names, "E") - 1 + RationalFunction.t_power(1) * spec.n
    for i, e_name in enumerate(chain_names, start=1):
        sign = 1 if i % 2 == 0 else -1
        eceq = eceq + MultiPolynomial.var(names, e_name) * sign
    equations.append(eceq)

    for i, (kind, payload) in enumerate(spec.descriptors, start=1):
        e_name = "E%d" % i
        if kind == "grammar":
            g = payload
            rename = {}
            for j, sym in enumerate(g.variables.symbols):
                rename[sym] = e_name if j == g.start else sym
            by_var = g.by_variable()
            for j, sym in enumerate(g.variables.symbols):
                name = rename[sym]
                eq = MultiPolynomial.var(names, name)
                for rhs in by_var[j]:
                    img = production_image(g, rhs, g.variables.symbols)
                    eq = eq - img.rename(rename, names)
                if name in aux_sources:
                    if aux_sources[name] != eq:
                        raise InputError(
                            "shared variable %r has conflicting equations" % name
                        )
                    continue
                if name != e_name:
                    aux_sources[name] = eq
                equations.append(eq)
        else:
            value = _descriptor_poly(kind, payload, None)
            equations.append(MultiPolynomial.var(names, e_name) - value)
    return names, equations


def hilbert_from_homology(spec, d, cert_deg=12, check_oracle=None):
    """Minimal polynomial and series of HS(A) from a chain-language spec."""
    if spec.gldim is not None and spec.gldim != len(spec.descriptors) + 1:
        raise InputError("declared global dimension does not match descriptors")
    certs = []
    for i, (kind, payload) in enumerate(spec.descriptors, start=1):
        if kind == "grammar":
            validate(payload)
            ok, witness = certify_unambiguous(payload, cert_deg)
            certs.append((i, ok, witness))
    _, equations = assemble_system(spec)
    poly_e = eliminate_univariate(equations, "E")
    poly_h = reciprocal_poly(poly_e, "H")

    def h_series(D):
        e_series = TruncatedSeries.one(D) - RationalFunction.t_power(1) * spec.n
        for i, (kind, payload) in enumerate(spec.descriptors, start=1):
            term = _descriptor_series(kind, payload, D)
            e_series = e_series + (term if i % 2 == 1 else -term)
        return e_series.inverse()

    series = root_series(poly_h, h_series, d)
    if check_oracle is not None:
        bound = min(d, check_oracle.d)
        if not series.prefix_equals(check_oracle, bound):
            raise MismatchError("Hilbert series disagrees with the oracle")
    closed = _radical_closed_form(poly_h) if poly_h.degree == 2 else None
    return HilbertResult(
        poly_e, poly_h, series, closed, tuple(certs), spec.gldim
    )


# ---------------------------------------------------------------------------
# Theorem-style closed form for the infinite-dimension family


@dataclass(frozen=True)
class Uchain2Result:
    gamma_R: RationalFunction
    gamma_Rp: RationalFunction
    gamma_Q: RationalFunction
    gamma_L: object  # GammaResult for the inner language
    nm: int
    series: TruncatedSeries
    closed_form: str = ""


def _gamma_regular(handle):
    from .csys import gamma_rational

    return gamma_rational(myhill_nerode_grammar(handle))


def overlap_language(R, Rp):
    """Q = (R X* cap X* R') minus R X* R': minimal overlaps of R with R'."""
    if R.dfa.alphabet != Rp.dfa.alphabet:
        raise InputError("overlap languages need a common alphabet")
    univ = universal_dfa(R.dfa.alphabet)
    rx = concat_dfa(R.dfa, univ)
    xr = concat_dfa(univ, Rp.dfa)
    rxr = concat_dfa(R.dfa, concat_dfa(univ, Rp.dfa))
    q = difference(intersect(rx, xr), rxr)
    return RegularLanguageHandle(minimize(q))


def hilbert_uchain2(R, Rp, Lg, nm, d, cert_deg=12):
    """HS of the algebra with relations R * L(Lg) * R', by the closed form
    1 / (1 - nm*t + gR*gRp*gL / (1 + gQ*gL))."""
    from .csys import gamma_algebraic

    if not R.dfa.alphabet == Rp.dfa.alphabet:
        raise InputError("R and R' must share an alphabet")
    g_r = _gamma_regular(R)
    g_rp = _gamma_regular(Rp)
    g_q = _gamma_regular(overlap_language(R, Rp))
    gamma_l = gamma_algebraic(Lg, d, cert_deg=cert_deg)
    gl = gamma_l.series
    one = TruncatedSeries.one(d)
    inv = (
        one
        - RationalFunction.t_power(1) * nm
        + (g_r.series(d) * g_rp.series(d) * gl) / (one + g_q.series(d) * gl)
    )
    series = inv.inverse()
    closed = "HS^-1 = 1 - %d*t + (%r)*(%r)*gL / (1 + (%r)*gL)" % (
        nm, g_r, g_rp, g_q
    )
    return Uchain2Result(g_r, g_rp, g_q, gamma_l, nm, series, closed)


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
    return QPoly(tuple(Fraction(coeffs.get(i, 0)) for i in range(deg + 1)))


def parse_rational(text):
    m = _RATIONAL_TOKEN.fullmatch(text)
    if not m:
        raise InputError("bad rational function %r" % text)
    num = parse_qpoly(m.group("num"))
    den = parse_qpoly(m.group("den")) if m.group("den") else QPoly.const(1)
    return RationalFunction(num, den)


def parse_relation_file(text, loader):
    """Relation set file: `alphabet:` line, one relation word per line, and
    `family:` lines whose tokens are symbols or `@file` grammar references."""
    from .words import Alphabet

    alphabet = None
    words = set()
    families = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower().startswith("alphabet:"):
            alphabet = Alphabet(line.split(":", 1)[1].split())
            continue
        if alphabet is None:
            raise InputError("relation file must start with an alphabet: line")
        if line.lower().startswith("family:"):
            parts = []
            pending = []
            for tok in line.split(":", 1)[1].split():
                if tok.startswith("@"):
                    if pending:
                        parts.append(("word", bytes(pending)))
                        pending = []
                    g = parse_grammar(loader(tok[1:]))
                    if g.terminals != alphabet:
                        raise InputError(
                            "family grammar terminals must match the alphabet"
                        )
                    parts.append(("grammar", g))
                else:
                    pending.append(alphabet.index(tok))
            if pending:
                parts.append(("word", bytes(pending)))
            families.append(PatternFamily(tuple(parts)))
        else:
            words.add(alphabet.word(line))
    if alphabet is None:
        raise InputError("relation file has no alphabet: line")
    return RelationSet(
        alphabet, FiniteLanguage(alphabet, frozenset(words)), tuple(families)
    )


def parse_homology_spec(text, loader):
    """Spec file with sections `n:`, `chain i: ...`, `gldim: ...`.

    `n:` takes either a count or the symbol list; `loader(path)` returns the
    text of a referenced grammar or language file.
    """
    from .words import Alphabet

    n = None
    alphabet = None
    chains = {}
    gldim = None
    uspec = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if key == "n":
            toks = value.split()
            if len(toks) == 1 and toks[0].isdigit():
                n = int(toks[0])
            else:
                alphabet = Alphabet(toks)
                n = alphabet.size
        elif key.startswith("chain"):
            toks = key.split()
            if len(toks) != 2 or not toks[1].isdigit():
                raise InputError("spec line %r needs `chain <index>:`" % raw)
            idx = int(toks[1])
            kind, _, rest = value.partition(" ")
            rest = rest.strip()
            if kind == "grammar":
                chains[idx] = ("grammar", parse_grammar(loader(rest)))
            elif kind == "finite":
                if alphabet is None:
                    raise InputError("finite descriptors need named symbols in n:")
                chains[idx] = ("finite", parse_language_file(alphabet, loader(rest)))
            elif kind == "rational":
                chains[idx] = ("rational", parse_rational(rest))
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
                r = parse_language_file(alphabet, loader(opts["R"]))
                rp = parse_language_file(alphabet, loader(opts["Rp"]))
                uspec = Uchain2Spec(r, rp, parse_grammar(loader(opts["L"])))
            else:
                try:
                    gldim = int(value)
                except ValueError:
                    raise InputError(
                        "gldim must be an integer or infinite-uchain2, not %r" % value
                    ) from None
        else:
            raise InputError("unknown spec line %r" % raw)
    if n is None:
        raise InputError("spec is missing the n: line")
    descriptors = tuple(chains[i] for i in sorted(chains))
    if sorted(chains) != list(range(1, len(chains) + 1)):
        raise InputError("chain indices must be 1..k without gaps")
    return HomologySpec(n, descriptors, gldim, alphabet, uspec)
