"""Command-line front end for the nchilbert pipelines.

Exit codes: 0 success, 1 mathematical failure (a mismatch or a failed
verification), 2 input error, 3 resource cap, 4 internal error (a bug: any
other exception, reported in one line).  Every numeric output line
carries its validity bound, and certification status is always printed.
"""

from __future__ import annotations

import argparse
import os
import sys

from .csys import DEFAULT_CERT_DEG, gamma_algebraic
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
from .examples import REGISTRY, run_example
from .grammar import certify_unambiguous, format_grammar, parse_grammar
from .gsb import compare_leading, gs_complete, leading_language, parse_presentation
from .homology import (
    HomologySpec,
    PatternFamily,
    RelationSet,
    Uchain2Spec,
    chain_relations,
    chains_finite,
    govorov_chains_trunc,
    hilbert_from_homology,
    hilbert_oracle,
    parse_homology_spec,
    parse_relation_file,
)
from .words import (
    Alphabet,
    FiniteLanguage,
    MAX_LETTERS,
    TruncatedLanguage,
    WORD_KEY,
    is_antichain,
    parse_language_file,
)
from .regular import RegularLanguageHandle, myhill_nerode_grammar, right_quotient


class Report:
    def __init__(self, fmt):
        self.fmt = fmt
        self.pairs = []

    def add(self, key, value):
        self.pairs.append((key, str(value)))

    def series(self, key, s):
        self.add(key, ",".join(str(c) for c in s.coeffs))
        self.add(key + "-bound", s.d)

    def flush(self, stream=None):
        sep = "=" if self.fmt == "structured" else ": "
        for k, v in self.pairs:
            print("%s%s%s" % (k, sep, v), file=stream or sys.stdout)


def _shown(path):
    """The path with its non-printable characters (NUL, newline) escaped."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in path)


def _read(path):
    try:
        with open(path, "r") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # a NUL in the name; undecodable text
        raise InputError("cannot read %s: %s" % (_shown(path), exc)) from None


def _parse(path, parse, *args):
    """parse(text of the file, *args); an input error names the file."""
    text = _read(path)
    try:
        return parse(text, *args)
    except InputError as exc:
        raise InputError("%s: %s" % (_shown(path), exc)) from None


def _loader_for(path):
    """load(name, parse, *args) for the files a spec or relation file at
    `path` refers to: `name` is taken relative to the directory of `path`
    (an absolute name stays as it is), and the file goes through `_parse`,
    so an input error in it names that file."""
    base = os.path.dirname(os.path.abspath(path))
    return lambda name, parse, *args: _parse(os.path.join(base, name), parse, *args)


def _common(sub, max_deg=True, cert=False):
    if max_deg:
        sub.add_argument("--max-deg", type=int, default=12)
    if cert:
        sub.add_argument("--cert-deg", type=int, default=DEFAULT_CERT_DEG)
    sub.add_argument(
        "--format", choices=("text", "structured"), default="text"
    )


def _check_degrees(args):
    for name in ("max_deg", "cert_deg", "kmax", "index", "verify_chains"):
        v = getattr(args, name, None)
        if v is not None and v < 0:
            raise InputError("%s must be >= 0" % name.replace("_", "-"))


def _cert_line(rep, certified, bound, witness, alphabet=None):
    if certified:
        rep.add("certified", "unambiguous to degree %d" % bound)
    else:
        rep.add("certified", "no: ambiguous word found within degree %d" % bound)
        if witness is not None and alphabet is not None:
            rep.add("counterexample", alphabet.text(witness))


def cmd_gamma(args):
    g = _parse(args.grammar, parse_grammar)
    res = gamma_algebraic(g, args.max_deg, cert_deg=args.cert_deg, keep=args.keep)
    rep = Report(args.format)
    rep.add("unknown", args.keep or g.variables.symbols[g.start])
    rep.add("polynomial", repr(res.poly))
    rep.series("series", res.series)
    _cert_line(rep, res.certified, res.cert_bound, res.counterexample, g.terminals)
    rep.flush()
    return 0


def cmd_ambiguity(args):
    g = _parse(args.grammar, parse_grammar)
    ok, witness = certify_unambiguous(g, args.max_deg)
    rep = Report(args.format)
    _cert_line(rep, ok, args.max_deg, witness, g.terminals)
    rep.flush()
    return 0 if ok else 1


def cmd_quotient_grammar(args):
    g = _parse(args.grammar, parse_grammar)
    handle = RegularLanguageHandle.from_right_linear(g)
    if args.quotient:
        handle = right_quotient(handle, g.terminals.word(args.quotient))
    out = myhill_nerode_grammar(handle)
    rep = Report(args.format)
    rep.add("states", len(out.variables.symbols))
    rep.flush()
    sys.stdout.write(format_grammar(out))
    return 0


def cmd_chains(args):
    alphabet = Alphabet(args.alphabet.split())
    basis = _parse(args.antichain, _parse_basis, alphabet)
    levels, gldim = chains_finite(basis, args.kmax)
    rep = Report(args.format)
    for i, lang in enumerate(levels, start=1):
        rep.add("chain-%d" % i, "; ".join(sorted(lang.texts())))
    rep.add("gldim", gldim if gldim is not None else ">%d (cutoff)" % args.kmax)
    rep.flush()
    return 0


def _parse_basis(text, alphabet):
    basis = parse_language_file(text, alphabet)
    if any(len(w) < 2 for w in basis.words):
        raise InputError("basis words must have length >= 2")
    if not is_antichain(basis):
        raise InputError("chain recursion needs an antichain")
    return basis


def cmd_govorov_chains(args):
    alphabet = Alphabet(args.alphabet.split())
    basis = _parse(args.antichain, _parse_basis, alphabet)
    d = args.max_deg
    l1 = TruncatedLanguage(
        alphabet, d, frozenset(w for w in basis.words if len(w) <= d)
    )
    lm = govorov_chains_trunc(l1, args.index, d)
    rep = Report(args.format)
    rep.add(
        "chain-%d" % args.index,
        "; ".join(alphabet.text(w) for w in sorted(lm.words, key=WORD_KEY)),
    )
    rep.add("chain-%d-bound" % args.index, d)
    rep.flush()
    return 0


def _verify_chains(spec, c, rep):
    """One chain-i-verify line per chain i >= 2, then one for the chain after
    the last given one, which must be empty to degree c; False if any line
    disagrees with the set formulas."""
    rels = chain_relations(*spec.descriptors[0]) if spec.descriptors else None
    if rels is None:
        raise InputError("chain 1 must be finite or a grammar to verify")
    l1 = TruncatedLanguage(rels.alphabet, c, frozenset(rels.words_upto(c)))
    all_ok = True
    for i in range(2, len(spec.descriptors) + 1):
        got = govorov_chains_trunc(l1, i, c)
        kind, payload = spec.descriptors[i - 1]
        want = chain_relations(kind, payload)
        if want is None:
            # rational descriptor: compare coefficient counts only
            want_counts = payload.series(c)
            got_counts = got.counts(c)
            ok = all(want_counts[k] == got_counts[k] for k in range(c + 1))
        else:
            ok = want.words_upto(c) == set(got.words)
        rep.add("chain-%d-verify" % i, "ok to degree %d" % c if ok else "MISMATCH")
        all_ok = all_ok and ok
    nxt = len(spec.descriptors) + 1
    empty = not govorov_chains_trunc(l1, nxt, c).words
    rep.add("chain-%d-verify" % nxt, "empty to degree %d" % c if empty else "NOT EMPTY")
    return all_ok and empty


def cmd_hilbert(args):
    spec = _parse(args.spec, parse_homology_spec, _loader_for(args.spec))
    rep = Report(args.format)
    if args.verify_chains and not _verify_chains(spec, args.verify_chains, rep):
        rep.flush()
        return 1
    try:
        return _hilbert_report(rep, spec, args)
    except (EliminationError, MismatchError, RootMismatchError):
        rep.flush()  # a failed check exits 1 with the lines computed before it
        raise


def _chain_oracle(spec, k):
    """(hilbert_oracle to degree k on chain 1's relations over n letters,
    None), or (None, why the oracle cannot count this algebra)."""
    rels = chain_relations(*spec.descriptors[0]) if spec.descriptors else None
    if rels is None:
        why = "rational" if spec.descriptors else "absent"
        return None, "skipped: chain 1 is %s" % why
    symbols = rels.alphabet.symbols
    if not len(symbols) <= spec.n <= MAX_LETTERS:
        return None, "skipped: chain 1 has %d letters, n is %d" % (len(symbols), spec.n)
    # the letters past chain 1's are free; a name longer than every symbol is new
    pad = "_" * (1 + max(map(len, symbols), default=0))
    free = tuple(pad + str(i) for i in range(len(symbols), spec.n))
    rels = RelationSet(Alphabet(symbols + free), rels.finite, rels.families)
    return hilbert_oracle(rels, k), None


def _hilbert_report(rep, spec, args):
    """The series of a chain or sandwich spec, its eliminant and its checks."""
    d = args.max_deg
    u = spec.uchain2
    k = d if u is not None else min(d, args.cert_deg)
    oracle, skipped = (None, None) if u is not None else _chain_oracle(spec, k)
    res = hilbert_from_homology(spec, d, cert_deg=args.cert_deg, check_oracle=oracle)
    if u is not None:
        rep.add("gldim", "infinite")
        for key, gamma in zip(("gamma-R", "gamma-Rp", "gamma-Q"), u.gammas()):
            rep.add(key, repr(gamma))
    rep.add("euler-polynomial", repr(res.poly_e))
    rep.add("hilbert-polynomial", repr(res.poly_h.cleared()))
    if res.closed_form:
        rep.add("closed-form", res.closed_form)
    rep.series("series", res.series)
    if spec.gldim is not None:
        rep.add("gldim", spec.gldim)
    for i, ok, witness in res.certifications:
        if u is not None:
            _cert_line(rep, ok, args.cert_deg, witness, u.grammar.terminals)
        elif ok:
            rep.add("chain-%d-grammar" % i, "unambiguous to degree %d" % args.cert_deg)
        else:
            rep.add("chain-%d-grammar" % i, "ambiguity counterexample found")
    rep.add("series-vs-oracle", skipped or "ok to degree %d" % k)
    rep.flush()
    return 0


def cmd_oracle(args):
    rels = _parse(
        args.relations, parse_relation_file, _loader_for(args.relations)
    )
    series = hilbert_oracle(rels, args.max_deg)
    rep = Report(args.format)
    rep.series("series", series)
    rep.add("certified", "exact count of normal words to degree %d" % args.max_deg)
    rep.flush()
    return 0


def cmd_uchain2(args):
    alphabet = Alphabet(args.alphabet.split())
    r = _parse(args.r, parse_language_file, alphabet)
    rp = _parse(args.rp, parse_language_file, alphabet)
    g = _parse(args.grammar, parse_grammar)
    spec = HomologySpec(alphabet.size + g.n, (), uchain2=Uchain2Spec(r, rp, g))
    return _hilbert_report(Report(args.format), spec, args)


def cmd_gsb(args):
    alphabet, order, relations = _parse(args.presentation, parse_presentation)
    basis = gs_complete(relations, order, args.max_deg)
    lead = leading_language(basis, order)
    rep = Report(args.format)
    rep.add("basis-size", len(basis))
    rep.add("basis-bound", args.max_deg)
    for i, g in enumerate(
        sorted(basis, key=lambda f: order.key(f.lm(order)))
    ):
        rep.add("basis-%d" % i, g.text())
    rep.add(
        "leading",
        "; ".join(sorted(lead.texts())),
    )
    code = 0
    if args.predict or args.finite:
        finite = (
            _parse(args.finite, parse_language_file, alphabet)
            if args.finite
            else FiniteLanguage(alphabet, frozenset())
        )
        families = ()
        if args.predict:
            g = _parse(args.predict, parse_grammar)
            if g.terminals != alphabet:
                raise InputError(
                    "prediction grammar terminals must match the presentation"
                )
            families = (PatternFamily((("grammar", g),)),)
        predicted = RelationSet(alphabet, finite, families)
        report = compare_leading(predicted, lead, args.max_deg)
        rep.add("prediction", "confirmed to degree %d" % args.max_deg
                if report.ok else "MISMATCH")
        if report.missing:
            rep.add("missing", "; ".join(alphabet.text(w) for w in report.missing))
        if report.extra:
            rep.add("extra", "; ".join(alphabet.text(w) for w in report.extra))
        if not report.ok:
            code = 1
    rep.flush()
    return code


def cmd_verify_example(args):
    report = run_example(args.name)
    for line in report.lines:
        print(line)
    print("result%s%s" % (
        "=" if args.format == "structured" else ": ",
        "ok" if report.ok else "FAILED",
    ))
    return 0 if report.ok else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="nchilbert",
        description="Hilbert series of noncommutative monomial algebras",
    )
    subs = p.add_subparsers(dest="command", required=True)

    s = subs.add_parser("gamma", help="algebraic counting series of a grammar")
    s.add_argument("grammar")
    s.add_argument("--keep", default=None)
    _common(s, cert=True)
    s.set_defaults(fn=cmd_gamma)

    s = subs.add_parser("ambiguity", help="bounded unambiguity certificate")
    s.add_argument("grammar")
    _common(s)
    s.set_defaults(fn=cmd_ambiguity)

    s = subs.add_parser(
        "quotient-grammar",
        help="canonical right-linear grammar, optionally of a right quotient",
    )
    s.add_argument("grammar")
    s.add_argument("--quotient", default="")
    _common(s, max_deg=False)
    s.set_defaults(fn=cmd_quotient_grammar)

    s = subs.add_parser("chains", help="chain languages of a finite antichain")
    s.add_argument("antichain")
    s.add_argument("--alphabet", required=True)
    s.add_argument("--kmax", type=int, default=6)
    _common(s, max_deg=False)
    s.set_defaults(fn=cmd_chains)

    s = subs.add_parser(
        "govorov-chains", help="chain language by ideal set algebra, truncated"
    )
    s.add_argument("antichain")
    s.add_argument("--alphabet", required=True)
    s.add_argument("--index", type=int, required=True)
    _common(s)
    s.set_defaults(fn=cmd_govorov_chains)

    s = subs.add_parser("hilbert", help="Hilbert series from a homology spec")
    s.add_argument("spec")
    s.add_argument("--verify-chains", type=int, default=0)
    _common(s, cert=True)
    s.set_defaults(fn=cmd_hilbert)

    s = subs.add_parser("oracle", help="exact normal-word count of a relation set")
    s.add_argument("relations")
    _common(s)
    s.set_defaults(fn=cmd_oracle)

    s = subs.add_parser("uchain2", help="closed-form series for sandwich relations")
    s.add_argument("--r", required=True)
    s.add_argument("--rp", required=True)
    s.add_argument("--grammar", required=True)
    s.add_argument("--alphabet", required=True)
    _common(s, cert=True)
    s.set_defaults(fn=cmd_uchain2)

    s = subs.add_parser("gsb", help="truncated Groebner-Shirshov completion")
    s.add_argument("presentation")
    s.add_argument("--predict", default=None)
    s.add_argument("--finite", default=None)
    _common(s)
    s.set_defaults(fn=cmd_gsb)

    s = subs.add_parser("verify-example", help="run a built-in worked example")
    s.add_argument("name", choices=sorted(REGISTRY))
    _common(s, max_deg=False)
    s.set_defaults(fn=cmd_verify_example)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_degrees(args)
        return args.fn(args)
    except (InputError, DivergenceError, BoundError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print("resource cap: %s" % exc, file=sys.stderr)
        return 3
    except NchilbertError as exc:
        print("mathematical failure: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
