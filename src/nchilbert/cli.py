"""Command-line front end for the nchilbert pipelines.

Exit codes: 0 success, 1 mathematical failure (a mismatch or a failed
verification), 2 input error, 3 resource cap.  Every numeric output line
carries its validity bound, and certification status is always printed.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

from .csys import DEFAULT_CERT_DEG, gamma_algebraic
from .errors import (
    BoundError,
    DivergenceError,
    InputError,
    NchilbertError,
    ResourceCapError,
)
from .examples import REGISTRY, run_example
from .grammar import (
    certify_unambiguous,
    enumerate_words,
    format_grammar,
    parse_grammar,
    validate,
)
from .gsb import (
    compare_leading,
    gs_complete,
    leading_language,
    parse_presentation,
)
from .homology import (
    PatternFamily,
    RelationSet,
    chains_finite,
    govorov_chains_trunc,
    hilbert_from_homology,
    hilbert_oracle,
    hilbert_uchain2,
    parse_homology_spec,
    parse_relation_file,
)
from .words import (
    Alphabet,
    FiniteLanguage,
    TruncatedLanguage,
    WORD_KEY,
    parse_language_file,
)
from .regular import RegularLanguageHandle, myhill_nerode_grammar, right_quotient


class _MathFailure(NchilbertError):
    """A verification that ran to completion and came out false."""


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


def _read(path):
    try:
        with open(path, "r") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from None


def _parse(path, parse, *args):
    """parse(text of the file, *args); an input error names the file."""
    text = _read(path)
    try:
        return parse(text, *args)
    except InputError as exc:
        raise InputError("%s: %s" % (path, exc)) from None


def _loader_for(path):
    base = os.path.dirname(os.path.abspath(path))

    def load(rel):
        return _read(rel if os.path.isabs(rel) else os.path.join(base, rel))

    return load


def _common(sub, max_deg=True, cert=False):
    if max_deg:
        sub.add_argument("--max-deg", type=int, default=12)
    if cert:
        sub.add_argument("--cert-deg", type=int, default=DEFAULT_CERT_DEG)
    sub.add_argument(
        "--format", choices=("text", "structured"), default="text"
    )


def _check_degrees(args):
    for name in ("max_deg", "cert_deg", "kmax", "index"):
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
    rep.add("polynomial", repr(res.poly.cleared()))
    rep.series("series", res.series)
    _cert_line(rep, res.certified, res.cert_bound, res.counterexample, g.terminals)
    rep.flush()
    return 0


def cmd_ambiguity(args):
    g = _parse(args.grammar, parse_grammar)
    validate(g)
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
    basis = _parse(args.antichain, partial(parse_language_file, alphabet))
    levels, gldim = chains_finite(basis, args.kmax)
    rep = Report(args.format)
    for i, lang in enumerate(levels, start=1):
        rep.add("chain-%d" % i, "; ".join(sorted(lang.texts())))
    rep.add("gldim", gldim if gldim is not None else ">%d (cutoff)" % args.kmax)
    rep.flush()
    return 0


def cmd_govorov_chains(args):
    alphabet = Alphabet(args.alphabet.split())
    basis = _parse(args.antichain, partial(parse_language_file, alphabet))
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


def _descriptor_words(kind, payload, c):
    if kind == "finite":
        return {w for w in payload.words if len(w) <= c}
    if kind == "grammar":
        return set(enumerate_words(payload, c).words)
    return None


def _verify_chains(spec, c, rep):
    kind1, payload1 = spec.descriptors[0]
    w1 = _descriptor_words(kind1, payload1, c)
    if w1 is None:
        raise InputError("chain 1 must be finite or a grammar to verify")
    alphabet = payload1.alphabet if kind1 == "finite" else payload1.terminals
    l1 = TruncatedLanguage(alphabet, c, frozenset(w1))
    for i in range(2, len(spec.descriptors) + 1):
        got = govorov_chains_trunc(l1, i, c)
        kind, payload = spec.descriptors[i - 1]
        want = _descriptor_words(kind, payload, c)
        if want is None:
            # rational descriptor: compare coefficient counts only
            want_counts = payload.series(c)
            got_counts = got.counts(c)
            ok = all(want_counts[k] == got_counts[k] for k in range(c + 1))
        else:
            ok = want == set(got.words)
        rep.add("chain-%d-verify" % i, "ok to degree %d" % c if ok else "MISMATCH")
        if not ok:
            raise _MathFailure("chain %d disagrees with the set formulas" % i)


def cmd_hilbert(args):
    spec = _parse(args.spec, parse_homology_spec, _loader_for(args.spec))
    rep = Report(args.format)
    d = args.max_deg
    if spec.uchain2 is not None:
        u = spec.uchain2
        rep.add("gldim", "infinite")
        return _uchain2_report(rep, u.R, u.Rp, u.grammar, spec.n + u.grammar.n, args)
    if args.verify_chains:
        _verify_chains(spec, args.verify_chains, rep)
    res = hilbert_from_homology(spec, d, cert_deg=args.cert_deg)
    rep.add("euler-polynomial", repr(res.poly_e.cleared()))
    rep.add("hilbert-polynomial", repr(res.poly_h.cleared()))
    if res.closed_form:
        rep.add("closed-form", res.closed_form)
    rep.series("series", res.series)
    if res.gldim is not None:
        rep.add("gldim", res.gldim)
    for i, ok, witness in res.certifications:
        rep.add(
            "chain-%d-grammar" % i,
            "unambiguous to degree %d" % args.cert_deg
            if ok
            else "ambiguity counterexample found",
        )
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


def _uchain2_report(rep, r, rp, g, nm, args):
    """Closed-form series for relations R * L(g) * R' with finite R, R'."""
    res = hilbert_uchain2(
        RegularLanguageHandle.from_finite(r),
        RegularLanguageHandle.from_finite(rp),
        g,
        nm,
        args.max_deg,
        cert_deg=args.cert_deg,
    )
    rep.add("gamma-R", repr(res.gamma_R))
    rep.add("gamma-Rp", repr(res.gamma_Rp))
    rep.add("gamma-Q", repr(res.gamma_Q))
    rep.add("closed-form", res.closed_form)
    rep.series("series", res.series)
    _cert_line(
        rep,
        res.gamma_L.certified,
        res.gamma_L.cert_bound,
        res.gamma_L.counterexample,
        g.terminals,
    )
    rep.flush()
    return 0


def cmd_uchain2(args):
    alphabet = Alphabet(args.alphabet.split())
    r = _parse(args.r, partial(parse_language_file, alphabet))
    rp = _parse(args.rp, partial(parse_language_file, alphabet))
    g = _parse(args.grammar, parse_grammar)
    return _uchain2_report(Report(args.format), r, rp, g, alphabet.size + g.n, args)


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
            _parse(args.finite, partial(parse_language_file, alphabet))
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


if __name__ == "__main__":
    sys.exit(main())
