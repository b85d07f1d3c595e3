"""Command-line entry point: exit codes and output contract."""

import contextlib
import io
import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nchilbert import cli, csys, grammar, gsb, homology
from nchilbert.cli import main
from nchilbert.errors import NchilbertError
from nchilbert.examples import (
    DYCK,
    FP_FAMILY,
    FP_FINITE,
    FP_PRESENTATION,
    FPV_CHAINS,
    IFTHENELSE,
    LUKAS1_CHAINS,
    REGISTRY,
)
from nchilbert.grammar import parse_grammar
from nchilbert.ratfunc import TruncatedSeries


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gamma_success(tmp_path, capsys):
    gf = write(tmp_path, "g.gf", IFTHENELSE)
    code, out, _ = run(capsys, ["gamma", gf, "--max-deg", "7"])
    assert code == 0
    assert "polynomial:" in out
    assert "series: 1,1,2,3,6,10,20,35" in out
    assert "series-bound: 7" in out
    assert "unambiguous to degree 12" in out


def test_gamma_structured_format(tmp_path, capsys):
    gf = write(tmp_path, "g.gf", DYCK)
    code, out, _ = run(capsys, ["gamma", gf, "--format", "structured"])
    assert code == 0
    assert "series=1,0,1,0,2,0,5,0,14,0,42,0,132" in out


def test_gamma_missing_file(capsys):
    code, _, err = run(capsys, ["gamma", "missing.gf"])
    assert code == 2
    assert "input error" in err


def test_undecodable_file_exits_2(tmp_path, capsys):
    # reading raises UnicodeDecodeError, a ValueError like a NUL in a name
    path = tmp_path / "spec.hs"
    path.write_bytes(b"n: 1\nchain 1: rational t\xff\n")
    code, _, err = run(capsys, ["hilbert", str(path)])
    assert code == 2
    assert err.startswith("input error: ") and str(path) in err


def test_gamma_negative_degree(tmp_path, capsys):
    gf = write(tmp_path, "g.gf", DYCK)
    code, _, _ = run(capsys, ["gamma", gf, "--max-deg", "-1"])
    assert code == 2


def test_hilbert_negative_verify_chains(tmp_path, capsys):
    write(tmp_path, "g.gf", DYCK)
    spec = write(tmp_path, "spec.hs", "n: 2\nchain 1: grammar g.gf\n")
    code, _, err = run(capsys, ["hilbert", spec, "--verify-chains", "-1"])
    assert code == 2
    assert err == "input error: verify-chains must be >= 0\n"


def test_ambiguity_detects_planted_grammar(tmp_path, capsys):
    gf = write(
        tmp_path, "amb.gf",
        "terminals: a\nvariables: S\nstart: S\nS -> a S | S a | a\n",
    )
    code, out, _ = run(capsys, ["ambiguity", gf, "--max-deg", "4"])
    assert code == 1
    assert "counterexample: a a" in out


def test_ambiguity_certifies_dyck(tmp_path, capsys):
    gf = write(tmp_path, "dyck.gf", DYCK)
    code, out, _ = run(capsys, ["ambiguity", gf])
    assert code == 0
    assert "unambiguous to degree 12" in out


def test_ambiguity_ignores_an_unreachable_cycle(tmp_path, capsys):
    # A's epsilon cycle is unreachable from S, so the certificate stands, and
    # gamma counts S's series over the variables S reaches; kept, A refuses
    gf = write(
        tmp_path, "cyc.gf",
        "terminals: x\nvariables: S A B\nstart: S\nS -> x\nA -> A A | eps\nB -> x\n",
    )
    code, out, _ = run(capsys, ["ambiguity", gf])
    assert (code, out) == (0, "certified: unambiguous to degree 12\n")
    code, out, _ = run(capsys, ["gamma", gf, "--max-deg", "6"])
    assert code == 0
    assert "polynomial: S + -t\nseries: 0,1,0,0,0,0,0\n" in out
    code, _, err = run(capsys, ["gamma", gf, "--keep", "A"])
    assert (code, err) == (2, "input error: unit/epsilon cycle through A\n")


def test_quotient_grammar(tmp_path, capsys):
    gf = write(
        tmp_path, "rl.gf",
        "terminals: x y\nvariables: A1 A2 A3\nstart: A1\n"
        "A1 -> eps | x A1 | y A2\nA2 -> eps | x A3 | y A2\nA3 -> x A3 | y A3\n",
    )
    code, out, _ = run(capsys, ["quotient-grammar", gf])
    assert code == 0
    assert out == (
        "states: 3\nterminals: x y\nvariables: A1 A2 A3\nstart: A1\n"
        "A1 -> eps | x A1 | y A2\nA2 -> eps | x A3 | y A2\nA3 -> x A3 | y A3\n"
    )
    code, out, _ = run(capsys, ["quotient-grammar", gf, "--quotient", "y"])
    assert code == 0
    assert out == (
        "states: 2\nterminals: x y\nvariables: A1 A2\nstart: A1\n"
        "A1 -> eps | x A2 | y A1\nA2 -> x A2 | y A2\n"
    )


def test_chains_and_govorov(tmp_path, capsys):
    lf = write(tmp_path, "l1.lang", "x x\n")
    code, out, _ = run(capsys, ["chains", lf, "--alphabet", "x y", "--kmax", "4"])
    assert code == 0
    assert "chain-2: x x x" in out
    assert "gldim: >4 (cutoff)" in out
    code, out, _ = run(
        capsys,
        ["govorov-chains", lf, "--alphabet", "x y", "--index", "2", "--max-deg", "5"],
    )
    assert code == 0
    assert "chain-2: x x x" in out


@pytest.mark.parametrize("command", ["chains", "govorov-chains"])
def test_non_antichain_basis_exits_2(tmp_path, capsys, command):
    # x x is a factor of x x y: both routes need an antichain
    lf = write(tmp_path, "l1.lang", "x x\nx x y\n")
    argv = [command, lf, "--alphabet", "x y"]
    if command == "govorov-chains":
        argv += ["--index", "1"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "input error: %s: chain recursion needs an antichain\n" % lf


def test_oracle(tmp_path, capsys):
    rf = write(tmp_path, "rels.txt", "alphabet: x y\nx x\n")
    code, out, _ = run(capsys, ["oracle", rf, "--max-deg", "6"])
    assert code == 0
    assert "series: 1,2,3,5,8,13,21" in out


def test_oracle_eps_relation_gives_zero_algebra(tmp_path, capsys):
    # eps in the relations puts 1 in the ideal: no word is normal
    rf = write(tmp_path, "rels.txt", "alphabet: x y\neps\n")
    code, out, _ = run(capsys, ["oracle", rf, "--max-deg", "3"])
    assert code == 0
    assert "series: 0,0,0,0" in out


def test_hilbert_spec_with_chain_verification(tmp_path, capsys):
    # {x x} has the chains x^(m+1) for every m: a spec that stops at chain 3
    # leaves out chain 4 = {x x x x x}
    write(tmp_path, "c1.lang", "x x\n")
    write(tmp_path, "c2.lang", "x x x\n")
    write(tmp_path, "c3.lang", "x x x x\n")
    spec = write(
        tmp_path, "spec.hs",
        "n: x y\nchain 1: finite c1.lang\nchain 2: finite c2.lang\n"
        "chain 3: finite c3.lang\n",
    )
    code, out, _ = run(
        capsys, ["hilbert", spec, "--max-deg", "4", "--verify-chains", "6"]
    )
    assert code == 1
    assert out.splitlines() == [
        "chain-2-verify: ok to degree 6",
        "chain-3-verify: ok to degree 6",
        "chain-4-verify: NOT EMPTY",
    ]


@pytest.mark.parametrize(
    "chain2, code, verdict", [("t^3", 0, "ok to degree 6"), ("t^4", 1, "MISMATCH")]
)
def test_hilbert_verifies_rational_chain_counts(tmp_path, capsys, chain2, code, verdict):
    # chain 2 of {x y, y z} is {x y z}: one word, of degree 3; chain 3 is empty
    write(tmp_path, "c1.lang", "x y\ny z\n")
    spec = write(
        tmp_path, "spec.hs",
        "n: x y z\nchain 1: finite c1.lang\nchain 2: rational %s\n" % chain2,
    )
    got, out, _ = run(capsys, ["hilbert", spec, "--verify-chains", "6"])
    assert got == code
    assert "chain-2-verify: " + verdict in out.splitlines()
    assert "chain-3-verify: empty to degree 6" in out.splitlines()


def test_gsb_with_prediction(tmp_path, capsys):
    pres = write(tmp_path, "p.txt", "alphabet: x y\nx x\n")
    fin = write(tmp_path, "f.lang", "x x\n")
    code, out, _ = run(
        capsys, ["gsb", pres, "--max-deg", "5", "--finite", fin]
    )
    assert code == 0
    assert "prediction: confirmed to degree 5" in out


def test_gsb_wrong_prediction_exits_1(tmp_path, capsys):
    pres = write(tmp_path, "p.txt", "alphabet: x y\nx x\n")
    fin = write(tmp_path, "f.lang", "x y\n")
    code, out, _ = run(
        capsys, ["gsb", pres, "--max-deg", "5", "--finite", fin]
    )
    assert code == 1
    assert "missing: x y" in out
    assert "extra: x x" in out


def test_hilbert_rational_chain_and_gldim(tmp_path, capsys):
    spec = write(tmp_path, "spec.hs", "n: 2\nchain 1: rational t^2\ngldim: 2\n")
    code, out, _ = run(capsys, ["hilbert", spec, "--max-deg", "8"])
    assert code == 0
    assert "series: 1,2,3,4,5,6,7,8,9" in out.splitlines()
    assert "gldim: 2" in out.splitlines()


def test_hilbert_rejects_non_hilbert_series(tmp_path, capsys):
    # E = 1 - t + 1 gives H = 1/(2 - t) = 1/2 + t/4 + ...
    write(tmp_path, "c1.lang", "eps\n")
    spec = write(tmp_path, "spec.hs", "n: x\nchain 1: finite c1.lang\n")
    code, out, err = run(capsys, ["hilbert", spec, "--max-deg", "4"])
    assert code == 1
    assert out == ""
    assert err == (
        "mathematical failure: series coefficient 0 is 1/2, "
        "not a Hilbert series value\n"
    )


def _fp_files(tmp_path):
    pres = write(tmp_path, "fp.txt", FP_PRESENTATION)
    fin = write(tmp_path, "fp.lang", "\n".join(FP_FINITE) + "\n")
    fam = write(tmp_path, "fp.gf", FP_FAMILY)
    return pres, fin, fam


def test_gsb_grammar_prediction_confirmed(tmp_path, capsys):
    pres, fin, fam = _fp_files(tmp_path)
    argv = ["gsb", pres, "--max-deg", "6", "--finite", fin, "--predict", fam]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert "prediction: confirmed to degree 6" in out.splitlines()


def test_gsb_prediction_over_other_terminals_exits_2(tmp_path, capsys):
    pres, fin, _ = _fp_files(tmp_path)
    gf = write(tmp_path, "dyck.gf", DYCK)
    argv = ["gsb", pres, "--max-deg", "6", "--finite", fin, "--predict", gf]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ")


def test_resource_cap_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "gs_complete", partial(gsb.gs_complete, cap=1))
    pres, _, _ = _fp_files(tmp_path)
    code, out, err = run(capsys, ["gsb", pres, "--max-deg", "6"])
    assert code == 3
    assert out == ""
    assert err == "resource cap: completion pair cap 1 exceeded\n"


def test_word_cap_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        grammar, "enumerate_words", partial(grammar.enumerate_words, cap=5)
    )
    gf = write(tmp_path, "g.gf", IFTHENELSE)
    code, out, err = run(capsys, ["ambiguity", gf, "--max-deg", "6"])
    assert code == 3
    assert out == ""
    assert err == "resource cap: enumeration exceeded word cap 5\n"


def test_internal_error_exits_4(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "gs_complete", broken)
    pres, _, _ = _fp_files(tmp_path)
    code, out, err = run(capsys, ["gsb", pres, "--max-deg", "6"])
    assert code == 4
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_verify_example(capsys):
    code, out, _ = run(capsys, ["verify-example", "xystar"])
    assert code == 0
    assert "result: ok" in out


# the nine reports as the benchmark recorded them, at the default degrees
REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_example_report_matches_reference(name):
    with open(REFERENCE) as fh:
        recorded = json.load(fh)["examples"][name]
    report = REGISTRY[name]()
    assert {"ok": report.ok, "lines": list(report.lines)} == recorded


def _lukas1_spec(tmp_path):
    lines = ["n: 6"]
    for i, text in enumerate(LUKAS1_CHAINS, start=1):
        write(tmp_path, "c%d.gf" % i, text)
        lines.append("chain %d: grammar c%d.gf" % (i, i))
    return write(tmp_path, "spec.hs", "\n".join(lines) + "\n")


def test_hilbert_verifies_grammar_chains(tmp_path, capsys):
    argv = ["hilbert", _lukas1_spec(tmp_path), "--max-deg", "4", "--verify-chains", "6"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert "chain-2-verify: ok to degree 6" in out.splitlines()
    assert "chain-3-verify: ok to degree 6" in out.splitlines()
    assert "chain-4-verify: empty to degree 6" in out.splitlines()


def test_hilbert_dropped_chain_exits_1(tmp_path, capsys):
    # without chain 3 the series is wrong from degree 8 on, and exits 0
    # unless the chain after the last given one is computed
    write(tmp_path, "c1.gf", LUKAS1_CHAINS[0])
    write(tmp_path, "c2.gf", LUKAS1_CHAINS[1])
    spec = write(
        tmp_path, "spec.hs",
        "n: 6\nchain 1: grammar c1.gf\nchain 2: grammar c2.gf\ngldim: 3\n",
    )
    code, out, _ = run(capsys, ["hilbert", spec, "--verify-chains", "8"])
    assert code == 1
    assert out.splitlines() == [
        "chain-2-verify: ok to degree 8",
        "chain-3-verify: NOT EMPTY",
    ]


def test_hilbert_dropped_chain_fails_the_oracle(tmp_path, capsys):
    # by default the series is compared with the normal-word count of chain
    # 1's relations, which sees the dropped chain from degree 8 on
    write(tmp_path, "c1.gf", LUKAS1_CHAINS[0])
    write(tmp_path, "c2.gf", LUKAS1_CHAINS[1])
    spec = write(
        tmp_path, "spec.hs",
        "n: 6\nchain 1: grammar c1.gf\nchain 2: grammar c2.gf\ngldim: 3\n",
    )
    code, out, err = run(capsys, ["hilbert", spec, "--max-deg", "9"])
    assert code == 1
    assert out == ""
    assert err == "mathematical failure: Hilbert series disagrees with the oracle to degree 9\n"


def test_hilbert_oracle_failure_keeps_the_chain_lines(tmp_path, capsys):
    # the chain-i-verify lines pass; the oracle then fails at degree 8
    write(tmp_path, "c1.gf", LUKAS1_CHAINS[0])
    write(tmp_path, "c2.gf", LUKAS1_CHAINS[1])
    spec = write(
        tmp_path, "spec.hs",
        "n: 6\nchain 1: grammar c1.gf\nchain 2: grammar c2.gf\ngldim: 3\n",
    )
    argv = ["hilbert", spec, "--max-deg", "9", "--verify-chains", "6"]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out.splitlines() == [
        "chain-2-verify: ok to degree 6",
        "chain-3-verify: empty to degree 6",
    ]
    assert err == "mathematical failure: Hilbert series disagrees with the oracle to degree 9\n"


def test_hilbert_fp_variant_prints_a_quadratic(tmp_path, capsys):
    # the chain grammars' T and Q have equal equations and are merged
    write(tmp_path, "c1.gf", FPV_CHAINS[0])
    write(tmp_path, "c2.gf", FPV_CHAINS[1])
    spec = write(
        tmp_path, "spec.hs",
        "n: 9\nchain 1: grammar c1.gf\nchain 2: grammar c2.gf\ngldim: 3\n",
    )
    code, out, _ = run(capsys, ["hilbert", spec, "--max-deg", "6"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        "euler-polynomial: E^2 + (6*t^3 - 23*t^2 + 18*t - 2)*E"
        " + (10*t^6 - 69*t^5 + 186*t^4 - 213*t^3 + 104*t^2 - 18*t + 1)"
    )
    assert lines[2].startswith("closed-form: H = ")
    assert "series: 1,9,69,516,3844,28620,213070" in lines


def test_gamma_merges_equal_unknowns(tmp_path, capsys):
    # S -> T U with T and U both Dyck: S = T^2, not a root of a cubic
    gf = write(
        tmp_path, "stu.gf",
        "terminals: a b c d\nvariables: S T U\nstart: S\n"
        "S -> T U\nT -> eps | a T b T\nU -> eps | c U d U\n",
    )
    code, out, _ = run(capsys, ["gamma", gf, "--max-deg", "8"])
    assert code == 0
    assert out.splitlines()[:3] == [
        "unknown: S",
        "polynomial: t^4*S^2 + (2*t^2 - 1)*S + 1",
        "series: 1,0,2,0,5,0,14,0,42",
    ]


@pytest.mark.parametrize("text, polynomial, series", [
    # A = 1 + A and B = t + B + 1 have no solution, but S reaches neither
    ("terminals: a b\nvariables: S A B\nstart: S\n"
     "S -> eps | a B\nA -> eps | A\nB -> eps | b S\n",
     "(t - 1)*S + 1", "1,1,1,1,1,1,1"),
    ("terminals: a\nvariables: S A B\nstart: S\n"
     "S -> A\nA -> eps\nB -> a A | S B | A S\n",
     "S + -1", "1,0,0,0,0,0,0"),
])
def test_gamma_ignores_an_unreachable_inconsistent_equation(
    tmp_path, capsys, text, polynomial, series
):
    gf = write(tmp_path, "g.gf", text)
    code, out, err = run(capsys, ["gamma", gf, "--max-deg", "6"])
    assert (code, err) == (0, "")
    assert out.splitlines()[:3] == [
        "unknown: S", "polynomial: " + polynomial, "series: " + series
    ]


@pytest.mark.parametrize("max_deg, cert_deg, k", [(9, 12, 9), (9, 5, 5)])
def test_hilbert_oracle_line(tmp_path, capsys, max_deg, cert_deg, k):
    argv = ["hilbert", _lukas1_spec(tmp_path), "--max-deg", str(max_deg)]
    code, out, _ = run(capsys, argv + ["--cert-deg", str(cert_deg)])
    assert code == 0
    assert out.splitlines()[-1] == "series-vs-oracle: ok to degree %d" % k


@pytest.mark.parametrize("max_deg, code", [(7, 0), (8, 1)])
def test_hilbert_reports_an_ambiguous_chain_grammar(tmp_path, capsys, max_deg, code):
    # x x y y z z a c is also x x y y z z T c with T -> a: chain 3 counts it
    # twice, which the series shows only from degree 8 on
    spec = _lukas1_spec(tmp_path)
    body = "S -> x x y y z z T c | x x z y z z T c"
    write(tmp_path, "c3.gf", LUKAS1_CHAINS[2].replace(body, body + " | x x y y z z a c"))
    got, out, err = run(capsys, ["hilbert", spec, "--max-deg", str(max_deg)])
    assert got == code
    if code == 0:
        assert "chain-3-grammar: ambiguity counterexample found" in out.splitlines()
        assert out.splitlines()[-1] == "series-vs-oracle: ok to degree 7"
    else:
        assert err == "mathematical failure: Hilbert series disagrees with the oracle to degree 8\n"


@pytest.mark.parametrize("text, why", [
    ("n: 2\nchain 1: rational t^2\n", "chain 1 is rational"),
    ("n: 2\n", "chain 1 is absent"),
    ("n: 2\nchain 1: grammar abc.gf\n", "chain 1 has 3 letters, n is 2"),
    ("n: 300\nchain 1: grammar ab.gf\n", "chain 1 has 2 letters, n is 300"),  # > 255 letters
])
def test_hilbert_oracle_skipped(tmp_path, capsys, text, why):
    write(tmp_path, "ab.gf", "terminals: a b\nvariables: S\nstart: S\nS -> a b\n")
    write(tmp_path, "abc.gf", "terminals: a b c\nvariables: S\nstart: S\nS -> a b\n")
    code, out, _ = run(capsys, ["hilbert", write(tmp_path, "spec.hs", text)])
    assert code == 0
    assert out.splitlines()[-1] == "series-vs-oracle: skipped: " + why


@pytest.mark.parametrize("terminals, n", [("a b", "3"), ("a b", "x y z"), ("_2 __2", "3")])
def test_hilbert_oracle_counts_free_letters(tmp_path, capsys, terminals, n):
    # chain 1 uses 2 of the n letters; the others are free generators, whose
    # names must not clash with chain 1's
    rule = "S -> %s\n" % terminals
    write(tmp_path, "ab.gf", "terminals: %s\nvariables: S\nstart: S\n" % terminals + rule)
    spec = write(tmp_path, "spec.hs", "n: %s\nchain 1: grammar ab.gf\n" % n)
    code, out, _ = run(capsys, ["hilbert", spec, "--max-deg", "6"])
    assert code == 0
    lines = out.splitlines()
    assert "series: 1,3,8,21,55,144,377" in lines
    assert lines[-1] == "series-vs-oracle: ok to degree 6"


def test_hilbert_oracle_on_free_letters_catches_a_dropped_chain(tmp_path, capsys):
    # {a b a, b a b} over 3 letters has a nonempty chain 2; without it the
    # spec's series is wrong, and counting over all 3 letters shows it
    write(tmp_path, "r.gf", "terminals: a b\nvariables: S\nstart: S\nS -> a b a | b a b\n")
    spec = write(tmp_path, "spec.hs", "n: 3\nchain 1: grammar r.gf\n")
    code, _, err = run(capsys, ["hilbert", spec, "--max-deg", "6"])
    assert code == 1
    assert "disagrees with the oracle to degree 6" in err


def test_hilbert_chain_mismatch_keeps_report(tmp_path, capsys):
    # chain 2 given chain 1's grammar: the set formulas disagree with it
    write(tmp_path, "c1.gf", LUKAS1_CHAINS[0])
    write(tmp_path, "c3.gf", LUKAS1_CHAINS[2])
    spec = write(
        tmp_path, "spec.hs",
        "n: 6\nchain 1: grammar c1.gf\nchain 2: grammar c1.gf\nchain 3: grammar c3.gf\n",
    )
    code, out, _ = run(capsys, ["hilbert", spec, "--verify-chains", "6"])
    assert code == 1
    assert "chain-2-verify: MISMATCH" in out.splitlines()


def test_hilbert_below_derivative_valuation(tmp_path, capsys):
    # val q'(H) = 3 for lukas1, so the check needs the E-series past degree 0
    code, out, _ = run(capsys, ["hilbert", _lukas1_spec(tmp_path), "--max-deg", "0"])
    assert code == 0
    assert "series: 1\n" in out
    assert "series-bound: 0" in out


def _bump_top(coeffs):
    return list(coeffs[:-1]) + [coeffs[-1] + 1]


@pytest.mark.parametrize("command", ["gamma", "hilbert"])
def test_count_off_by_one_is_a_math_failure(tmp_path, capsys, monkeypatch, command):
    # the counted series with its top coefficient off by one must fail the
    # check against the eliminated polynomial, in the library and the CLI
    if command == "gamma":
        real = csys.count_derivations
        monkeypatch.setattr(
            csys, "count_derivations",
            lambda g, d, root=None: {j: _bump_top(c) for j, c in real(g, d, root).items()},
        )
        with pytest.raises(NchilbertError):
            csys.gamma_algebraic(parse_grammar(IFTHENELSE), 12)
        argv = ["gamma", write(tmp_path, "g.gf", IFTHENELSE), "--max-deg", "12"]
    else:
        # three chains: the bumps add up to +1 at t^10 in the E-series
        real = homology._descriptor_series
        monkeypatch.setattr(
            homology, "_descriptor_series",
            lambda kind, payload, d: TruncatedSeries(
                _bump_top(real(kind, payload, d).coeffs), d
            ),
        )
        chains = tuple(("grammar", parse_grammar(t)) for t in LUKAS1_CHAINS)
        with pytest.raises(NchilbertError):
            homology.hilbert_from_homology(homology.HomologySpec(6, chains), 10)
        argv = ["hilbert", _lukas1_spec(tmp_path), "--max-deg", "10"]
    code, _, err = run(capsys, argv)
    assert code == 1
    assert err.startswith("mathematical failure: ")


UCHAIN2_LINES = [
    "gldim: infinite",
    "gamma-R: t",
    "gamma-Rp: t",
    "gamma-Q: t",
    "euler-polynomial: (2*t + 1)*E^2 + (10*t^2 + t - 2)*E + (13*t^3 - 4*t^2 - 3*t + 1)",
    "hilbert-polynomial: (13*t^3 - 4*t^2 - 3*t + 1)*H^2 + (10*t^2 + t - 2)*H + (2*t + 1)",
    "closed-form: HS^-1 = 1 - 3*t + (t)*(t)*gL / (1 + (t)*gL)",
    "series: 1,3,8,22,59,160,430,1161,3123",
    "series-bound: 8",
    "certified: unambiguous to degree 12",
    "series-vs-oracle: ok to degree 8",
]


@pytest.mark.parametrize("command", ["uchain2", "hilbert"])
def test_uchain2_report(tmp_path, capsys, command):
    # dyck sandwich: R = R' = {x}, Dyck over {a, b}
    r = write(tmp_path, "r.lang", "x\n")
    gf = write(tmp_path, "dyck.gf", DYCK)
    if command == "uchain2":
        argv = ["uchain2", "--r", r, "--rp", r, "--grammar", gf, "--alphabet", "x"]
    else:
        spec = write(
            tmp_path, "spec.hs",
            "n: x\ngldim: infinite-uchain2 R=r.lang Rp=r.lang L=dyck.gf\n",
        )
        argv = ["hilbert", spec]
    code, out, _ = run(capsys, argv + ["--max-deg", "8"])
    assert code == 0
    assert out.splitlines() == UCHAIN2_LINES


def test_uchain2_wrong_closed_form_exits_1(tmp_path, capsys):
    # relations x w {x x, x y}: 242 normal words of degree 4, the closed form says 240
    r = write(tmp_path, "r.lang", "x\n")
    rp = write(tmp_path, "rp.lang", "x x\nx y\n")
    gf = write(tmp_path, "dyck.gf", DYCK)
    argv = ["uchain2", "--r", r, "--rp", rp, "--grammar", gf, "--alphabet", "x y"]
    code, out, err = run(capsys, argv + ["--max-deg", "9"])
    assert code == 1
    assert out == ""
    assert err.startswith("mathematical failure: Hilbert series disagrees with the oracle")


@pytest.mark.parametrize("command", ["uchain2", "hilbert", "hilbert-chain"])
def test_unproductive_start_exits_2(tmp_path, capsys, command):
    # the grammar of a sandwich or of a chain derives no word
    r = write(tmp_path, "r.lang", "x\n")
    gf = write(tmp_path, "g.gf", "terminals: a\nvariables: S\nstart: S\nS -> a S\n")
    if command == "uchain2":
        argv = ["uchain2", "--r", r, "--rp", r, "--grammar", gf, "--alphabet", "x"]
    else:
        text = "n: x\ngldim: infinite-uchain2 R=r.lang Rp=r.lang L=g.gf\n"
        if command == "hilbert-chain":
            text = "n: 1\nchain 1: grammar g.gf\n"
        argv = ["hilbert", write(tmp_path, "spec.hs", text)]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "input error: start variable S derives no word\n"


def test_uchain2_alphabet_overlapping_grammar_exits_2(tmp_path, capsys):
    r = write(tmp_path, "r.lang", "a\n")
    gf = write(tmp_path, "dyck.gf", DYCK)
    argv = ["uchain2", "--r", r, "--rp", r, "--grammar", gf, "--alphabet", "a"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "input error: alphabets overlap on ['a']\n"


# cases whose error is raised while the named file is parsed
PARSE_TIME = {
    "chain-without-index",
    "gldim-not-a-number",
    "uchain2-without-Rp",
    "uchain2-with-chain-line",
    "uchain2-with-gldim",
    "repeated-chain-line",
    "repeated-n-line",
    "gsb-zero-denominator",
    "rational-zero-denominator",
    "rational-zero-polynomial-denominator",
    "govorov-eps-basis",
    "govorov-one-letter-basis",
    "chains-eps-basis",
    "chains-one-letter-basis",
    "gamma-empty-alternative",
    "gamma-empty-right-hand-side",
    "gamma-duplicate-production",
    "gamma-terminal-is-variable",
    "gamma-variable-without-rule",
    "gamma-repeated-terminals",
    "relations-second-alphabet",
    "relations-family-unknown-symbol",
    "relations-empty-family",
    "gsb-second-alphabet",
    "chains-key",
    "chain-non-ascii-index",
    "spec-grammar-unknown-symbol",
    "spec-grammar-nul-name",
    "grammar-newline-name",
}
# parse-time cases whose error lies in a file that the named file refers to
REFERENCED = {
    "relations-family-unknown-symbol": "bad.gf",
    "spec-grammar-unknown-symbol": "bad.gf",
    "spec-grammar-nul-name": "a\0b",
}
GOVOROV_1 = ["govorov-chains", "--alphabet", "x y", "--index", "1"]
CHAINS = ["chains", "--alphabet", "x y"]
UCHAIN2_GLDIM = "gldim: infinite-uchain2 R=r.lang Rp=r.lang L=g.gf\n"
MALFORMED = {
    "chain-without-index": ("spec.hs", "n: x y\nchain: grammar g.gf\n", ["hilbert"]),
    "gldim-not-a-number": ("spec.hs", "n: x y\ngldim: abc\n", ["hilbert"]),
    "uchain2-without-Rp": (
        "spec.hs", "n: x\ngldim: infinite-uchain2 R=r.lang L=g.gf\n", ["hilbert"],
    ),
    "uchain2-verify-chains": (
        "spec.hs", "n: x\n" + UCHAIN2_GLDIM, ["hilbert", "--verify-chains", "4"],
    ),
    "uchain2-with-chain-line": (
        "spec.hs", "n: x\n" + UCHAIN2_GLDIM + "chain 1: grammar g.gf\n", ["hilbert"],
    ),
    "uchain2-with-gldim": ("spec.hs", "n: x\n" + UCHAIN2_GLDIM + "gldim: 2\n", ["hilbert"]),
    "repeated-chain-line": (
        "spec.hs", "n: x\nchain 1: rational t^3\nchain 1: finite r.lang\n", ["hilbert"],
    ),
    "repeated-n-line": ("spec.hs", "n: x\nn: 2\n", ["hilbert"]),
    "gsb-zero-denominator": ("p.txt", "alphabet: x y\n1/0 x x\n", ["gsb"]),
    "verify-chains-without-chains": ("spec.hs", "n: 2\n", ["hilbert", "--verify-chains", "3"]),
    "rational-zero-denominator": ("spec.hs", "n: 1\nchain 1: rational 1/0\n", ["hilbert"]),
    "rational-zero-polynomial-denominator": (
        "spec.hs", "n: 1\nchain 1: rational t/0*t\n", ["hilbert"],
    ),
    "govorov-eps-basis": ("l1.lang", "eps\n", GOVOROV_1),
    "govorov-one-letter-basis": ("l1.lang", "x\n", GOVOROV_1),
    "chains-eps-basis": ("l1.lang", "eps\nx y\n", CHAINS),
    "chains-one-letter-basis": ("l1.lang", "x\n", CHAINS),
    "gamma-empty-alternative": (
        "g.gf", "terminals: x\nvariables: S\nstart: S\nS -> x S S |\n", ["gamma"],
    ),
    "gamma-empty-right-hand-side": (
        "g.gf", "terminals: x\nvariables: S\nstart: S\nS -> x\nS ->\n", ["gamma"],
    ),
    "gamma-unknown-keep": ("g.gf", DYCK, ["gamma", "--keep", "Z"]),
    "gamma-unproductive-start": (
        "g.gf", "terminals: a\nvariables: S\nstart: S\nS -> S\n", ["gamma"],
    ),
    "gamma-unproductive-keep": (
        "g.gf", "terminals: a\nvariables: S A\nstart: S\nS -> a | A\nA -> A A\n",
        ["gamma", "--keep", "A"],
    ),
    # A is productive, unreachable from S and on an epsilon cycle: S's series
    # ignores it, but counting the kept A must refuse it at once
    "gamma-unreachable-epsilon-cycle": (
        "g.gf",
        "terminals: x\nvariables: S A B\nstart: S\nS -> x\nA -> A A | eps\nB -> x\n",
        ["gamma", "--keep", "A"],
    ),
    "gamma-duplicate-production": (
        "g.gf", "terminals: x\nvariables: S\nstart: S\nS -> x | x\n", ["gamma"],
    ),
    "gamma-terminal-is-variable": (
        "g.gf", "terminals: x S\nvariables: S\nstart: S\nS -> x\n", ["gamma"],
    ),
    "gamma-variable-without-rule": (
        "g.gf", "terminals: x\nvariables: S T\nstart: S\nS -> x\n", ["gamma"],
    ),
    "gamma-repeated-terminals": (
        "g.gf", "terminals: x\nterminals: x y\nvariables: S\nstart: S\nS -> x\n",
        ["gamma"],
    ),
    # the second line used to switch the alphabet: the oracle printed 1,3,8,22
    "relations-second-alphabet": (
        "rels.txt", "alphabet: x y\nx x\nalphabet: x y z\n", ["oracle", "--max-deg", "3"],
    ),
    "relations-family-unknown-symbol": (
        "rels.txt", "alphabet: x\nfamily: x @bad.gf\n", ["oracle"],
    ),
    # a family with no tokens is the relation eps, which would quietly give
    # the zero algebra
    "relations-empty-family": ("rels.txt", "alphabet: a b\nfamily:\n", ["oracle"]),
    "gsb-second-alphabet": (
        "p.txt", "alphabet: x y\nx y - y x\nalphabet: x y z\nz x\n", ["gsb"],
    ),
    "chains-key": ("spec.hs", "n: x y\nchains 1: rational t^2\n", ["hilbert"]),
    "chain-non-ascii-index": ("spec.hs", "n: 1\nchain \u00b2: rational t\n", ["hilbert"]),
    "spec-grammar-unknown-symbol": ("spec.hs", "n: 1\nchain 1: grammar bad.gf\n", ["hilbert"]),
    # open() raises ValueError, not OSError, for a name holding a NUL byte
    "spec-grammar-nul-name": ("spec.hs", "n: 1\nchain 1: grammar a\0b\n", ["hilbert"]),
    # a name is escaped in the message, so the message stays one line
    "grammar-newline-name": (
        "g\nx.gf", "terminals: x\nvariables: S\nstart: S\nS -> x y\n", ["gamma"],
    ),
    "gldim-beside-one-chain": (
        "spec.hs", "n: x y\nchain 1: rational t^2\ngldim: 3\n", ["hilbert"],
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2(tmp_path, capsys, case):
    name, text, argv = MALFORMED[case]
    write(tmp_path, "r.lang", "x\n")
    write(tmp_path, "g.gf", DYCK)
    write(tmp_path, "bad.gf", "terminals: x\nvariables: S\nstart: S\nS -> x y\n")
    path = write(tmp_path, name, text)
    code, _, err = run(capsys, argv[:1] + [path] + argv[1:])
    assert code == 2
    assert err.startswith("input error: ")
    assert len(err.splitlines()) == 1
    assert "\0" not in err
    assert "Traceback" not in err
    if case in PARSE_TIME:
        assert escaped(path) in err
    if case in REFERENCED:
        assert escaped(str(tmp_path / REFERENCED[case])) in err


def escaped(path):
    return path.replace("\0", "\\x00").replace("\n", "\\n")


def test_shown_escapes_only_unprintable_characters():
    assert cli._shown("a\0b\nc\x1bd/\u00e9\u03b1 '\\") == "a\\x00b\\nc\\x1bd/\u00e9\u03b1 '\\"


FUZZ_BASES = {  # file name, text, command; dyck.gf and c1.lang sit beside it
    "grammar": ("g.gf", IFTHENELSE, "gamma"),
    "presentation": ("p.txt", FP_PRESENTATION, "gsb"),
    "relations": ("rels.txt", "alphabet: x a b\nx x a\nfamily: x @dyck.gf x\n", "oracle"),
    "spec": ("spec.hs", "n: x y\nchain 1: finite c1.lang\nchain 2: rational t^3\n", "hilbert"),
    "grammar-spec": ("spec.hs", "n: 2\nchain 1: grammar dyck.gf\n", "hilbert"),
    "verify-spec": ("spec.hs", "n: x y\nchain 1: finite c1.lang\n", "hilbert --verify-chains 4"),
    "infinite-uchain2": (
        "spec.hs", "n: x y\ngldim: infinite-uchain2 R=c1.lang Rp=c1.lang L=dyck.gf\n",
        "hilbert",
    ),
}
FUZZ_TOKENS = [
    " ", "\n", "|", "->", "eps", "x", "y", "a", "S", "A", "#", ":", "0", "-",
    "1/0", "t", "@", "^", "*", "/", "2", "'", "(", "chain 3:", "family:",
]


@settings(max_examples=300, deadline=None, database=None)
@given(
    kind=st.sampled_from(sorted(FUZZ_BASES)),
    edits=st.lists(
        st.tuples(
            st.sampled_from(("delete", "insert", "replace")),
            st.integers(0, 400),
            st.sampled_from(FUZZ_TOKENS),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_mutated_inputs_never_exit_4(tmp_path_factory, kind, edits):
    name, text, command = FUZZ_BASES[kind]
    command, *options = command.split()
    for op, pos, tok in edits:
        pos %= len(text) + 1
        cut = len(tok) if op != "insert" else 0
        text = text[:pos] + (tok if op != "delete" else "") + text[pos + cut:]
    tmp = tmp_path_factory.mktemp("fuzz")
    write(tmp, "dyck.gf", DYCK)
    write(tmp, "c1.lang", "x x\n")
    path = write(tmp, name, text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, path, *options, "--max-deg", "6"])
    assert code in (0, 1, 2, 3), err.getvalue()


def test_python_m_nchilbert_help():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "nchilbert", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "govorov-chains" in proc.stdout
