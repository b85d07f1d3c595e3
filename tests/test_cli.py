"""Command-line entry point: exit codes and output contract."""

import pytest

from nchilbert import csys, homology
from nchilbert.cli import main
from nchilbert.errors import NchilbertError
from nchilbert.examples import DYCK, IFTHENELSE, LUKAS1_CHAINS
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


def test_gamma_negative_degree(tmp_path, capsys):
    gf = write(tmp_path, "g.gf", DYCK)
    code, _, _ = run(capsys, ["gamma", gf, "--max-deg", "-1"])
    assert code == 2


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


def test_quotient_grammar(tmp_path, capsys):
    gf = write(
        tmp_path, "rl.gf",
        "terminals: x y\nvariables: A1 A2 A3\nstart: A1\n"
        "A1 -> eps | x A1 | y A2\nA2 -> eps | x A3 | y A2\nA3 -> x A3 | y A3\n",
    )
    code, out, _ = run(capsys, ["quotient-grammar", gf, "--quotient", "y"])
    assert code == 0
    assert "terminals: x y" in out


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


def test_oracle(tmp_path, capsys):
    rf = write(tmp_path, "rels.txt", "alphabet: x y\nx x\n")
    code, out, _ = run(capsys, ["oracle", rf, "--max-deg", "6"])
    assert code == 0
    assert "series: 1,2,3,5,8,13,21" in out


def test_hilbert_spec_with_chain_verification(tmp_path, capsys):
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
    assert code == 0
    assert "chain-2-verify: ok to degree 6" in out
    assert "chain-3-verify: ok to degree 6" in out


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


def test_verify_example(capsys):
    code, out, _ = run(capsys, ["verify-example", "xystar"])
    assert code == 0
    assert "result: ok" in out


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
            lambda g, d: {j: _bump_top(c) for j, c in real(g, d).items()},
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
        lines = ["n: 6"]
        for i, text in enumerate(LUKAS1_CHAINS, start=1):
            write(tmp_path, "c%d.gf" % i, text)
            lines.append("chain %d: grammar c%d.gf" % (i, i))
        argv = ["hilbert", write(tmp_path, "spec.hs", "\n".join(lines) + "\n"),
                "--max-deg", "10"]
    code, _, err = run(capsys, argv)
    assert code == 1
    assert err.startswith("mathematical failure: ")


UCHAIN2_LINES = [
    "gamma-R: t",
    "gamma-Rp: t",
    "gamma-Q: t",
    "closed-form: HS^-1 = 1 - 3*t + (t)*(t)*gL / (1 + (t)*gL)",
    "series: 1,3,8,22,59,160,430,1161,3123",
    "series-bound: 8",
    "certified: unambiguous to degree 12",
]


@pytest.mark.parametrize("command", ["uchain2", "hilbert"])
def test_uchain2_report(tmp_path, capsys, command):
    # dyck sandwich: R = R' = {x}, Dyck over {a, b}
    r = write(tmp_path, "r.lang", "x\n")
    gf = write(tmp_path, "dyck.gf", DYCK)
    if command == "uchain2":
        argv = ["uchain2", "--r", r, "--rp", r, "--grammar", gf, "--alphabet", "x"]
        want = UCHAIN2_LINES
    else:
        spec = write(
            tmp_path, "spec.hs",
            "n: x\ngldim: infinite-uchain2 R=r.lang Rp=r.lang L=dyck.gf\n",
        )
        argv = ["hilbert", spec]
        want = ["gldim: infinite"] + UCHAIN2_LINES
    code, out, _ = run(capsys, argv + ["--max-deg", "8"])
    assert code == 0
    assert out.splitlines() == want


# cases whose error is raised while the named file is parsed
PARSE_TIME = {
    "chain-without-index",
    "gldim-not-a-number",
    "uchain2-without-Rp",
    "gsb-zero-denominator",
}
MALFORMED = {
    "chain-without-index": ("spec.hs", "n: x y\nchain: grammar g.gf\n", ["hilbert"]),
    "gldim-not-a-number": ("spec.hs", "n: x y\ngldim: abc\n", ["hilbert"]),
    "uchain2-without-Rp": (
        "spec.hs", "n: x\ngldim: infinite-uchain2 R=r.lang L=g.gf\n", ["hilbert"],
    ),
    "gsb-zero-denominator": ("p.txt", "alphabet: x y\n1/0 x x\n", ["gsb"]),
    "gamma-unknown-keep": ("g.gf", DYCK, ["gamma", "--keep", "Z"]),
    "gamma-unproductive-start": (
        "g.gf", "terminals: a\nvariables: S\nstart: S\nS -> S\n", ["gamma"],
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2(tmp_path, capsys, case):
    name, text, argv = MALFORMED[case]
    write(tmp_path, "r.lang", "x\n")
    write(tmp_path, "g.gf", DYCK)
    path = write(tmp_path, name, text)
    code, _, err = run(capsys, argv[:1] + [path] + argv[1:])
    assert code == 2
    assert err.startswith("input error: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    if case in PARSE_TIME:
        assert path in err
