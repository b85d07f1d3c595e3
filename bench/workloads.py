"""The benchmark's three workloads and the inputs they are built from.

`build(workload, nc, seed)` returns the cases of one workload as `Case`
objects. `run()` computes the case and returns a JSON-able digest of its
outputs; the harness compares it with `expected`, which comes from
`reference.json` (recorded from the code the benchmark was defined on) or,
for the seeded random antichains, from the cross-check the case runs
itself.

Every case reaches the library through module attributes at call time
(`nc.homology.hilbert_oracle(...)`, never a name bound at set-up), so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("examples", "series_deep", "monoid")

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Degrees of the repeated runs. The slower rungs (cert 16: 18 s, gs_complete
# at D = 12: 85 s) stay out; these two still reach the certificate blow-up
# and the nc_reduce cost. lukas1 at d = 40 and 25 antichains keep a pass of
# series_deep and of monoid under about 9 s, so that a 40 s run takes four
# or more passes to draw its median from.
FULL = {
    "gamma_d": 80,
    "hilbert_d": 40,
    "cert_d": 14,
    "gs_D": 10,
    "oracle_d": 12,
    "antichains": 25,
    "chain_k": 3,
    "chain_d": 8,
}

# Tiny degrees for the hook-coverage self-test: every layer is still reached.
TINY = {
    "gamma_d": 10,
    "hilbert_d": 8,
    "cert_d": 8,
    "gs_D": 6,
    "oracle_d": 6,
    "antichains": 3,
    "chain_k": 3,
    "chain_d": 5,
}

TINY_EXAMPLES = {
    "ifthenelse": {"max_deg": 8},
    "palindrome": {"max_deg": 6},
    "xystar": {"max_deg": 4},
    "lukas1": {},
    "dyck-sandwich": {"d": 5},
}


@dataclass
class Case:
    name: str
    run: object  # () -> JSON-able digest of the outputs
    expected: object  # digest the run must return; None when not recorded


def fresh_import():
    """Import nchilbert anew, as a new process would."""
    for name in [m for m in sys.modules if m == "nchilbert" or m.startswith("nchilbert.")]:
        del sys.modules[name]
    return importlib.import_module("nchilbert")


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def _series(s):
    return [str(c) for c in s.coeffs]


def _hex(word):
    return None if word is None else word.hex()


# ---------------------------------------------------------------------------
# examples: the nine verify-example functions at their default degrees


def _examples(nc, seed, p, tiny):
    if tiny:
        # fp and fp-variant complete at a fixed D = 8; too slow for the self-test
        todo = sorted(TINY_EXAMPLES.items())
    else:
        todo = [(name, {}) for name in sorted(nc.examples.REGISTRY)]

    def case(name, kwargs):
        def run():
            report = nc.examples.REGISTRY[name](**kwargs)
            return {"ok": report.ok, "lines": list(report.lines)}
        return Case(name, run, None)

    return [case(name, kwargs) for name, kwargs in todo]


# ---------------------------------------------------------------------------
# series_deep: high-degree series probes


def _central_binomials(d):
    out = []
    for k in range(d + 1):
        c = 1
        for i in range(k // 2):
            c = c * (k - i) // (i + 1)
        out.append(c)
    return out


def _series_deep(nc, seed, p, tiny):
    ex = nc.examples
    ifthenelse = nc.grammar.parse_grammar(ex.IFTHENELSE)
    lukas1 = ex._chain_spec(ex.LUKAS1_CHAINS, 6)
    lukas1_quad = ex.ratpoly("E", ex.LUKAS1_QUAD)
    gamma_d, hilbert_d, cert_d = p["gamma_d"], p["hilbert_d"], p["cert_d"]

    def gamma():
        res = nc.csys.gamma_algebraic(ifthenelse, gamma_d)
        return {
            "poly": repr(res.poly.cleared()),
            "series": _series(res.series),
            "certified": res.certified,
            "binomials_ok": list(res.series.coeffs) == _central_binomials(gamma_d),
        }

    def hilbert():
        res = nc.homology.hilbert_from_homology(lukas1, hilbert_d)
        n = min(len(ex.LUKAS1_SERIES), hilbert_d + 1)
        return {
            "poly_e": repr(res.poly_e.cleared()),
            "series": _series(res.series),
            "certifications": [[i, ok, _hex(w)] for i, ok, w in res.certifications],
            "series_ok": list(res.series.coeffs[:n]) == ex.LUKAS1_SERIES[:n],
            "quadratic_ok": res.poly_e.proportional_to(lukas1_quad),
        }

    def cert():
        certified, witness = nc.grammar.certify_unambiguous(ifthenelse, cert_d)
        return {"certified": certified, "witness": _hex(witness)}

    return [
        Case("gamma_ifthenelse_d%d" % gamma_d, gamma, None),
        Case("hilbert_lukas1_d%d" % hilbert_d, hilbert, None),
        Case("cert_ifthenelse_%d" % cert_d, cert, {"certified": True, "witness": None}),
    ]


# ---------------------------------------------------------------------------
# monoid: completion, the normal-word oracle, and seeded random antichains


def random_antichain(nc, rng, n):
    """The criterion-10 generator over n letters: 1-4 words of length 2-4.

    Criterion 10 draws n from (2, 3); an antichain over 3 letters costs
    about 15 times one over 2, so the workload alternates n instead, and
    every seed draws the same mix.
    """
    alphabet = nc.words.Alphabet(list("xyz"[:n]))
    words = set()
    for _ in range(rng.randint(1, 4)):
        length = rng.randint(2, 4)
        words.add(bytes(rng.randrange(n) for _ in range(length)))
    return nc.words.minimize_antichain(nc.words.FiniteLanguage(alphabet, frozenset(words)))


def fp_inputs(nc, variant):
    """Parsed presentation and predicted leading relations of fp / fp-variant."""
    ex = nc.examples
    text, family = (ex.FPV_PRESENTATION, ex.FPV_FAMILY) if variant else (ex.FP_PRESENTATION, ex.FP_FAMILY)
    alphabet, order, relations = nc.gsb.parse_presentation(text)
    predicted = ex._predicted_relations(alphabet, ex.FP_FINITE, family)
    return alphabet, order, relations, predicted


def leading_digest(nc, basis, order, predicted, D):
    computed = nc.gsb.leading_language(basis, order)
    return {
        "basis_size": len(basis),
        "leading": computed.texts(),
        "predicted_ok": nc.gsb.compare_leading(predicted, computed, D).ok,
    }


def _monoid(nc, seed, p, tiny):
    D, oracle_d = p["gs_D"], p["oracle_d"]
    k, chain_d = p["chain_k"], p["chain_d"]

    def completion(variant):
        alphabet, order, relations, predicted = fp_inputs(nc, variant)

        def run():
            basis = nc.gsb.gs_complete(relations, order, D)
            return leading_digest(nc, basis, order, predicted, D)
        return run

    fp_predicted = fp_inputs(nc, False)[3]

    def oracle():
        return {"series": _series(nc.homology.hilbert_oracle(fp_predicted, oracle_d))}

    def chains_agree(basis):
        def run():
            levels, _ = nc.homology.chains_finite(basis, k)
            l1 = nc.words.TruncatedLanguage(basis.alphabet, chain_d, basis.words)
            for i in range(1, k + 1):
                got = set(nc.homology.govorov_chains_trunc(l1, i, chain_d).words)
                want = {w for w in levels[i - 1].words if len(w) <= chain_d} if i <= len(levels) else set()
                if got != want:
                    return {"agree": False, "index": i}
            return {"agree": True}
        return run

    cases = [
        Case("gs_fp_D%d" % D, completion(False), None),
        Case("gs_fp_variant_D%d" % D, completion(True), None),
        Case("oracle_fp_d%d" % oracle_d, oracle, None),
    ]
    rng = random.Random(seed)
    for i in range(p["antichains"]):
        basis = random_antichain(nc, rng, 2 + i % 2)
        cases.append(Case("antichain_%02d" % i, chains_agree(basis), {"agree": True}))
    return cases


_CASE_MAKERS = {"examples": _examples, "series_deep": _series_deep, "monoid": _monoid}


def build(workload, nc, seed, tiny=False, reference=None):
    """The cases of one workload; `expected` filled from the reference."""
    cases = _CASE_MAKERS[workload](nc, seed, TINY if tiny else FULL, tiny)
    recorded = (reference or {}).get(workload, {})
    for case in cases:
        if case.expected is None and not tiny:
            case.expected = recorded.get(case.name)
    return cases
