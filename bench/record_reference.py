"""Record the reference outputs every benchmark run is checked against.

    python3 bench/record_reference.py

Runs each fixed case of every workload once, untimed, and writes its digest
to reference.json. It also records, under "records", the fp leading language
at D = 8, 10 and 12 (the D = 12 completion alone takes over a minute); no
run re-checks those, they are kept so that a later change to completion can
be compared with them.

The reference is the meaning of "correct" for the benchmark: regenerate it
only when an output is meant to change, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

RECORD_DEGREES = (8, 10, 12)


def _self_checks_pass(digest):
    """The cross-checks a case runs itself all came out true."""
    return all(v for k, v in digest.items() if k == "ok" or k.endswith("_ok"))


def main():
    nc = workloads.fresh_import()
    reference = {}
    for workload in workloads.WORKLOADS:
        reference[workload] = {}
        for case in workloads.build(workload, nc, seed=0):
            if case.expected is not None:
                continue  # expected output fixed by the workload itself
            digest = case.run()
            if not _self_checks_pass(digest):
                raise SystemExit("%s/%s fails its own checks: %r" % (workload, case.name, digest))
            reference[workload][case.name] = digest
            print("recorded", workload, case.name, flush=True)

    _, order, relations, predicted = workloads.fp_inputs(nc, variant=False)
    leading = {}
    for D in RECORD_DEGREES:
        basis = nc.gsb.gs_complete(relations, order, D)
        leading[str(D)] = workloads.leading_digest(nc, basis, order, predicted, D)
        print("recorded fp leading language at D =", D, flush=True)
    reference["records"] = {"fp_leading_language": leading}

    with open(workloads.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
