"""Hook-coverage self-test of the benchmark's tracer, at tiny degrees.

    PYTHONPATH=src python3 -m pytest -q bench/test_hooks.py

Runs every workload once at tiny degrees under the tracer. It fails, naming
the function, when a hooked function is missing, when a per-layer metric of
BENCHMARK.json has no hook feeding it, when a hooked function is called by
no workload, or when a `.calls` metric reads 0 on the workload it maps to. A later refactor (a new binding, a renamed
function) thus cannot make a layer silently read zero.
"""

import importlib
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
for path in (BENCH_DIR.parent / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# The workload each `.calls` metric must be non-zero on (README.md's map).
CALLS_ON = {
    "groebner.reduce_poly.calls": "examples",
    "ratfunc.gcd.calls": "examples",
    "newton.newton_series.calls": "series_deep",
    "ratfunc.series.calls": "series_deep",
    "multipoly.eval_series.calls": "series_deep",
    "grammar.enumerate_words.calls": "series_deep",
    "words.trunc_product.calls": "monoid",
    "gsb.nc_reduce.calls": "monoid",
}


def traced_tiny_run(nc, workload):
    cases = workloads.build(workload, nc, seed=1, tiny=True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for case in cases:
            case.run()
    finally:
        tracer.uninstall()
    return tracer


def test_hook_coverage():
    with open(BENCH_DIR.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["per_layer"] if m["name"] != "trace.overhead_s"]
    assert set(CALLS_ON) == {n for n in names if n.endswith(".calls")}

    # the already-imported library: a fresh import would split the classes
    # seen by other tests in the same pytest run
    nc = importlib.import_module("nchilbert")
    runs = {w: traced_tiny_run(nc, w) for w in workloads.WORKLOADS}
    hooks = {h.name: h for h in tracing.HOOKS}
    problems = []
    for name in names:
        try:
            runs["examples"].value(name)
        except KeyError as exc:
            problems.append(str(exc))
    for metric, workload in CALLS_ON.items():
        if runs[workload].value(metric) == 0:
            hook = hooks[metric[: -len(".calls")]]
            problems.append("%s reads 0 on %s: nchilbert.%s.%s is unhooked or not called"
                            % (metric, workload, hook.module, hook.attr))
    for hook in tracing.HOOKS:
        if not any(tracer.calls[hook.name] for tracer in runs.values()):
            problems.append("no workload calls nchilbert.%s.%s" % (hook.module, hook.attr))
    assert not problems, "\n".join(problems)


if __name__ == "__main__":
    test_hook_coverage()
    print("hook coverage ok")
