"""Benchmark harness for nchilbert.

    python3 bench/run.py --workload examples --seed 1 --seconds 40 --trace 0

Runs one workload (see workloads.py and README.md) in this process: one
caller runs the cases one after another, with no threads, in passes over the
whole workload while another pass still fits in --seconds. Every output is checked against
reference.json. The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, from passes run under the
tracer (tracer.py) and alternated with untraced passes to give the tracing
overhead. The line before it, `record: {...}`, adds the run metadata and the
per-case wall times; --out FILE also appends that record to FILE, for
compare.py.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up takes about 0.08 s; it is repeated before every pass, so that its
# samples spread over the run like the passes do, and the median reported.
SETUP_REPEATS = 7


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def set_up(workload, seed, reference):
    """Import nchilbert afresh and build the workload's inputs, SETUP_REPEATS
    times; returns the last build's cases and every set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # the previous import's garbage is not this set-up's cost
        start = time.perf_counter()
        nc = workloads.fresh_import()
        cases = workloads.build(workload, nc, seed, reference=reference)
        times.append(time.perf_counter() - start)
    where = Path(nc.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit("error: imported nchilbert from %s, not from %s" % (where, SRC))
    return cases, times


# One pass over a workload's cases: wall and CPU seconds of the whole pass,
# {case: wall s} and the failed cases.
Pass = namedtuple("Pass", "wall_s cpu_s case_s failures")


def run_pass(cases):
    gc.collect()
    case_s = {}
    failures = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for case in cases:
        start = time.perf_counter()
        try:
            out = case.run()
        except Exception as exc:  # a raising case is a failed case, not a crashed run
            out = "%s: %s" % (type(exc).__name__, exc)
        case_s[case.name] = time.perf_counter() - start
        if case.expected is None or out != case.expected:
            failures.append({"case": case.name, "got": out, "expected": case.expected})
    return Pass(time.perf_counter() - wall0, time.process_time() - cpu0, case_s, failures)


def git_revision():
    """HEAD of the checkout; None outside a git repository or without git."""
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def metadata(args):
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_revision": git_revision(),
        "seed": args.seed,
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def measure(workload, seed, seconds, traced_metrics=None):
    """Rounds while another round fits in `seconds` (at least one).

    A round is a set-up followed by one untraced pass when `traced_metrics`
    is None, or by an untraced and a traced pass otherwise, after which the
    per-layer metrics named in `traced_metrics` are read. Returns the cases,
    the untraced and the traced passes, the per-layer samples, every set-up
    time and every failure.
    """
    reference = workloads.load_reference()
    plain, traced, layer_samples, setup_times, failures = [], [], [], [], []
    tracer = tracing.Tracer()
    start = time.perf_counter()
    while True:
        cases, times = set_up(workload, seed, reference)
        setup_times += times
        plain.append(run_pass(cases))
        failures += plain[-1].failures
        if traced_metrics is not None:
            tracer.reset()
            tracer.install()
            try:
                traced.append(run_pass(cases))
            finally:
                tracer.uninstall()
            failures += traced[-1].failures
            layer_samples.append({m: tracer.value(m) for m in traced_metrics})
        elapsed = time.perf_counter() - start
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            return cases, plain, traced, layer_samples, setup_times, failures


def _case_times(passes):
    return {name: [p.case_s[name] for p in passes] for name in passes[0].case_s}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    args = parser.parse_args(argv)

    if not (SRC / "nchilbert" / "__init__.py").is_file():
        print("error: no nchilbert sources under %s" % SRC, file=sys.stderr)
        return 2
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    sys.path.insert(0, str(SRC))

    layer_names = [m["name"] for m in spec["per_layer"] if m["name"] != "trace.overhead_s"]
    cases, plain, traced, layer_samples, setup_times, failures = measure(
        args.workload, args.seed, args.seconds, layer_names if args.trace else None
    )
    passes = plain + traced
    attempted = len(cases) * len(passes)

    if args.trace:
        values = {m: statistics.median(s[m] for s in layer_samples) for m in layer_names}
        values["trace.overhead_s"] = (
            statistics.median(p.wall_s for p in traced) - statistics.median(p.wall_s for p in plain)
        )
    else:
        values = {
            "wall_s": statistics.median(p.wall_s for p in plain),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": metadata(args),
        "setup_runs_s": setup_times,
        "pass_wall_s": [p.wall_s for p in plain],
        "pass_cpu_s": [p.cpu_s for p in plain],
        "case_wall_s": _case_times(plain),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "result": result,
    }
    if traced:
        record["traced_pass_wall_s"] = [p.wall_s for p in traced]
        record["traced_case_wall_s"] = _case_times(traced)
    for f in failures[:20]:
        print("FAILED %s: got %.300s" % (f["case"], json.dumps(f["got"])), file=sys.stderr)
    line = json.dumps(record, default=str)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(line + "\n")
    print("record: " + line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
