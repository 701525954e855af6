"""Benchmark of the semiquandles package: one workload per run.

    python3 perfbench/run.py --workload invariants --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
its `src/`.  One process and one thread, a closed loop with one caller.
A run sets up (import, builtin bundles with their axiom checks, the
workload's inputs) SETUP_REPEATS times, makes one untimed warm-up pass
over the operation list, checks every output of that pass, and then
makes timed passes until --seconds have gone by, at least MIN_PASSES
of them, with one more set-up before each.  Every timed output must
equal the checked warm-up output.  Before the timed passes the heap is
frozen (gc.freeze), so the collector scans only what the program
allocates, not the benchmark's own data.

The last line of stdout is one JSON object: correct, attempted, failed
and the metrics, which are the end-to-end metrics with --trace 0 and the
per-layer metrics with --trace 1.  A summary goes to stderr.  With
--trace 1 half the time goes to untraced passes and half to traced
ones, and the spans of the last traced pass are written to
perfbench/out/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3       # set-ups before the warm-up pass
MIN_PASSES = 4          # timed passes with --trace 0
TAIL_BEYOND = 10        # op_tail_ms has this many operations above it

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))


def _package_modules() -> list:
    return [m for m in sys.modules if m == "semiquandles" or m.startswith("semiquandles.")]


def setup(workload: str, seed: int):
    """Import the package afresh and build the workload's operations in a
    new input directory; returns (seconds, package, operations, inputs)."""
    inputs = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT))
    start = time.perf_counter()
    for name in _package_modules():
        del sys.modules[name]
    pkg = importlib.import_module("semiquandles")
    importlib.import_module("semiquandles.cli")
    for name in pkg.algebra.BUILTIN_BUNDLES:
        pkg.algebra.builtin_bundle(name)
    ops = workloads.BUILD[workload](pkg, seed, inputs)
    return time.perf_counter() - start, pkg, ops, inputs


def spare_setup(workload: str, seed: int) -> float:
    """Time one more set-up, then discard it and put the measured
    package's modules back, so the operations keep the modules they were
    built on."""
    kept = {name: sys.modules[name] for name in _package_modules()}
    try:
        seconds, _, _, inputs = setup(workload, seed)
        shutil.rmtree(inputs)
    finally:
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(kept)
    return seconds


def call(op):
    try:
        return op.run()
    except Exception as e:        # a failing operation is counted, not fatal
        return workloads.Raised(type(e).__name__, str(e))


def timed_pass(ops, outputs, bad: set, tracer=None) -> list:
    """Run every operation once; returns the per-operation seconds.  An
    output that differs from the checked warm-up output marks its
    operation bad for the run."""
    gc.collect()
    clock = time.perf_counter
    times = []
    for i, op in enumerate(ops):
        t = clock()
        out = call(op) if tracer is None else tracer.span("op " + op.name, call, op)
        times.append(clock() - t)
        if out != outputs[i]:
            bad.add(i)
    return times


def passes_until(seconds, minimum, ops, outputs, bad, tracer=None,
                 before=None, after=None) -> list:
    runs = []
    start = time.perf_counter()
    while len(runs) < minimum or time.perf_counter() - start < seconds:
        if before:
            before()
        if tracer is not None:
            tracer.reset()
        runs.append(timed_pass(ops, outputs, bad, tracer))
        if after:
            after()
    return runs


def tail_index(n: int) -> int:
    """Index in ascending order of the value with TAIL_BEYOND values above it."""
    return n - 1 - TAIL_BEYOND


def op_medians(runs) -> list:
    """Each operation's median time over the passes."""
    return [statistics.median(ts) for ts in zip(*runs)]


def end_to_end(runs, setup_s) -> dict:
    per_op = sorted(op_medians(runs))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(sum(r) for r in runs),
        "op_p50_ms": 1000 * statistics.median(per_op),
        "op_tail_ms": 1000 * per_op[tail_index(len(per_op))],
        "peak_rss_mb": rss_kb / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILD))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    setup_times = [spare_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
    seconds, pkg, ops, inputs = setup(args.workload, args.seed)
    setup_times.append(seconds)
    try:
        return measure(args, pkg, ops, setup_times)
    finally:
        shutil.rmtree(inputs)


def measure(args, pkg, ops, setup_times: list) -> int:
    n = len(ops)
    if n < TAIL_BEYOND * 4:
        raise SystemExit(f"{args.workload}: {n} operations, op_tail_ms needs 40")
    t0 = time.perf_counter()
    outputs = [call(op) for op in ops]
    t1 = time.perf_counter()
    results = {op.name: out for op, out in zip(ops, outputs)}
    failures = {}
    for i, op in enumerate(ops):
        try:
            op.check(outputs[i], results)
        except Exception as e:    # any exception in a check is a failed check
            failures[i] = f"{type(e).__name__}: {e}"
    t2 = time.perf_counter()
    # the benchmark's own heap (checks, warm-up outputs) is frozen out of the
    # collector, so collections in the timed passes scan only what the
    # program allocates, as they would in a command-line run
    gc.collect()
    gc.freeze()
    bad = set()
    if args.trace:
        untraced = passes_until(args.seconds / 2, 2, ops, outputs, bad)
        tracer = spans.Tracer()
        undo = tracer.install(pkg)
        layer_runs = []
        traced = passes_until(args.seconds / 2, 1, ops, outputs, bad, tracer,
                              after=lambda: layer_runs.append(spans.layer_metrics(tracer)))
        spans.Tracer.uninstall(undo)
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({"ops": [op.name for op in ops],
                                          "spans": tracer.spans}))
        runs = untraced + traced
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        metrics = {name: {"value": statistics.median(r[name] for r in layer_runs),
                          "unit": units[name]} for name in layer_runs[0]}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(sum(r) for r in traced)
            - statistics.median(sum(r) for r in untraced), "unit": "s"}
    else:
        # a set-up before every pass samples the host at many moments
        runs = passes_until(args.seconds, MIN_PASSES, ops, outputs, bad, before=lambda:
                            setup_times.append(spare_setup(args.workload, args.seed)))
        metrics = end_to_end(runs, statistics.median(setup_times))

    passes = 1 + len(runs)
    failed_ops = set(failures) | bad
    unexpected = [ops[i].name for i in failed_ops if ops[i].name not in workloads.FAULTS]
    for i in sorted(failed_ops):
        reason = failures.get(i, "output differs between passes")
        print(f"FAILED {ops[i].name}: {reason}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {n} operations x {passes} passes "
          f"(1 warm-up); op_tail_ms is the {100 * (n - TAIL_BEYOND) // n}th percentile",
          file=sys.stderr)
    print(f"set-up median {statistics.median(setup_times):.3f} s of {len(setup_times)}; "
          f"warm-up {t1 - t0:.1f} s; checks {t2 - t1:.1f} s; timed passes "
          f"{time.perf_counter() - t2:.1f} s: " + " ".join(f"{sum(r):.3f}" for r in runs),
          file=sys.stderr)
    slowest = sorted(zip(op_medians(runs), ops), key=lambda x: -x[0])[:TAIL_BEYOND + 1]
    print("slowest: " + "; ".join(f"{op.name} {1000 * t:.1f} ms" for t, op in slowest),
          file=sys.stderr)
    print(json.dumps({"correct": not unexpected, "attempted": n * passes,
                      "failed": len(failed_ops) * passes, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if not (SRC / "semiquandles" / "cli.py").is_file():
        print(f"run.py: no package source at {SRC}; run from the root of a "
              "semiquandles checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
