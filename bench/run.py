#!/usr/bin/env python3
"""Benchmark of the bethecover package.

    python3 bench/run.py --workload ensemble|bounds|covers|all \\
        [--seed N] [--seconds S] [--trace 0|1]

One client runs ops of the workload back to back (a closed loop) in this
process for ``--seconds`` seconds, with BLAS pinned to one thread and the
package's BETHE_COVER_* variables unset.  Every op's result is checked
after the timed phase.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` (ops run and checked), ``failed`` (ops
that raised or failed a check) and ``metrics`` -- the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  The lines before it give the same numbers for a reader,
``fail_ratio``, the sample counts and the environment.  See README.md.

The package is imported from ``src/`` of the checkout that holds this
directory; without it the benchmark exits with code 2.
"""

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import PER_LAYER_UNITS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
TRACE_DIR = ROOT / ".bench_trace"

WORKLOAD_NAMES = ("ensemble", "bounds", "covers")
WARMUP_OPS = 3
SETUP_REPEATS = 3       # set-ups per run: this process plus fresh ones
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
PROGRAM_VARS = ("BETHE_COVER_BACKEND", "BETHE_COVER_LIMITS")

END_TO_END_UNITS = {
    "ops_per_s": "op/s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# Printed for the reader but left out of the result object: when the
# host's speed switches between two levels, a run's median jumps between
# them, so its run-to-run spread exceeds any usable bound (README.md).
PRINTED_ONLY = ("latency_ms.p50",)


def pin_environment():
    """Unset the package's variables and pin BLAS to one thread; returns
    the values the variables had.  Must run before numpy is imported."""
    seen = {name: os.environ.pop(name, None) for name in PROGRAM_VARS}
    os.environ.update(PINNED)
    return seen


def find_program():
    init = SRC / "bethecover" / "__init__.py"
    if not init.is_file():
        raise FileNotFoundError(f"no bethecover package at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def environment(seen):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)),
            "numba_importable": importlib.util.find_spec("numba") is not None,
            **{name: seen[name] for name in PROGRAM_VARS},
            "pinned": PINNED}


def timed_op(op, k):
    """(k, result, error, seconds) of one op; an op that raises is a
    failed op and the run goes on."""
    t0 = time.perf_counter()
    try:
        result, error = op(k), None
    except Exception as exc:  # counted in fail_ratio; reported after
        result, error = None, exc
    return k, result, error, time.perf_counter() - t0


def set_up(name, seed):
    """Import the package, build the inputs and run the warm-up ops.
    Returns the workload, the set-up seconds and the warm-up records."""
    t0 = time.perf_counter()
    import workloads   # imports bethecover

    bc = sys.modules["bethecover"]
    if not Path(bc.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"bethecover imported from {bc.__file__}, "
                          f"not from {SRC}")
    wl = workloads.WORKLOADS[name](seed)
    warm = [timed_op(wl.op, k) for k in range(WARMUP_OPS)]
    return wl, time.perf_counter() - t0, warm


def fresh_setup_seconds(name, seed):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def closed_loop(op, first_k, seconds):
    records = []
    k = first_k
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        records.append(timed_op(op, k))
        k += 1
    return records, time.perf_counter() - start


def load_reference(name, seed):
    """Recorded values of the seed's inputs, keyed by input index."""
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh).get(name, {}).get(str(seed), {})


def check_records(wl, records, reference):
    """(k, problems) of every failed op."""
    failures = []
    for k, result, error, _ in records:
        if error is not None:
            problems = [f"raised {type(error).__name__}: {error}"]
        else:
            problems = wl.check(k, result,
                                reference.get(str(wl.input_of(k))))
        if problems:
            failures.append((k, problems))
    return failures


def p90(samples):
    return statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 \
        else samples[0]


def timed_run(wl, seconds, setups):
    """The untraced closed loop: end-to-end metrics and report lines."""
    gc.collect()
    timed, wall = closed_loop(wl.op, WARMUP_OPS, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    done = [rec[3] * 1000.0 for rec in timed if rec[2] is None]
    metrics = {
        "ops_per_s": len(done) / wall,
        "latency_ms.p50": statistics.median(done) if done else 0.0,
        "latency_ms.p90": p90(done) if done else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    lines = [f"timed phase: {len(timed)} ops in {wall:.3f} s, "
             f"{len(done)} latency samples"
             + ("" if len(done) >= 100 else
                " (fewer than 100: p90 has under 10 samples beyond it)"),
             f"set-up seconds: {', '.join(f'{s:.4f}' for s in setups)}"]
    return metrics, lines, timed


def traced_run(wl, seconds, trace_path):
    """Per-layer metrics: the fixed list of ``wl.trace_ops`` ops runs
    untraced and then traced, in turn, until ``seconds`` have passed.
    Totals are per pass; ``trace.overhead`` compares the two kinds of
    pass over the same inputs."""
    tracer = Tracer()
    ops = range(wl.trace_ops)
    records, plain, traced, passes = [], 0.0, 0.0, 0
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        records += [timed_op(wl.op, k) for k in ops]
        t1 = time.perf_counter()
        first = passes * len(ops)
        tracer.install()
        try:
            records += [timed_op(
                lambda k: tracer.run_op(first + k, wl.op, k), k)
                for k in ops]
        finally:
            tracer.uninstall()
        plain += t1 - t0
        traced += time.perf_counter() - t1
        passes += 1
    metrics = tracer.metrics(passes)
    metrics["trace.overhead"] = plain / traced
    chosen = {}
    for sid, span_name, *_ in tracer.spans:
        info = tracer.info.get(sid)
        if span_name == "experiment.zbm_estimate" and info:
            key = f"M{info['M']}:{info['method']}"
            chosen[key] = chosen.get(key, 0) + 1
    trace_path.parent.mkdir(exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as fh:
        for rec in tracer.records():
            if rec["op"] < len(ops):    # the first pass; later ones repeat it
                fh.write(json.dumps(rec) + "\n")
    lines = [f"traced: {passes} passes of {len(ops)} ops, each run "
             "untraced and then traced",
             "traced zbm_estimate choices: "
             + json.dumps(chosen, sort_keys=True),
             f"spans of the first pass written to "
             f"{trace_path.relative_to(ROOT)}"]
    return metrics, lines, records


def run_workload(name, seed, seconds, trace, setup_repeats=SETUP_REPEATS,
                 reference=None):
    """Run one workload; returns the result object and report lines."""
    wl, setup_here, records = set_up(name, seed)
    if trace:
        metrics, lines, more = traced_run(
            wl, seconds, TRACE_DIR / f"{name}-seed{seed}.jsonl")
        units = PER_LAYER_UNITS
    else:
        setups = [setup_here] + [fresh_setup_seconds(name, seed)
                                 for _ in range(setup_repeats - 1)]
        metrics, lines, more = timed_run(wl, seconds, setups)
        units = END_TO_END_UNITS
    records += more

    if reference is None:
        reference = load_reference(name, seed)
    failures = check_records(wl, records, reference)
    lines.append(f"reference values: {len(reference)} inputs of seed "
                 f"{seed}" if reference else
                 f"reference values: none for seed {seed}; "
                 "cross-route checks only")
    lines += [f"FAILED op {k}: {'; '.join(problems)}"
              for k, problems in failures[:5]]
    raised = [rec[2] for rec in records if rec[2] is not None]
    if raised:
        traceback.print_exception(raised[0], file=sys.stderr)
    methods = {}
    for _, result, error, _ in records:
        if error is None:
            for m, method in wl.methods(result):
                key = f"M{m}:{method}"
                methods[key] = methods.get(key, 0) + 1
    lines.append("estimators in results: "
                 + (json.dumps(methods, sort_keys=True) if methods else
                    "not returned by this op; see the traced run"))
    attempted = len(records)
    lines.append(f"{'fail_ratio':<40} {len(failures) / attempted:>14.6g} 1"
                 f"  ({len(failures)} of {attempted} ops)")
    lines += [f"{metric:<40} {value:>14.6g} {units[metric]}"
              for metric, value in metrics.items()]
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {metric: {"value": value, "unit": units[metric]}
                          for metric, value in metrics.items()
                          if metric not in PRINTED_ONLY}}
    return result, lines


def run_all(args):
    """Every workload in its own process; a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            print(f"workload {name} exited with {out.returncode}",
                  file=sys.stderr)
            return out.returncode
        *lines, last = out.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines))
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    seen = pin_environment()
    try:
        find_program()
    except FileNotFoundError as exc:
        print(f"error: {exc}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        print(set_up(args.workload, args.seed)[1])
        return 0
    result, lines = run_workload(args.workload, args.seed, args.seconds,
                                 args.trace)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s "
          f"closed loop, one client, trace {args.trace}")
    print("environment: " + json.dumps(environment(seen)))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
