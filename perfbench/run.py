"""torusdyn benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: gallery-classify,
curve-certify, orbit-growth (see perfbench/README.md).  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it is the run record (environment,
sizes, input properties).  The exit code is 0 only when every output
was correct.

This process does not import torusdyn.  It starts fresh worker
processes of this same file: with --trace 0, SETUP_SAMPLES - 1 that
only set up, then one that sets up and measures, and reports the median
set-up time of all of them.  With --trace 1 one worker runs every item
once untraced and once traced, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

WORKLOADS = ("gallery-classify", "curve-certify", "orbit-growth")
SETUP_SAMPLES = 3
DEADLINE_S = 170  # for all workers of one run together
TAIL_BEYOND = 10
OUT_DIR = ".bench_out"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("run", "setup", "measure"),
                    default="run", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# statistics


def end_to_end(labels, latencies):
    """Throughput, nearest-rank median, and the latency at the highest
    nearest-rank percentile with at least TAIL_BEYOND items beyond it
    (the maximum if there are too few items for that).

    Every input recurs in a run, and each item counts with the best
    latency of its input (labels name the inputs): on a shared host the
    speed of identical work drifts by a third and more, and the best of
    a few calls spread over the run filters the drift within the run,
    as timeit does.  Nearest ranks keep each figure the latency of one
    input, never the mean of two inputs of different kinds."""
    best = {}
    for label, latency in zip(labels, latencies):
        best[label] = min(latency, best.get(label, latency))
    ordered = sorted(best[label] for label in labels)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    metrics = {
        "items_per_s": (n / sum(ordered), "1/s"),
        "item_p50_s": (ordered[math.ceil(n / 2) - 1], "s"),
        "item_tail_s": (ordered[rank - 1], "s"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, {"percentile": 100.0 * rank / n, "samples": n,
                     "beyond": n - rank, "inputs": len(best)}


def environment(seed):
    import numpy

    from torusdyn import kernels

    return {"backend": kernels.backend_name(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "seed": seed}


# ---------------------------------------------------------------------------
# worker


def set_up(args, out_root):
    """Import, input generation and one warm-up call of every timed path.

    Returns (job, set-up seconds, warm-up problems)."""
    t0 = time.perf_counter()
    import workloads

    job = workloads.build(args.workload, args.seed, args.seconds,
                          workloads.load_reference(), out_root)
    problems = []
    for item in job.warm_items:
        problems += job.problems(item, job.run(item))
    return job, time.perf_counter() - t0, problems


def run_item(job, item):
    """(result or None, latency, problems) of one item."""
    t = time.perf_counter()
    try:
        result = job.run(item)
    except Exception as exc:  # a failed item is counted, never skipped
        return None, time.perf_counter() - t, [f"{type(exc).__name__}: {exc}"]
    latency = time.perf_counter() - t
    return result, latency, job.problems(item, result)


def run_traced(job, item, number, tracer):
    """(latency, problems) of one item run with the wrappers installed."""
    tracer.item, tracer.item_number = job.label(item), number
    tracer.install()
    try:
        return run_item(job, item)[1:]
    finally:
        tracer.uninstall()


def measure(job, tracer=None):
    """Run every item in order; with a tracer, run each item a second
    time with the wrappers installed, traced first on every other item
    so that neither run always finds the caches warm."""
    latencies, traced, results, problems = [], [], [], []
    failed = 0
    start = time.perf_counter()
    for index, item in enumerate(job.items):
        traced_first = tracer is not None and index % 2 == 1
        if traced_first:
            t_latency, t_problems = run_traced(job, item, index, tracer)
        result, latency, item_problems = run_item(job, item)
        if tracer is not None and not traced_first:
            t_latency, t_problems = run_traced(job, item, index, tracer)
        if tracer is not None:
            traced.append(t_latency)
            item_problems += t_problems
        latencies.append(latency)
        results.append(result)
        if item_problems:
            failed += 1
            problems += [f"{job.label(item)}: {p}" for p in item_problems]
    wall = time.perf_counter() - start
    return latencies, traced, wall, results, failed, problems


def run_job(job, workload, seed, seconds, trace, setup_problems=()):
    """Measure a set-up job and check its outputs; the result object
    plus the run record under "record"."""
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
    latencies, traced, wall, results, failed, problems = measure(job, tracer)
    problems = list(setup_problems) + problems
    labels = [job.label(item) for item in job.items]
    record = {
        "workload": workload, "seconds": seconds, "trace": trace,
        "environment": environment(seed), "items": len(job.items),
        "wall_s": wall, "wall_items_per_s": len(job.items) / wall,
        "fail_ratio": failed / len(job.items), "problems": problems[:20],
        "inputs": [
            dict(job.properties(item, result), latency_s=latency)
            for item, result, latency in zip(job.items, results, latencies)],
    }
    if tracer is None:
        metrics, record["tail"] = end_to_end(labels, latencies)
    else:
        import workloads

        metrics = tracer.layer_metrics(sorted(workloads.GALLERY_TABLE))
        metrics["trace.overhead_ratio"] = (sum(latencies) / sum(traced), "1")
        record["per_item"] = tracer.per_item(Counter(labels))
        record["spans_file"] = os.path.join(
            OUT_DIR, f"spans-{workload}-{seed}.jsonl")
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(record["spans_file"])
    return {
        "correct": not problems, "attempted": len(job.items),
        "failed": failed, "record": record,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def worker(args):
    out_root = os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}")
    try:
        job, setup_s, problems = set_up(args, out_root)
        if args.role == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        out = run_job(job, args.workload, args.seed, args.seconds,
                      args.trace, problems)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    out["record"]["setup_s"] = setup_s
    print(json.dumps(out))
    return 0 if out["correct"] else 1


# ---------------------------------------------------------------------------
# orchestration


def spawn(args, role, env, deadline):
    """Run one worker; its parsed last output line, or None if it did not
    finish with one before the deadline (a perf_counter time)."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, env=env, text=True,
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: {role} worker timed out\n")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def orchestrate(args):
    deadline = time.perf_counter() + DEADLINE_S
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "torusdyn", "__init__.py")):
        sys.stderr.write("perfbench: src/torusdyn not found; run from the "
                         "root of a torusdyn checkout\n")
        return 2
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)

    samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            out = spawn(args, "setup", env, deadline)
            if out is None:
                sys.stderr.write("perfbench: set-up worker failed\n")
                return 1
            samples.append(out["setup_s"])
    out = spawn(args, "measure", env, deadline)
    if out is None:
        sys.stderr.write("perfbench: measuring worker failed\n")
        return 1
    record = out.pop("record")
    if not args.trace:
        samples.append(record["setup_s"])
        record["setup_samples"] = samples
        out["metrics"]["setup_s"] = {"value": statistics.median(samples),
                                     "unit": "s"}
    print(json.dumps({"record": record}))
    print(json.dumps(out))
    return 0 if out["correct"] else 1


def main(argv=None):
    args = parse_args(argv)
    if args.role == "run":
        return orchestrate(args)
    return worker(args)


if __name__ == "__main__":
    sys.exit(main())
