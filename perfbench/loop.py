"""One benchmark run: set-up, the closed loop, and the traced variant.

One client calls `corneafit.cli.main(argv)` in this process; each op
starts only after the previous one finished, so interpreter start-up and
imports are paid once, in set-up, and not in every op.

Set-up is repeated and its median reported: a fresh interpreter's
start-up and corneafit import, input generation and warm-up. With trace
off, ops then run for the given seconds, and the quality metrics are
computed after the timed window. With trace on, a fixed number of ops
runs, each once untraced and once traced, so every count repeats
exactly for a seed; the spans go to .perfbench_out/.
"""

import contextlib
import gc
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracer import Tracer, layer_metrics
from workloads import (
    WORKLOADS,
    OpFailed,
    call_cli,
    fd_oracle_failures,
    fit_a_rel_err,
    oracle_gap,
)

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"
TRACE_ROOT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
WARMUP_OPS = 2


def run_op(workload, state, index, tracer=None):
    """Run op `index` once; (latency in s, error message or None).

    Only the CLI calls are timed; argv generation and the output check
    are not. An exception escaping the CLI is an op failure, not a crash.
    """
    commands = workload.commands(state, index)
    results = []
    if tracer is not None:
        tracer.op = index
    with tracer or contextlib.nullcontext():
        start = time.perf_counter()
        try:
            for argv in commands:
                results.append(call_cli(argv))
                if results[-1][0] != 0:
                    break
        except Exception:
            return time.perf_counter() - start, f"op {index}: {traceback.format_exc()}"
        latency = time.perf_counter() - start
    try:
        workload.check(state, index, results)
    except (OpFailed, OSError) as exc:
        return latency, f"op {index}: {exc}"
    return latency, None


def launch_s():
    """Seconds a fresh interpreter takes to start and import corneafit.cli."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import corneafit.cli"], env=env, check=True, timeout=60)
    return time.perf_counter() - start


def set_up(workload, seed, workdir, errors):
    """Repeat launch, input generation and warm-up; (state, median seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        launch = launch_s()
        start = time.perf_counter()
        state = workload.setup(seed, workdir)
        for index in range(WARMUP_OPS):
            _, error = run_op(workload, state, index)
            if error:
                errors.append(f"warm-up {error}")
        times.append(launch + time.perf_counter() - start)
    return state, statistics.median(times)


def end_to_end(workload, state, seconds, errors):
    """Closed loop for `seconds`, then quality; (attempted, failed, metrics)."""
    latencies, failed = [], 0
    index = WARMUP_OPS
    gc.collect()
    start = time.perf_counter()
    deadline = start + seconds
    while not latencies or time.perf_counter() < deadline:
        latency, error = run_op(workload, state, index)
        if error:
            # a failed op misses any latency limit: count it as the whole window
            errors.append(error)
            failed += 1
            latency = seconds
        latencies.append(latency)
        index += 1
    elapsed = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    p50, p90 = 1e3 * np.percentile(latencies, [50, 90])
    metrics = {
        "ops_per_s": ((len(latencies) - failed) / elapsed, "1/s"),
        "latency_p50_ms": (float(p50), "ms"),
        "latency_p90_ms": (float(p90), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "oracle_gap": (oracle_gap(), "nondim"),
        "fit_a_rel_err": (fit_a_rel_err(), "ratio"),
    }
    return len(latencies), failed, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def traced(workload, state, seed, errors, env):
    """Fixed op sequence, untraced and traced in turn; (attempted, failed, metrics)."""
    tracer = Tracer()
    ops = range(WARMUP_OPS, WARMUP_OPS + workload.trace_ops)
    plain, spanned, failed = [], [], 0
    gc.collect()
    for index in ops:
        for op_tracer, latencies in ((None, plain), (tracer, spanned)):
            latency, error = run_op(workload, state, index, op_tracer)
            if error:
                errors.append(error)
                failed += 1
            latencies.append(latency)
    tracer.op = -1  # the fd_oracle probe belongs to no op
    with tracer:
        fd_failed = fd_oracle_failures(WORKLOADS["radial_solve"].n_nodes)
    metrics = layer_metrics(tracer, ops)
    metrics["solver.fd_oracle.failed"] = {"value": fd_failed, "unit": "count"}
    metrics["trace.overhead_ratio"] = {
        "value": statistics.median(spanned) / statistics.median(plain),
        "unit": "ratio",
    }
    TRACE_ROOT.mkdir(exist_ok=True)
    path = TRACE_ROOT / f"trace_{workload.name}_seed{seed}.jsonl"
    tracer.dump(path, {"workload": workload.name, "seed": seed, "ops": len(ops), "env": env})
    print(f"# {len(tracer.spans)} spans written to {path}")
    return 2 * len(ops), failed, metrics


def measure(workload, seed, seconds, trace, env):
    """One benchmark run of `workload`; the result object."""
    errors = []
    workdir = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        state, setup_s = set_up(workload, seed, str(workdir), errors)
        if trace:
            attempted, failed, metrics = traced(workload, state, seed, errors, env)
        else:
            attempted, failed, metrics = end_to_end(workload, state, seconds, errors)
            metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in errors[:5]:
        print(f"error: {message}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"# failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
