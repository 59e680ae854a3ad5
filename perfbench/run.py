"""matholab benchmark: one closed-loop client on seeded inputs, verdicts checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scenario_mix --seed 1 --seconds 50 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md): ``scenario_mix`` and
``kernel_classify``. One client sends the next request
only after the previous verdict came back (a closed loop, like a library or
CLI caller), in this one process, with BLAS pinned to one thread before numpy
is imported.

``--trace 0`` measures for ``--seconds`` and prints the end-to-end metrics.
``--trace 1`` alternates untraced requests with traced ones, for which every
listed layer function is wrapped (perfbench/tracing.py), and prints the
per-layer metrics of the traced requests, the tracing overhead (traced minus
untraced median latency) and the CLI's cold-start time.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the run
environment and the detail behind the numbers. Timings are medians, never
"best of k". The exit code is 1 when a check of the benchmark itself fails
(a generated scenario refused as invalid, a report that does not survive its
own JSON emission, a cold-start CLI process that crashed), and 2 when the
checkout has no matholab sources.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# set-up runs per measured run: this process plus fresh processes, median reported
SETUP_RUNS = 11
# fresh `python -m matholab.cli` processes per committed scenario, traced runs only
COLD_START_ROUNDS = 3
# the tail percentile keeps at least this many samples beyond it
TAIL_BEYOND = 10


def _fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def setup(workload, seed):
    """Import matholab, generate the first pass of inputs, run one warm-up request.

    Returns (seconds taken, request stream). Nothing of numpy or matholab is
    imported before this starts.
    """
    start = time.perf_counter()
    import matholab
    if Path(matholab.__file__).resolve().parent != SRC / "matholab":
        _fail(f"imported matholab from {matholab.__file__}, not from this checkout", 2)
    import workloads
    make = workloads.WORKLOADS[workload]
    stream = make(seed, workloads.MEASURED)
    first = list(itertools.islice(stream, workloads.SCHEDULE[workload][1]))
    # the warm-up is the first request of its own stream: a scenario, or a
    # pair build (one kernel test would outweigh the rest of set-up)
    try:
        next(make(seed, workloads.WARMUP)).run()
    except workloads.BenchmarkError:
        raise
    except Exception:  # noqa: BLE001 - warm-up verdicts are not scored
        pass
    return time.perf_counter() - start, itertools.chain(first, stream)


def fresh_setup_time(workload, seed):
    """Set-up time of a fresh process (interpreter start-up excluded)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        _fail(f"set-up process failed: {proc.stderr.strip()}", 1)
    return float(proc.stdout.strip().splitlines()[-1])


class Sample:
    """What one timed stretch of the closed loop saw."""

    def __init__(self):
        self.latencies = []
        self.outcomes = Counter()
        self.cells = defaultdict(Counter)
        self.cell_latencies = defaultdict(list)
        self.raised = Counter()


def run_request(request, sample):
    """Run one request, time it, and score its verdict against the ground truth."""
    import groundtruth
    observed = error = None
    start = time.perf_counter()
    try:
        observed = request.run()
    except groundtruth.BenchmarkError:
        raise
    except Exception as exc:  # noqa: BLE001 - a raised request is scored
        error = exc
        sample.raised[f"{request.cell}: {type(exc).__name__}"] += 1
    latency = time.perf_counter() - start
    outcome = groundtruth.judge(request.expected, observed, error)
    sample.latencies.append(latency)
    sample.cell_latencies[request.cell].append(latency)
    sample.outcomes[outcome] += 1
    sample.cells[request.cell][outcome] += 1


def measure(stream, seconds, sample=None, whole=None):
    """The closed loop: at least one request, then more until the time is up.

    With ``whole=(prefix, cycle)`` the loop also runs on to the end of the
    schedule's current cycle, so that every run holds each request cell the
    same number of times and a percentile cannot move with where the time
    ran out.
    """
    sample = sample if sample is not None else Sample()
    prefix, cycle = whole or (0, 1)
    deadline = time.perf_counter() + seconds
    while (not sample.latencies or time.perf_counter() < deadline
           or (len(sample.latencies) - prefix) % cycle):
        run_request(next(stream), sample)
    return sample


def tail(latencies):
    """(value, percentile, samples above it): the largest sample with TAIL_BEYOND
    samples above it, or the maximum when there are too few samples for that."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    idx = n - 1 - TAIL_BEYOND
    return ordered[idx], 100.0 * idx / (n - 1), TAIL_BEYOND


def cold_start_ms():
    """Median wall time of fresh CLI processes on the committed scenarios."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    paths = sorted((ROOT / "scenarios").glob("*.json"))
    if not paths:
        _fail("no committed scenarios to time the CLI on", 1)
    times = []
    for _ in range(COLD_START_ROUNDS):
        for path in paths:
            command = json.loads(path.read_text(encoding="utf-8"))["command"]
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "matholab.cli", command, "--scenario", str(path)],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                timeout=60, check=False)
            times.append(time.perf_counter() - start)
            if proc.returncode not in (0, 1):
                _fail(f"CLI on {path.name} exited {proc.returncode}: "
                      f"{proc.stderr.decode(errors='replace').strip()}", 1)
    return 1000.0 * statistics.median(times), len(times)


def git_commit():
    """HEAD of the checkout, read from .git without leaving it; 'unknown' if none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": int(BLAS_THREADS),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "seed": seed, "git_commit": git_commit(),
            "statistic": "median (not best of k); set-up is the median of "
                         f"{SETUP_RUNS} set-ups", "load": "closed loop, 1 client, 1 process"}


def end_to_end(sample, setup_times):
    import groundtruth
    n = len(sample.latencies)
    failed = sum(sample.outcomes[o] for o in groundtruth.FAILED)
    tail_value, tail_pct, beyond = tail(sample.latencies)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "latency_tail_ms": (1000.0 * tail_value, "ms"),
        "not_failed_share": (1.0 - failed / n, "share"),
        "correct_share": (sample.outcomes[groundtruth.CORRECT] / n, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # reported, not gated: on a shared host these follow the host's speed
    # phases, which can last a whole run (see README.md)
    detail = {"requests_per_s": n / sum(sample.latencies),
              "latency_p50_ms": 1000.0 * statistics.median(sample.latencies),
              "latency_tail_percentile": tail_pct, "latency_samples": n,
              "samples_beyond_tail": beyond,
              "failed_share": failed / n, "setup_runs_s": setup_times,
              "outcome_shares": {o: count / n for o, count in sample.outcomes.items()}}
    return metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("scenario_mix", "kernel_classify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None,
                        help="traced runs: also write every span to this JSON-lines file")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (used for the set-up median)")
    args = parser.parse_args(argv)

    if not (SRC / "matholab" / "__init__.py").is_file():
        _fail(f"no matholab sources under {SRC}", 2)
    sys.path[:0] = [str(BENCH_DIR), str(SRC)]

    from groundtruth import BenchmarkError  # imports neither numpy nor matholab
    try:
        setup_time, stream = setup(args.workload, args.seed)
        if args.setup_only:
            print(setup_time)
            return 0
        if args.trace:
            result, detail = traced_run(args, stream)
        else:
            # the fresh set-ups are spread over the measured time, so that
            # set-up samples the same machine state as the requests do
            import workloads
            setup_times, sample = [setup_time], Sample()
            for k in range(SETUP_RUNS - 1):
                setup_times.append(fresh_setup_time(args.workload, args.seed))
                measure(stream, args.seconds / (SETUP_RUNS - 1), sample,
                        workloads.SCHEDULE[args.workload] if k == SETUP_RUNS - 2 else None)
            metrics, detail = end_to_end(sample, setup_times)
            result = _result(sample, metrics)
            detail.update(_breakdown(sample))
    except BenchmarkError as exc:
        print(f"perfbench: benchmark check failed: {exc}", file=sys.stderr)
        return 1
    detail.update(workload=args.workload, seconds=args.seconds, trace=args.trace,
                  environment=environment(args.seed))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


def traced_run(args, stream):
    """Alternate untraced and traced requests, so both see the same machine state.

    The wrappers go in just before each traced request and come out after it;
    inputs are generated, and untraced requests run, with none installed.
    """
    from tracing import Tracer
    import workloads
    traced_stream = workloads.WORKLOADS[args.workload](args.seed, workloads.TRACED)
    plain, traced = Sample(), Sample()
    tracer = Tracer()
    deadline = time.perf_counter() + args.seconds
    while not traced.latencies or time.perf_counter() < deadline:
        run_request(next(stream), plain)
        request = next(traced_stream)
        tracer.request = len(traced.latencies)
        tracer.install()
        try:
            run_request(request, traced)
        finally:
            tracer.uninstall()
    if args.spans is not None:
        tracer.dump(args.spans)
    metrics = tracer.layer_metrics(len(traced.latencies))
    untraced_p50 = 1000.0 * statistics.median(plain.latencies)
    traced_p50 = 1000.0 * statistics.median(traced.latencies)
    metrics["trace.overhead_ms"] = (traced_p50 - untraced_p50, "ms")
    cold, n_cold = cold_start_ms()
    metrics["cli.cold_start_ms"] = (cold, "ms")
    merged = Sample()
    for part in (plain, traced):
        merged.latencies += part.latencies
        merged.outcomes.update(part.outcomes)
    detail = {"untraced_p50_ms": untraced_p50, "traced_p50_ms": traced_p50,
              "traced_requests": len(traced.latencies), "spans": len(tracer.span_start),
              "cold_start_processes": n_cold}
    detail.update(_breakdown(traced))
    return _result(merged, metrics), detail


def _breakdown(sample):
    return {"outcomes": dict(sample.outcomes),
            "cells": {cell: dict(c) for cell, c in sorted(sample.cells.items())},
            "cell_p50_ms": {cell: 1000.0 * statistics.median(lat)
                            for cell, lat in sorted(sample.cell_latencies.items())},
            "raised": dict(sample.raised)}


def _result(sample, metrics):
    import groundtruth
    return {"correct": sample.outcomes[groundtruth.WRONG] == 0,
            "attempted": len(sample.latencies),
            "failed": sum(sample.outcomes[o] for o in groundtruth.FAILED),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


if __name__ == "__main__":
    sys.exit(main())
