"""Benchmark entry point: one workload, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_open --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics, the same three on every
workload: ``setup_s``, ``peak_rss_mb`` and ``job_s`` (median host
seconds of one episode, the workload's fixed job).  ``--trace 1`` runs
one untraced episode, then wraps every layer's public entry points (see
``layers.py``) and reports the per-layer table, including the tracing
overhead (mean traced episode time minus the untraced ones).  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``.  Exits non-zero without printing a result when the
program's source (``src/repro``) is not next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: CPUs the process may use when it starts; it is pinned to one of them.
ALLOWED_CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
#: Set-up repetitions per run; ``setup_s`` is import time plus their median.
SETUP_REPEATS = 3
#: Episodes every run measures, however long they take; ``job_s`` is
#: their median.
MIN_EPISODES = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _probe_s() -> float:
    """Seconds for a small fixed piece of interpreter work."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i % 7
    return time.perf_counter() - start


def pin_to_quietest_cpu() -> None:
    """Move the process to the allowed CPU that runs :func:`_probe_s` fastest.

    On a shared host each virtual CPU is slowed, independently and for
    seconds at a time, by other tenants' work on the same physical core
    (by about 1.5x, measured alternately on two vCPUs whose slow spells
    were uncorrelated).  Probing every CPU
    (best of two) before each set-up and episode keeps the measured work
    on the least contended one.  The probe runs outside every timed
    region.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    best = None
    for cpu in sorted(ALLOWED_CPUS):
        os.sched_setaffinity(0, {cpu})
        probe = min(_probe_s(), _probe_s())
        if best is None or probe < best[0]:
            best = (probe, cpu)
    os.sched_setaffinity(0, {best[1]})


def run_episodes(workload, ctx, seconds: float, check, tracer=None, on_episode=None) -> tuple:
    """Episodes while another one still fits in ``seconds`` of host time.

    Runs at least :data:`MIN_EPISODES`; after that, starts an episode
    only if the mean episode so far would end within ``seconds`` of the
    start.  Each episode's outputs are verified outside its timing, with
    ``tracer`` (if any) paused.  Returns ``(episodes, wall_seconds_per_episode)``.
    """
    episodes = []
    walls = []
    start = time.perf_counter()
    while len(episodes) < MIN_EPISODES or (
        time.perf_counter() - start + sum(walls) / len(walls) <= seconds
    ):
        pin_to_quietest_cpu()
        t0 = time.perf_counter()
        result = workload.episode(ctx)
        walls.append(time.perf_counter() - t0)
        if on_episode is not None:
            on_episode()
        with tracer.paused() if tracer is not None else nullcontext():
            workload.verify(ctx, result, check)
        episodes.append(result)
    for other in episodes[1:]:
        check(workload.consistent(episodes[0], other), f"{workload.name}: episodes disagree")
    return episodes, walls


def untraced_episode(workload, ctx, check) -> tuple:
    """One verified episode without wrappers: ``(result, host seconds)``."""
    pin_to_quietest_cpu()
    start = time.perf_counter()
    result = workload.episode(ctx)
    elapsed = time.perf_counter() - start
    workload.verify(ctx, result, check)
    return result, elapsed


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        return 2
    # One process, one thread: BLAS worker threads would compete with the
    # measured work and with each other on a small, shared machine.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # Stay on one CPU at a time: migrating between CPUs of unequal speed
    # makes the timing distribution bimodal.
    pin_to_quietest_cpu()
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import numpy  # noqa: F401
    import repro.experiments.runner  # noqa: F401  (loads every layer)

    import_s = time.perf_counter() - t0

    import layers
    import spans
    import workloads
    from percentiles import median

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=work_root)
    try:
        workload = workloads.make(args.workload, work_dir)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            pin_to_quietest_cpu()
            t = time.perf_counter()
            ctx = workload.setup(args.seed)
            setup_times.append(time.perf_counter() - t)
        check = workloads.Check()
        if args.trace:
            before, before_s = untraced_episode(workload, ctx, check)
            with spans.LayerTracer() as tracer:
                probes = layers.install(tracer)
                episodes, walls = run_episodes(
                    workload, ctx, args.seconds, check, tracer, probes.end_episode
                )
            # Untraced episodes on both sides of the traced ones, so a
            # drift in machine speed does not read as tracing overhead.
            after, after_s = untraced_episode(workload, ctx, check)
            for untraced in (before, after):
                check(
                    workload.consistent(untraced, episodes[0]),
                    f"{workload.name}: tracing changed the outputs",
                )
            overhead_s = sum(walls) / len(walls) - (before_s + after_s) / 2
            metrics = layers.per_layer_metrics(
                tracer, probes, walls, workload.facts(episodes), overhead_s
            )
        else:
            _, walls = run_episodes(workload, ctx, args.seconds, check)
            metrics = {
                "setup_s": (import_s + median(setup_times), "s"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "MB",
                ),
                "job_s": (median(walls), "s"),
            }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    for failure in check.failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    result = {
        "correct": not check.failures,
        "attempted": check.attempted,
        "failed": len(check.failures),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
