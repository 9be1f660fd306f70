"""Minimal multi-core event engine for the module-level simulations.

The Stage I scheduling study (T1-2) needs an actual discrete-event model:
sixteen sampling cores finishing at different times, with a controller
deciding when the next ray's cube-pairs may launch.  This engine keeps
just enough state for that — a free-time per core — and exposes the two
dispatch disciplines the paper compares.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain

import numpy as np


@dataclass
class CorePool:
    """A pool of identical cores tracked by their next-free cycle."""

    n_cores: int

    def __post_init__(self):
        if self.n_cores < 1:
            raise ValueError("need at least one core")
        self.free_at = np.zeros(self.n_cores, dtype=np.float64)

    def reset(self) -> None:
        self.free_at[:] = 0.0

    @property
    def makespan(self) -> float:
        return float(self.free_at.max())

    def busy_cycles(self) -> float:
        """Total core-cycles consumed so far (for utilization metrics)."""
        return float(self.free_at.sum())

    def time_until_free(self, k: int, now: float) -> float:
        """Earliest time at which at least ``k`` cores are simultaneously free."""
        if k > self.n_cores:
            raise ValueError("cannot wait for more cores than exist")
        kth = np.partition(self.free_at, k - 1)[k - 1]
        return max(now, kth)

    def dispatch_group(self, durations: np.ndarray, start: float) -> float:
        """Start one job per core on the ``len(durations)`` earliest-free
        cores at ``start``; returns the group's completion time."""
        durations = np.asarray(durations, dtype=np.float64)
        k = durations.shape[0]
        if k > self.n_cores:
            raise ValueError("group larger than the pool")
        order = np.argsort(self.free_at)[:k]
        begin = np.maximum(self.free_at[order], start)
        finish = begin + durations
        self.free_at[order] = finish
        return float(finish.max())


@dataclass
class ScheduleResult:
    """Outcome of scheduling one batch of grouped jobs."""

    makespan: float
    busy_cycles: float
    n_cores: int

    @property
    def utilization(self) -> float:
        if self.makespan <= 0:
            return 0.0
        return self.busy_cycles / (self.makespan * self.n_cores)


def schedule_dynamic(
    group_durations: list,
    n_cores: int,
) -> ScheduleResult:
    """The paper's dynamic workload scheduling (T1-2).

    The controller watches core availability and dispatches *all* of a
    ray's cube-pairs as soon as enough cores are simultaneously free —
    the whole-ray threshold that bounds both control complexity and the
    partial-sum buffer per ray.

    Each group waits for the k-th earliest free time and lands on the k
    earliest-free cores, the i-th duration on the i-th core of
    ``np.argsort(free_at)``, exactly as a :class:`CorePool` loop
    dispatches it (``repro.perf.reference.schedule_dynamic_reference``
    keeps that loop; the two are tested bit-identical).  This version
    keeps the free times in a plain core-indexed list plus the same
    times sorted, with their cores alongside, so a group costs a few list
    operations instead of a dozen numpy calls.

    Two cases still take numpy's path:

    * *ties* — when two of the k + 1 earliest free times are equal,
      which core takes which duration depends on the tie order of
      ``np.argsort``, which is not stable on every build.  The makespan
      does not depend on it, but ``busy_cycles`` (a float sum in core
      order) does, so such a group asks ``np.argsort`` for its cores;
    * *non-finite durations* — a NaN or infinite duration (an unscrubbed
      corrupted trace) breaks the sorted list's ordering, so from that
      group on the rest is dispatched on a :class:`CorePool`.
    """
    if n_cores < 1:
        raise ValueError("need at least one core")
    free = [0.0] * n_cores
    # ``free`` as an array, for ``np.argsort`` and the final sums.
    free_at = np.zeros(n_cores, dtype=np.float64)
    # ``free`` sorted ascending, and the core of each entry.
    ranked_free = [0.0] * n_cores
    ranked_core = list(range(n_cores))
    now = 0.0
    groups = iter(group_durations)
    for durations in groups:
        k = len(durations)
        if k == 0:
            continue
        if k > n_cores:
            raise ValueError("a ray needs more cores than the pool has")
        durations = list(map(float, durations))
        if not math.isfinite(sum(durations)):
            pool = CorePool(n_cores)
            pool.free_at[:] = free_at
            return _schedule_on_pool(pool, chain([durations], groups), now)
        kth = ranked_free[k - 1]
        if kth > now:
            now = kth
        earliest = ranked_free[: k + 1]
        if len(set(earliest)) < len(earliest):
            cores = free_at.argsort()[:k].tolist()
            for core in cores:
                i = ranked_core.index(core)
                del ranked_free[i], ranked_core[i]
        else:
            cores = ranked_core[:k]
            del ranked_free[:k], ranked_core[:k]
        for core, duration in zip(cores, durations):
            begin = free[core]
            if now > begin:
                begin = now
            free[core] = free_at[core] = finish = begin + duration
            i = bisect_right(ranked_free, finish)
            ranked_free.insert(i, finish)
            ranked_core.insert(i, core)
    return ScheduleResult(
        makespan=float(free_at.max()),
        busy_cycles=float(free_at.sum()),
        n_cores=n_cores,
    )


def _schedule_on_pool(pool: CorePool, group_durations, now: float) -> ScheduleResult:
    """Finish a dynamic schedule on ``pool``, one numpy dispatch per group."""
    for durations in group_durations:
        k = len(durations)
        if k == 0:
            continue
        if k > pool.n_cores:
            raise ValueError("a ray needs more cores than the pool has")
        now = pool.time_until_free(k, now)
        pool.dispatch_group(np.asarray(durations), now)
    return ScheduleResult(
        makespan=pool.makespan, busy_cycles=pool.busy_cycles(), n_cores=pool.n_cores
    )


def schedule_ray_by_ray(
    group_durations: list,
    n_cores: int,
    setup_cycles: float = 0.0,
) -> ScheduleResult:
    """The naive baseline: one ray occupies the pool at a time.

    A ray's pairs run in parallel, but the next ray cannot start until the
    current ray (plus its per-ray setup, e.g. a general box intersection)
    fully completes — the idle-core pattern of paper Fig. 5(c).
    """
    makespan = 0.0
    busy = 0.0
    for durations in group_durations:
        if len(durations) == 0:
            makespan += setup_cycles
            continue
        durations = np.asarray(durations, dtype=np.float64)
        makespan += setup_cycles + float(durations.max())
        busy += float(durations.sum())
    return ScheduleResult(makespan=makespan, busy_cycles=busy, n_cores=n_cores)


def pipeline_makespan(stage_cycles: np.ndarray) -> float:
    """Makespan of a linear pipeline over batches.

    ``stage_cycles`` is ``(n_batches, n_stages)``; stage *s* of batch *b*
    may start once stage *s* finished batch *b-1* and stage *s-1* finished
    batch *b* — the classic flow-shop recurrence, which models the
    three-stage chip pipeline fed by ping-pong buffers.

    A NaN stage time gives a NaN makespan (Python ``max`` in the
    recurrence would drop it and report a finite, too-small total).
    """
    stage_cycles = np.atleast_2d(np.asarray(stage_cycles, dtype=np.float64))
    if np.isnan(stage_cycles).any():
        return float("nan")
    n_batches, n_stages = stage_cycles.shape
    # finish[s] holds the completion time of the most recent batch at
    # stage s; the flow-shop recurrence is
    # finish[b][s] = max(finish[b-1][s], finish[b][s-1]) + c[b][s].
    finish = np.zeros(n_stages)
    for b in range(n_batches):
        upstream = 0.0
        for s in range(n_stages):
            start = max(finish[s], upstream)
            finish[s] = start + stage_cycles[b, s]
            upstream = finish[s]
    return float(finish[-1])


def schedule_lockstep_batches(
    durations: np.ndarray,
    n_cores: int,
) -> ScheduleResult:
    """Synchronous batching: the simplest real controller.

    Jobs are issued to all cores at once, and the next batch waits for the
    slowest core — the idle pattern of paper Fig. 5(c).  Used as the naive
    Stage I baseline together with per-ray general intersections.
    """
    durations = np.asarray(durations, dtype=np.float64)
    if durations.size == 0:
        return ScheduleResult(makespan=0.0, busy_cycles=0.0, n_cores=n_cores)
    pad = (-durations.size) % n_cores
    padded = np.concatenate([durations, np.zeros(pad)])
    batches = padded.reshape(-1, n_cores)
    return ScheduleResult(
        makespan=float(batches.max(axis=1).sum()),
        busy_cycles=float(durations.sum()),
        n_cores=n_cores,
    )
