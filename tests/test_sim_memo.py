"""The per-chip module memo of ``SingleChipAccelerator.simulate``.

A memoized chip must report exactly what a fresh chip reports for every
call, key on trace *content* after fault scrubbing, and keep per-call
side effects (hooks, cycle counters, scrub log) firing on hits.
"""

import copy
import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.robustness import faults
from repro.robustness.faults import ChipletFaultConfig, FaultPlan, TraceFaultConfig
from repro.sim.chip import SingleChipAccelerator
from repro.sim.multichip import MultiChipSystem
from repro.sim.trace import WorkloadTrace, synthetic_trace

#: Any non-empty plan makes the chip scrub its traces.
FAULTED = FaultPlan(trace=TraceFaultConfig(corrupt_fraction=0.1))

_clean_duration = st.floats(0.0, 40.0)
_corrupt_duration = st.one_of(
    _clean_duration, st.just(float("nan")), st.floats(-40.0, -1e-3)
)


@st.composite
def traces(draw, durations=_clean_duration):
    pair_durations = draw(
        st.lists(st.lists(durations, min_size=0, max_size=3), min_size=1, max_size=24)
    )
    n_samples = draw(st.integers(0, 400))
    with_vertices = draw(st.booleans())
    corners = indices = None
    if with_vertices:
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        corners = rng.integers(0, 64, size=(draw(st.integers(1, 16)), 8, 3))
        indices = rng.integers(0, 1 << 14, size=corners.shape[:2])
    return WorkloadTrace(
        n_rays=len(pair_durations),
        pair_durations=pair_durations,
        n_samples=n_samples,
        n_candidates=n_samples + draw(st.integers(0, 400)),
        vertex_corners=corners,
        vertex_indices=indices,
        samples_per_ray=np.array([len(p) for p in pair_durations]),
        n_cells_visited=draw(st.integers(0, 100)),
    )


def _fields(report) -> str:
    """Every report field, NaN-safe and exact (float reprs round-trip)."""
    return repr(dataclasses.asdict(report))


def _check_calls(calls) -> None:
    memoized = SingleChipAccelerator()
    for trace, plan, options in calls:
        with faults.plan_scope(plan):
            got = memoized.simulate(trace, *options)
            want = SingleChipAccelerator().simulate(trace, *options)
        assert _fields(got) == _fields(want)


#: ``(training, optimized_sampling, workload_scale)`` of one call.
_call_options = st.tuples(st.booleans(), st.booleans(), st.floats(0.25, 8.0))
_pick = st.tuples(st.integers(0, 2), _call_options)


@given(
    pool=st.lists(traces(), min_size=1, max_size=3),
    picks=st.lists(_pick, min_size=1, max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_memoized_reports_equal_fresh_chip(pool, picks):
    _check_calls([(pool[i % len(pool)], None, options) for i, options in picks])


@given(
    pool=st.lists(traces(_corrupt_duration), min_size=1, max_size=3),
    picks=st.lists(
        st.tuples(st.integers(0, 2), _call_options, st.booleans()),
        min_size=1,
        max_size=8,
    ),
)
@settings(max_examples=40, deadline=None)
def test_memoized_reports_equal_fresh_chip_under_faults(pool, picks):
    """Corrupted traces, simulated with and without an active fault plan:
    the memo keys on the scrubbed trace the modules actually see."""
    _check_calls(
        [
            (pool[i % len(pool)], FAULTED if faulted else None, options)
            for i, options, faulted in picks
        ]
    )


def _memo_counts(tel) -> tuple:
    counters = tel.metrics.snapshot()["counters"]
    return (
        counters.get("sim.chip.memo_hits", 0.0),
        counters.get("sim.chip.memo_misses", 0.0),
    )


def _trace(seed: int = 0) -> WorkloadTrace:
    return synthetic_trace(64, 6.0, 0.4, np.random.default_rng(seed))


def test_equal_content_distinct_objects_hit():
    chip = SingleChipAccelerator()
    trace = _trace()
    twins = [copy.deepcopy(trace), WorkloadTrace.from_arrays(trace.to_arrays())]
    with telemetry.session() as tel:
        first = chip.simulate(trace)
        reports = [chip.simulate(twin) for twin in twins]
        assert _memo_counts(tel) == (2.0, 1.0)
    assert all(_fields(r) == _fields(first) for r in reports)


def test_in_place_mutation_misses():
    chip = SingleChipAccelerator()
    trace = _trace()
    with telemetry.session() as tel:
        before = chip.simulate(trace)
        trace.pair_durations[0][0] += 50.0
        after = chip.simulate(trace)
        assert _memo_counts(tel) == (0.0, 2.0)
    assert _fields(after) != _fields(before)
    assert _fields(after) == _fields(SingleChipAccelerator().simulate(trace))


MODULES = ("sampling", "interpolation", "post-processing")


def _module_runs(calls) -> tuple:
    """Simulate one trace on one chip with each ``(training,
    optimized_sampling)`` of ``calls``: module span counts and memo counts."""
    chip = SingleChipAccelerator()
    trace = _trace()
    with telemetry.session() as tel:
        for training, optimized in calls:
            chip.simulate(trace, training=training, optimized_sampling=optimized)
        spans = tel.tracer.aggregate()
        memo = _memo_counts(tel)
    return {name: spans.get(name, {}).get("count", 0) for name in MODULES}, memo


def test_each_module_is_keyed_on_what_it_reads():
    # Stage I never reads ``training``: it runs once across both values.
    runs, memo = _module_runs([(False, True), (True, True)])
    assert runs == {"sampling": 1, "interpolation": 2, "post-processing": 2}
    assert memo == (0.0, 2.0)
    # Stages II/III never read ``optimized_sampling``.
    runs, memo = _module_runs([(False, True), (False, False)])
    assert runs == {"sampling": 2, "interpolation": 1, "post-processing": 1}
    assert memo == (0.0, 2.0)
    # A call is a hit only when no module runs.
    runs, memo = _module_runs([(False, True), (True, True), (False, False), (True, False)])
    assert runs == {"sampling": 2, "interpolation": 2, "post-processing": 2}
    assert memo == (1.0, 3.0)


class _FreshChips:
    """Stands in for a board's chip: every call goes to a new chip, as on
    a board of separately simulated chips with no shared memo."""

    def __init__(self, config):
        self.config = config

    def simulate(self, *args, **kwargs):
        return SingleChipAccelerator(self.config).simulate(*args, **kwargs)


REMAP = FaultPlan(chiplets=ChipletFaultConfig(dead_chips=(1,), policy="remap"))


def test_board_simulates_identical_chip_traces_once():
    trace = _trace()
    for plan in (None, REMAP):
        board = MultiChipSystem()
        fresh = MultiChipSystem()
        fresh.chip = _FreshChips(fresh.config.chip)
        with faults.plan_scope(plan):
            with telemetry.session() as tel:
                got = [board.simulate([trace] * 4)]
                spans = tel.tracer.aggregate()
            got.append(board.simulate([trace] * 4, training=True))
            want = [fresh.simulate([trace] * 4, training=t) for t in (False, True)]
        assert {name: spans[name]["count"] for name in MODULES} == dict.fromkeys(
            MODULES, 1
        )
        assert [_fields(r) for r in got] == [_fields(r) for r in want]


def test_per_call_side_effects_fire_on_hits():
    chip = SingleChipAccelerator()
    trace = _trace()
    trace.pair_durations[0][0] = float("nan")
    trace.pair_durations[1][0] = -3.0
    modules = []
    with faults.plan_scope(FAULTED), telemetry.session() as tel:
        tel.hooks.on_module_simulated(lambda module, **_: modules.append(module))
        reports = [chip.simulate(trace, workload_scale=s) for s in (1.0, 2.0, 3.0)]
        log = faults.get_log()
        counters = tel.metrics.snapshot()["counters"]
        spans = tel.tracer.aggregate()
    assert modules == ["sampling", "interpolation", "post-processing"] * 3
    assert counters["sim.chip.memo_hits"] == 2.0
    assert counters["sim.chip.memo_misses"] == 1.0
    assert counters["robustness.trace.scrubbed_entries"] == 3 * 2
    assert [e["site"] for e in log.entries] == ["chip"] * 3
    sampling_cycles = sum(r.stage_cycles()["sampling"] for r in reports)
    assert counters["sim.sampling.cycles"] == sampling_cycles
    first, _, third = (r.stage_cycles()["sampling"] for r in reports)
    assert third == 3.0 * first
    # Every call opens chip.simulate; the module spans only when they run.
    assert spans["chip.simulate"]["count"] == 3
    for name in ("sampling", "interpolation", "post-processing"):
        assert spans[name]["count"] == 1


def test_memo_counters_stay_off_without_telemetry():
    chip = SingleChipAccelerator()
    chip.simulate(_trace())
    chip.simulate(_trace())
    assert telemetry.get_session().metrics.snapshot()["counters"] == {}
