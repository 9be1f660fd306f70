"""The fast Stage I scheduler against its frozen ``CorePool`` loop.

``schedule_dynamic`` must report bit-identical ``makespan`` and
``busy_cycles`` for every input the loop accepts, and raise the same
errors.  ``busy_cycles`` sums the per-core free times in core order, so
the fast path must also put every duration on the same core as the
loop's ``np.argsort``, whose tie order is not stable; tie-heavy inputs
and corrupted (NaN / infinite) durations are drawn on purpose.
"""

import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.perf.reference import schedule_dynamic_reference
from repro.sim.engine import schedule_dynamic

#: A small value set makes equal free times (ties) common; 0.0 included.
_tied = st.sampled_from([0.0, 0.25, 1.0, 1.25, 2.0, 3.5])
_any_finite = st.floats(-10.0, 1e3)
_corrupt = st.sampled_from([float("nan"), float("inf"), float("-inf")])


@st.composite
def schedules(draw, durations):
    n_cores = draw(st.integers(1, 16))
    groups = draw(
        st.lists(st.lists(durations, max_size=n_cores), max_size=60)
    )
    return groups, n_cores


def _bits(result) -> tuple:
    return tuple(struct.pack("<d", x) for x in (result.makespan, result.busy_cycles))


def _check(groups, n_cores) -> None:
    got = schedule_dynamic(groups, n_cores)
    want = schedule_dynamic_reference(groups, n_cores)
    assert _bits(got) == _bits(want)
    assert got.n_cores == want.n_cores == n_cores


@given(schedules(st.one_of(_tied, _any_finite)))
@settings(max_examples=300, deadline=None)
# A tie between the k-th and (k+1)-th free core: a stable tie-break sums
# busy_cycles to 10.899999999999999, numpy's argsort order to 10.9.
@example(([[0.1], [3.3, 0.1], [2.0, 2.0], [3.3, 0.1]], 16))
def test_fast_schedule_is_bit_identical_to_reference(schedule):
    _check(*schedule)


#: Both schedulers add NaN / inf in numpy, which warns.
_quiet_nan = pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")


@_quiet_nan
@given(schedules(st.one_of(_tied, _tied, _tied, _corrupt)))
@settings(max_examples=150, deadline=None)
def test_non_finite_durations_match_reference(schedule):
    _check(*schedule)


@_quiet_nan
@given(
    schedule=schedules(st.one_of(_tied, _corrupt)),
    position=st.integers(0, 60),
)
@settings(max_examples=100, deadline=None)
def test_oversized_ray_raises_like_reference(schedule, position):
    groups, n_cores = schedule
    groups.insert(min(position, len(groups)), [1.0] * (n_cores + 1))
    with pytest.raises(ValueError) as got:
        schedule_dynamic(groups, n_cores)
    with pytest.raises(ValueError) as want:
        schedule_dynamic_reference(groups, n_cores)
    assert str(got.value) == str(want.value)


def test_empty_pool_raises_like_reference():
    for scheduler in (schedule_dynamic, schedule_dynamic_reference):
        with pytest.raises(ValueError, match="need at least one core"):
            scheduler([[1.0]], 0)
