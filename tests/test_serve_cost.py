"""Properties of the shared serving cost core and the two request cores."""

import math
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.fleet import FleetConfig, FleetController
from repro.nerf.occupancy import OccupancyGrid
from repro.serve import (
    RenderRequest,
    RenderService,
    build_demo_registry,
    demo_camera,
)
from repro.serve.cost import CostEstimator
from repro.serve.loadgen import demo_model


def _handle(generation):
    return SimpleNamespace(
        name="scene", renderer="ngp", precision="full", generation=generation
    )


@given(
    observations=st.lists(
        st.tuples(st.integers(1, 4), st.floats(1e-9, 1e-3)),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=100, deadline=None)
def test_newer_generation_observation_replaces_the_estimate(observations):
    cost = CostEstimator({})
    key = ("scene", "ngp", "full")
    newest = None
    bumps = 0
    for generation, s_per_ray in observations:
        cost.observe(_handle(generation), s_per_ray)
        if newest is None or generation > newest:
            bumps += newest is not None
            newest = generation
            assert cost.s_per_ray[key] == s_per_ray
        assert cost.generation[key] == newest
        assert math.isfinite(cost.s_per_ray[key]) and cost.s_per_ray[key] > 0
    assert cost.reblends == bumps
    assert cost.stats()["ewma_reblends"] == bumps


_requests = st.lists(
    st.tuples(
        st.floats(0.0, 0.05),  # arrival_s
        st.integers(0, 2),  # priority
        st.one_of(st.none(), st.floats(1e-6, 0.05)),  # deadline slack
        st.sampled_from([1.0, 1000.0]),  # hw_scale
    ),
    min_size=1,
    max_size=6,
)


def _run_until(core, t_s, n_requests):
    """Advance ``core`` to ``t_s`` (or until every request is terminal)."""
    while core.now_s < t_s and len(core.responses) < n_requests:
        if isinstance(core, FleetController):
            core.run(max_events=1)
        else:
            core.run(max_batches=core.batches_dispatched + 1)


@given(
    requests=_requests,
    swap_s=st.floats(0.0, 0.06),
    fleet=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_every_request_ends_exactly_once_across_a_hot_swap(
    requests, swap_s, fleet
):
    registry = build_demo_registry(n_scenes=1)
    scene = registry.scenes()[0]["name"]
    core = (
        FleetController(registry, config=FleetConfig(n_workers=2))
        if fleet
        else RenderService(registry)
    )
    camera = demo_camera(8, 8)
    calls = {}
    for i, (arrival, priority, slack, hw_scale) in enumerate(requests):
        core.submit(
            RenderRequest(
                request_id=i, scene=scene, camera=camera, arrival_s=arrival,
                priority=priority, hw_scale=hw_scale,
                deadline_s=None if slack is None else arrival + slack,
            ),
            on_complete=lambda r: calls.setdefault(r.request_id, []).append(r),
        )
    _run_until(core, swap_s, len(requests))
    handle = registry.acquire(scene)
    registry.deploy(
        scene,
        model=demo_model(seed=1),
        occupancy=OccupancyGrid(resolution=16),
        normalizer=handle.normalizer,
        background=handle.background,
    )
    handle.release()
    core.run()
    assert sorted(calls) == sorted(core.responses) == list(range(len(requests)))
    assert all(len(responses) == 1 for responses in calls.values())
    if fleet:
        assert core.accounting()["unaccounted"] == 0
