"""The four-chip MoE system (Sec. V, Table IV)."""

import numpy as np
import pytest

from repro.sim.multichip import (
    FEATURE_BYTES_PER_SAMPLE,
    MultiChipConfig,
    MultiChipSystem,
)
from repro.sim.trace import synthetic_trace


@pytest.fixture(scope="module")
def system():
    return MultiChipSystem(MultiChipConfig())


@pytest.fixture(scope="module")
def large_scene_traces():
    """Per-chip views of a NeRF-360-class workload."""
    return [
        synthetic_trace(20000, 13.0, 0.3, np.random.default_rng(i))
        for i in range(4)
    ]


def test_throughput_per_watt_near_paper(system, large_scene_traces):
    inf = system.simulate(large_scene_traces)
    assert inf.throughput_per_watt / 1e6 == pytest.approx(98.5, rel=0.15)
    trn = system.simulate(large_scene_traces, training=True)
    assert trn.throughput_per_watt / 1e6 == pytest.approx(33.2, rel=0.15)


def test_system_power_near_paper(system, large_scene_traces):
    report = system.simulate(large_scene_traces)
    assert report.power_w == pytest.approx(6.0, rel=0.25)


def test_die_area_and_sram_near_paper(system):
    assert system.die_area_mm2() == pytest.approx(35.0, rel=0.10)
    assert system.sram_kb() == pytest.approx(4500.0, rel=0.02)


def test_communication_saving_at_least_paper(system, large_scene_traces):
    """Fig. 12(a): >= 94% chip-to-chip traffic reduction vs layer-split."""
    for training in (False, True):
        comm = system.communication(large_scene_traces, training=training)
        assert comm.saving >= 0.94
        assert comm.moe_bytes < comm.layer_split_bytes


def test_moe_traffic_scales_with_rays_not_samples(system):
    sparse = [synthetic_trace(10000, 2.0, 0.1, np.random.default_rng(i)) for i in range(4)]
    dense = [synthetic_trace(10000, 20.0, 0.5, np.random.default_rng(i)) for i in range(4)]
    comm_sparse = system.communication(sparse)
    comm_dense = system.communication(dense)
    # Same ray count -> same MoE traffic; baseline grows with samples.
    assert comm_sparse.moe_bytes == pytest.approx(comm_dense.moe_bytes, rel=0.01)
    assert comm_dense.layer_split_bytes > 5 * comm_sparse.layer_split_bytes


def test_layer_split_accounting(system, large_scene_traces):
    comm = system.communication(large_scene_traces)
    mean_samples = np.mean([t.n_samples for t in large_scene_traces])
    assert comm.layer_split_bytes == pytest.approx(
        mean_samples * FEATURE_BYTES_PER_SAMPLE
    )


def test_slowest_chip_sets_runtime(system, large_scene_traces):
    report = system.simulate(large_scene_traces)
    slowest = max(r.runtime_s for r in report.chip_reports)
    assert report.runtime_s >= slowest
    assert report.chip_imbalance >= 1.0


def test_imbalanced_workload_detected(system):
    rng = np.random.default_rng(0)
    traces = [
        synthetic_trace(10000, spr, 0.3, rng)
        for spr in (5.0, 5.0, 5.0, 15.0)  # one overloaded expert
    ]
    report = system.simulate(traces)
    assert report.chip_imbalance > 1.3


def test_trace_count_must_match_chips(system, large_scene_traces):
    with pytest.raises(ValueError):
        system.simulate(large_scene_traces[:2])


def test_workload_scale_propagates(system, large_scene_traces):
    one = system.simulate(large_scene_traces)
    ten = system.simulate(large_scene_traces, workload_scale=10.0)
    assert ten.runtime_s == pytest.approx(10 * one.runtime_s, rel=0.05)
    assert ten.samples_per_second == pytest.approx(one.samples_per_second, rel=0.05)


def test_comm_energy_counted(system, large_scene_traces):
    comm = system.communication(large_scene_traces)
    assert comm.energy_j > 0
    assert comm.transfer_s > 0


def test_n_chips_validation():
    with pytest.raises(ValueError):
        MultiChipConfig(n_chips=0)


def test_two_chip_system_scales_down():
    two = MultiChipSystem(MultiChipConfig(n_chips=2))
    traces = [
        synthetic_trace(10000, 13.0, 0.3, np.random.default_rng(i))
        for i in range(2)
    ]
    report = two.simulate(traces)
    assert report.power_w < 4.0
    assert two.die_area_mm2() < 20.0


# -- simulate_batch: the serving billing entry point ---------------------------


def _report_fields(report):
    return (
        report.runtime_s,
        report.power_w,
        report.n_rays,
        report.degraded,
        report.dead_chips,
        report.healthy_runtime_s,
        tuple(r.runtime_s for r in report.chip_reports),
        report.communication.moe_bytes,
        report.communication.transfer_s,
    )


def test_simulate_batch_matches_slow_path_healthy(large_scene_traces):
    system = MultiChipSystem(MultiChipConfig())
    slow = system.simulate(large_scene_traces, workload_scale=3.5)
    fast = system.simulate_batch("lego", large_scene_traces, workload_scale=3.5)
    assert _report_fields(fast) == _report_fields(slow)


def test_simulate_batch_matches_slow_path_degraded(large_scene_traces):
    from repro.robustness import faults
    from repro.robustness.faults import ChipletFaultConfig, FaultPlan

    for policy in ("remap", "drop"):
        system = MultiChipSystem(MultiChipConfig())
        plan = FaultPlan(
            chiplets=ChipletFaultConfig(dead_chips=(1,), policy=policy)
        )
        faults.activate(plan)
        try:
            slow = system.simulate(large_scene_traces, workload_scale=2.0)
            fast = system.simulate_batch(
                "lego", large_scene_traces, workload_scale=2.0
            )
        finally:
            faults.deactivate()
        assert _report_fields(fast) == _report_fields(slow), policy
        assert fast.expert_assignment == slow.expert_assignment


def test_simulate_batch_remap_routes_by_current_loads():
    """A scene's new traces (e.g. after a hot-swap) re-route its experts."""
    from repro.robustness import faults
    from repro.robustness.faults import ChipletFaultConfig, FaultPlan

    def traces(ray_counts):
        return [
            synthetic_trace(n, 13.0, 0.3, np.random.default_rng(i))
            for i, n in enumerate(ray_counts)
        ]

    system = MultiChipSystem(MultiChipConfig())
    plan = FaultPlan(chiplets=ChipletFaultConfig(dead_chips=(0,), policy="remap"))
    with faults.plan_scope(plan):
        before = system.simulate_batch("lego", traces([300, 100, 600, 600]))
        after = system.simulate_batch("lego", traces([300, 600, 600, 100]))
    # Dead chip 0's expert goes to the least-loaded survivor.
    assert before.expert_assignment == {1: [1, 0], 2: [2], 3: [3]}
    assert after.expert_assignment == {1: [1], 2: [2], 3: [3, 0]}


def test_simulate_batch_replans_on_board_state_change(large_scene_traces):
    from repro.robustness import faults
    from repro.robustness.faults import ChipletFaultConfig, FaultPlan

    system = MultiChipSystem(MultiChipConfig())
    healthy = system.simulate_batch("lego", large_scene_traces)
    assert not healthy.degraded
    faults.activate(
        FaultPlan(chiplets=ChipletFaultConfig(dead_chips=(0,), policy="remap"))
    )
    try:
        degraded = system.simulate_batch("lego", large_scene_traces)
    finally:
        faults.deactivate()
    # Same scene, different board state: neither run poisons the other.
    assert degraded.degraded and degraded.dead_chips == (0,)
    again = system.simulate_batch("lego", large_scene_traces)
    assert not again.degraded
    assert _report_fields(again) == _report_fields(healthy)
