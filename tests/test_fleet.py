"""Fleet controller: placement, churn survival, accounting, bit-identity."""

import json
import logging

import numpy as np
import pytest

from repro.fleet import (
    DEAD,
    FAILED_NO_WORKER,
    FAILED_RPC_EXPIRED,
    FleetConfig,
    FleetController,
    FleetWorker,
    HEALTHY,
    HashRing,
    SLOW,
    format_fleet_report,
    place_experts,
    place_scenes,
    rebalance_experts,
    stable_hash,
    status_bucket,
    workers_from_fault_config,
)
from repro.nerf.renderer import render_image
from repro.robustness import BackoffPolicy
from repro.robustness.errors import FaultConfigError
from repro.robustness.faults import FaultPlan, FleetFaultConfig
from repro.nerf.occupancy import OccupancyGrid
from repro.serve.admission import REJECT_DEADLINE_INFEASIBLE
from repro.serve.batching import RenderRequest
from repro.serve.loadgen import (
    build_demo_registry,
    demo_camera,
    run_closed_loop,
    run_open_loop,
)
from repro.serve.loadgen import demo_model
from repro.serve.service import FAILED_SCENE_EVICTED


def _fresh_fleet(n_scenes=1, config=None, **kwargs):
    registry = build_demo_registry(n_scenes=n_scenes)
    scenes = [s["name"] for s in registry.scenes()]
    controller = FleetController(
        registry, config=config or FleetConfig(keep_frames=True), **kwargs
    )
    return registry, scenes, controller


# -- placement --------------------------------------------------------------


def test_stable_hash_is_process_independent():
    # Pinned CRC32 value: placement must not depend on PYTHONHASHSEED
    # or the process (this constant is the same on every platform).
    assert stable_hash("chair") == 2768454789
    assert stable_hash("chair") == stable_hash("chair")


def test_preference_lists_are_deterministic_and_distinct():
    ring = HashRing(range(5))
    for key in ("chair", "drums", "lego", "mic"):
        prefs = ring.preference(key, 3)
        assert len(prefs) == 3
        assert len(set(prefs)) == 3
        assert prefs == HashRing(range(5)).preference(key, 3)


def test_removal_moves_only_the_dead_workers_keys():
    ring = HashRing(range(6))
    keys = [f"scene-{i}" for i in range(64)]
    before = {k: ring.preference(k, 1)[0] for k in keys}
    ring.remove(3)
    after = {k: ring.preference(k, 1)[0] for k in keys}
    for key in keys:
        if before[key] != 3:
            assert after[key] == before[key]
        else:
            assert after[key] != 3
    assert 3 not in ring
    assert len(ring) == 5


def test_preference_shrinks_with_the_ring():
    ring = HashRing(range(2))
    assert len(ring.preference("chair", 4)) == 2
    ring.remove(0)
    assert ring.preference("chair", 4) == [1]
    ring.remove(1)
    assert ring.preference("chair", 4) == []


def test_place_scenes_and_experts():
    ring = HashRing(range(4))
    placement = place_scenes(["a", "b"], ring, replication=2)
    assert set(placement) == {"a", "b"}
    assert all(len(p) == 2 for p in placement.values())
    assert place_experts(4) == {0: [0], 1: [1], 2: [2], 3: [3]}


def test_rebalance_experts_survivors_keep_their_own():
    loads = [5.0, 1.0, 2.0, 1.0]
    assignment = rebalance_experts(4, [0], loads)
    assert set(assignment) == {1, 2, 3}
    for survivor, experts in assignment.items():
        assert survivor in experts
    # the dead heavy expert lands on exactly one survivor
    assert sum(0 in e for e in assignment.values()) == 1


# -- workers ----------------------------------------------------------------


def test_worker_failure_surface():
    worker = FleetWorker(
        index=0, crash_at_s=2.0, stalls=((0.5, 1.0),), slowdowns=((1.2, 3.0),)
    )
    assert worker.alive_at(1.9) and not worker.alive_at(2.0)
    assert worker.stalled_at(0.7) and not worker.stalled_at(1.0)
    assert not worker.responsive_at(0.7)
    assert worker.service_multiplier(1.0) == 1.0
    assert worker.service_multiplier(1.3) == 3.0
    worker.experts = [0, 1]
    assert worker.service_multiplier(1.3) == 6.0


def test_worker_board_is_serial_and_reply_respects_faults():
    worker = FleetWorker(index=0, crash_at_s=5.0, stalls=((1.0, 2.0),))
    assert worker.occupy(0.0, 0.5) == 0.5
    assert worker.occupy(0.0, 0.5) == 1.0  # queued behind the first
    assert worker.busy_s == 1.0
    assert worker.reply_time(0.5) == 0.5
    assert worker.reply_time(1.5) == 2.0  # deferred past the stall
    assert worker.reply_time(5.0) is None  # crashed first
    dead = FleetWorker(index=1, crash_at_s=1.8, stalls=((1.0, 2.0),))
    assert dead.reply_time(1.5) is None  # stall defers into the crash


def test_workers_from_fault_config_rejects_unknown_worker():
    cfg = FleetFaultConfig(crashes=((7, 1.0),))
    with pytest.raises(ValueError, match="worker 7"):
        workers_from_fault_config(4, cfg)


def test_workers_from_fault_config_wires_schedule():
    cfg = FleetFaultConfig(
        crashes=((1, 3.0),),
        stalls=((0, 1.0, 0.5),),
        slowdowns=((2, 0.0, 2.5),),
    )
    workers = workers_from_fault_config(3, cfg)
    assert workers[1].crash_at_s == 3.0
    assert workers[0].stalls == ((1.0, 1.5),)
    assert workers[2].slowdowns == ((0.0, 2.5),)


# -- fault-plan fleet section ------------------------------------------------


def test_fleet_fault_config_roundtrips_through_json():
    plan = FaultPlan.from_dict(
        {
            "seed": 11,
            "fleet": {
                "crashes": [[1, 0.5]],
                "stalls": [[0, 0.2, 0.3]],
                "slowdowns": [[2, 0.1, 2.0]],
                "drop_reply_fraction": 0.25,
            },
        }
    )
    assert not plan.is_empty
    clone = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
    assert clone.fleet == plan.fleet
    assert clone.fleet.crashes == ((1, 0.5),)


def test_fleet_fault_config_validation():
    with pytest.raises(FaultConfigError):
        FleetFaultConfig(drop_reply_fraction=1.5)
    with pytest.raises(FaultConfigError):
        FleetFaultConfig(crashes=((0, 1.0), (0, 2.0)))  # one crash/worker
    with pytest.raises(FaultConfigError):
        FleetFaultConfig(slowdowns=((0, 1.0, 0.5),))  # factor < 1
    assert FleetFaultConfig().is_empty
    assert not FleetFaultConfig(crashes=((0, 1.0),)).is_empty


# -- serving surface ---------------------------------------------------------


def test_closed_loop_frames_bit_identical_to_render_image():
    registry, scenes, controller = _fresh_fleet()
    camera = demo_camera(16, 16)
    report = run_closed_loop(controller, scenes[0], n_frames=2, camera=camera)
    handle = registry.acquire(scenes[0])
    direct = render_image(
        handle.model,
        camera,
        handle.normalizer,
        handle.marcher,
        occupancy=handle.occupancy,
        background=handle.background,
        chunk=controller.config.slice_rays,
    )
    handle.release()
    assert report.completed == 2
    for response in report.responses:
        assert np.array_equal(response.frame, direct)


def test_replica_served_frame_bit_identical_to_primary_served():
    camera = demo_camera(16, 16)
    registry, scenes, primary_fleet = _fresh_fleet()
    primary_fleet.submit(
        RenderRequest(
            request_id=0, scene=scenes[0], camera=camera, arrival_s=0.0
        )
    )
    primary_fleet.run()
    primary_resp = primary_fleet.responses[0]
    assert primary_resp.completed and not primary_resp.via_hedge

    # Same request against a fleet whose primary for this scene is dead
    # from t=0: a replica must serve the identical pixels.
    primary_worker = primary_resp.served_by
    plan = FaultPlan(
        seed=3, fleet=FleetFaultConfig(crashes=((primary_worker, 0.0),))
    )
    registry2 = build_demo_registry(n_scenes=1)
    replica_fleet = FleetController(
        registry2, config=FleetConfig(keep_frames=True), fault_plan=plan
    )
    replica_fleet.submit(
        RenderRequest(
            request_id=0, scene=scenes[0], camera=camera, arrival_s=0.0
        )
    )
    replica_fleet.run()
    replica_resp = replica_fleet.responses[0]
    assert replica_resp.completed
    assert replica_resp.served_by != primary_worker
    assert np.array_equal(replica_resp.frame, primary_resp.frame)


def test_open_loop_driver_works_unchanged():
    registry, scenes, controller = _fresh_fleet(
        n_scenes=2, config=FleetConfig()
    )
    report = run_open_loop(
        controller, scenes, rate_hz=15.0, duration_s=1.0,
        camera=demo_camera(16, 16),
    )
    assert report.completed == report.n_offered > 0
    row = report.row()
    assert row["driver"] == "open-loop"
    assert controller.accounting()["unaccounted"] == 0


# -- churn survival ----------------------------------------------------------


def _chaos_plan(seed=7):
    return FaultPlan(
        seed=seed,
        fleet=FleetFaultConfig(
            crashes=((1, 0.5),),
            stalls=((2, 0.8, 0.4),),
            slowdowns=((0, 0.3, 2.0),),
            drop_reply_fraction=0.1,
        ),
    )


def test_exactly_once_accounting_under_chaos():
    registry, scenes, controller = _fresh_fleet(
        n_scenes=2,
        config=FleetConfig(rpc_timeout_s=0.1),
        fault_plan=_chaos_plan(),
    )
    report = run_open_loop(
        controller, scenes, rate_hz=30.0, duration_s=2.0,
        camera=demo_camera(16, 16),
    )
    accounting = controller.accounting()
    assert accounting["offered"] == report.n_offered
    assert (
        accounting["completed"] + accounting["shed"] + accounting["failed"]
        == accounting["offered"]
    )
    assert accounting["unaccounted"] == 0
    # every request resolved exactly once, with a terminal status
    assert len(controller.responses) == accounting["offered"]
    for response in controller.responses.values():
        assert status_bucket(response.status) in {"completed", "shed", "failed"}


def test_crashed_worker_is_declared_dead_and_rebalanced(caplog):
    registry, scenes, controller = _fresh_fleet(
        n_scenes=2, config=FleetConfig(), fault_plan=_chaos_plan()
    )
    with caplog.at_level(logging.WARNING, logger="repro.fleet"):
        run_open_loop(
            controller, scenes, rate_hz=30.0, duration_s=2.0,
            camera=demo_camera(16, 16),
        )
    assert controller.workers[1].health == DEAD
    assert 1 not in controller.ring
    assert len(controller.rebalances) >= 1
    record = controller.rebalances[0]
    assert record["worker"] == 1
    # the dead worker's expert now lives on a survivor
    hosts = [w for w in controller.workers
             if w.health != DEAD and 1 in w.experts]
    assert len(hosts) == 1
    assert any("fleet rebalance: worker 1" in r.message for r in caplog.records)
    assert "fleet rebalance: worker 1" in controller.report()


def test_stall_shorter_than_miss_limit_does_not_kill():
    plan = FaultPlan(seed=0, fleet=FleetFaultConfig(stalls=((0, 0.2, 0.08),)))
    registry, scenes, controller = _fresh_fleet(
        config=FleetConfig(
            n_workers=2, replication=2,
            heartbeat_interval_s=0.05, heartbeat_miss_limit=3,
        ),
        fault_plan=plan,
    )
    run_open_loop(
        controller, scenes, rate_hz=20.0, duration_s=1.0,
        camera=demo_camera(16, 16),
    )
    assert controller.workers[0].health != DEAD
    assert controller.rebalances == []


def test_long_stall_is_indistinguishable_from_death():
    plan = FaultPlan(seed=0, fleet=FleetFaultConfig(stalls=((0, 0.1, 5.0),)))
    registry, scenes, controller = _fresh_fleet(
        config=FleetConfig(n_workers=2, replication=2),
        fault_plan=plan,
    )
    run_open_loop(
        controller, scenes, rate_hz=20.0, duration_s=1.0,
        camera=demo_camera(16, 16),
    )
    assert controller.workers[0].health == DEAD
    assert controller.accounting()["unaccounted"] == 0


def test_all_replies_dropped_requests_fail_loudly_not_hang():
    plan = FaultPlan(
        seed=5, fleet=FleetFaultConfig(drop_reply_fraction=1.0)
    )
    registry, scenes, controller = _fresh_fleet(
        config=FleetConfig(
            n_workers=2,
            replication=2,
            rpc_timeout_s=0.05,
            backoff=BackoffPolicy(
                base_s=0.01, multiplier=2.0, max_delay_s=0.05, jitter=0.5,
                max_retries=1,
            ),
        ),
        fault_plan=plan,
    )
    controller.submit(
        RenderRequest(
            request_id=0, scene=scenes[0], camera=demo_camera(16, 16),
            arrival_s=0.0,
        )
    )
    controller.run()
    response = controller.responses[0]
    assert response.status == FAILED_RPC_EXPIRED
    accounting = controller.accounting()
    assert accounting["failed"] == 1 and accounting["unaccounted"] == 0
    assert controller.stats()["dropped_replies"] >= 1
    assert controller.stats()["hedges"] == 1


def test_whole_fleet_dead_fails_not_hangs():
    plan = FaultPlan(
        seed=0,
        fleet=FleetFaultConfig(crashes=((0, 0.05), (1, 0.05))),
    )
    registry, scenes, controller = _fresh_fleet(
        config=FleetConfig(n_workers=2, replication=2, rpc_timeout_s=0.05),
        fault_plan=plan,
    )
    controller.submit(
        RenderRequest(
            request_id=0, scene=scenes[0], camera=demo_camera(16, 16),
            arrival_s=0.5,
        )
    )
    controller.run()
    response = controller.responses[0]
    assert response.status in (FAILED_RPC_EXPIRED, FAILED_NO_WORKER)
    assert controller.accounting()["unaccounted"] == 0


def test_chaos_run_is_deterministic():
    def _run():
        registry, scenes, controller = _fresh_fleet(
            n_scenes=2,
            config=FleetConfig(rpc_timeout_s=0.1),
            fault_plan=_chaos_plan(seed=13),
        )
        run_open_loop(
            controller, scenes, rate_hz=30.0, duration_s=2.0,
            camera=demo_camera(16, 16),
        )
        stats = controller.stats()
        return (
            stats["statuses"],
            stats["retries"],
            stats["hedges"],
            stats["dropped_replies"],
            controller.rebalances,
            controller.report(),
        )

    assert _run() == _run()


def test_deadline_budget_bounds_retries():
    plan = FaultPlan(seed=1, fleet=FleetFaultConfig(drop_reply_fraction=1.0))
    registry, scenes, controller = _fresh_fleet(
        config=FleetConfig(
            n_workers=2, replication=2, rpc_timeout_s=0.05, hedging=False,
            backoff=BackoffPolicy(
                base_s=0.01, multiplier=2.0, max_delay_s=0.1, jitter=0.0,
                max_retries=10,
            ),
        ),
        fault_plan=plan,
    )
    controller.submit(
        RenderRequest(
            request_id=0, scene=scenes[0], camera=demo_camera(16, 16),
            arrival_s=0.0, deadline_s=0.12,
        )
    )
    controller.run()
    assert controller.responses[0].status == FAILED_RPC_EXPIRED
    # the 0.12s budget only has room for ~1 timeout+retry cycle, far
    # below the policy's own 10-retry ceiling
    assert controller.stats()["retries"] < 3


def test_force_evicted_scene_fails_instead_of_rendering_on_hedge():
    """A hedge must not render a scene force-undeployed mid-flight."""
    plan = FaultPlan(seed=0, fleet=FleetFaultConfig(stalls=((1, 0.0, 1.0),)))
    registry, scenes, controller = _fresh_fleet(
        config=FleetConfig(n_workers=2, replication=2), fault_plan=plan
    )
    assert controller.ring.preference(scenes[0], 2)[0] == 1  # stalled primary
    controller.submit(
        RenderRequest(
            request_id=0, scene=scenes[0], camera=demo_camera(8, 8),
            arrival_s=0.0,
        )
    )
    controller.run(max_events=1)  # admitted, dispatched to worker 1
    registry.undeploy(scenes[0], force=True)
    controller.run()
    assert controller.stats()["hedges"] == 1
    assert controller.responses[0].status == FAILED_SCENE_EVICTED
    accounting = controller.accounting()
    assert accounting["failed"] == 1 and accounting["unaccounted"] == 0


def test_hot_swap_snaps_cost_estimate_and_blocks_doomed_deadlines():
    """A costlier hot-swap mid-run must not cause a deadline-miss storm.

    The first generation-2 completion replaces the generation-1
    estimate instead of blending with it, so deadline work sized between
    the old and the new cost is rejected up front rather than admitted
    to miss.
    """
    registry, scenes, controller = _fresh_fleet(config=FleetConfig())
    scene = scenes[0]
    camera = demo_camera(8, 8)  # 64-ray probes
    key = (scene, "ngp", "full")
    for i in range(3):
        controller.submit(
            RenderRequest(
                request_id=i, scene=scene, camera=camera,
                arrival_s=0.01 * i, deadline_s=0.01 * i + 1.0,
            )
        )
    controller.submit(
        RenderRequest(
            request_id=3, scene=scene, camera=camera,
            arrival_s=0.1, deadline_s=1.1,
        )
    )
    while len(controller.responses) < 3:
        controller.run(max_events=1)
    est_old = controller.cost.s_per_ray[key]

    # mid-run hot-swap: a full occupancy grid keeps every sample
    handle = registry.acquire(scene)
    registry.deploy(
        scene,
        model=demo_model(seed=1),
        occupancy=OccupancyGrid(resolution=16),
        normalizer=handle.normalizer,
        background=handle.background,
    )
    handle.release()
    busy = sum(w.busy_s for w in controller.workers)
    controller.run()
    assert controller.responses[3].completed
    observed = (sum(w.busy_s for w in controller.workers) - busy) / 64
    est_new = controller.cost.s_per_ray[key]
    assert est_new == pytest.approx(observed)
    assert est_new > 1.5 * est_old
    stats = controller.stats()
    assert stats["ewma_reblends"] == 1
    assert stats["ewma_s_per_ray_by_key"] == {f"{scene}/ngp/full": est_new}

    # the backlog drains on every live worker in parallel
    n_live = len(controller.ring)
    t = controller.now_s
    slack = 64 * (est_old + est_new) / 2 / n_live
    for i in range(20, 26):
        controller.submit(
            RenderRequest(
                request_id=i, scene=scene, camera=camera,
                arrival_s=t, deadline_s=t + slack,
            )
        )
    controller.run()
    for i in range(20, 26):
        assert controller.responses[i].status == REJECT_DEADLINE_INFEASIBLE
    assert controller.slo.completed == 4
    assert controller.accounting()["unaccounted"] == 0


def test_cost_model_seed_rejects_infeasible_cold_start():
    from repro.obs.costmodel import FittedStat, SceneCostModel

    registry, scenes, _ = _fresh_fleet()
    model = SceneCostModel(
        scene=scenes[0],
        sim_s_per_ray=FittedStat.fit([1.0]),  # absurdly slow scene
    )
    controller = FleetController(
        registry, config=FleetConfig(), cost_models={scenes[0]: model}
    )
    # tight deadline: only a seeded cost estimate can prove
    # infeasibility before the first completion trains the EWMA
    controller.submit(
        RenderRequest(
            request_id=0, scene=scenes[0], camera=demo_camera(16, 16),
            arrival_s=0.0, deadline_s=0.5,
        )
    )
    controller.run()
    assert controller.responses[0].status.startswith("rejected")

    # a model fitted for a different renderer must be ignored
    mismatched = SceneCostModel(
        scene=scenes[0],
        sim_s_per_ray=FittedStat.fit([1.0]),
        renderer="tensorf",
    )
    controller2 = FleetController(
        registry, config=FleetConfig(), cost_models={scenes[0]: mismatched}
    )
    controller2.submit(
        RenderRequest(
            request_id=0, scene=scenes[0], camera=demo_camera(16, 16),
            arrival_s=0.0, deadline_s=0.5,
        )
    )
    controller2.run()
    assert controller2.responses[0].completed


def test_report_prints_accounting_invariant():
    registry, scenes, controller = _fresh_fleet(config=FleetConfig())
    run_open_loop(
        controller, scenes, rate_hz=10.0, duration_s=0.5,
        camera=demo_camera(16, 16),
    )
    report = format_fleet_report(controller)
    assert "unaccounted requests: 0" in report
    assert "fleet" in report
    assert "workers: 4" in report


def test_fleet_config_validation():
    with pytest.raises(ValueError):
        FleetConfig(n_workers=0)
    with pytest.raises(ValueError):
        FleetConfig(n_workers=2, replication=3)
    with pytest.raises(ValueError):
        FleetConfig(rpc_timeout_s=0.0)
    with pytest.raises(ValueError):
        FleetConfig(slow_factor=1.0)


# -- fleet planning, dashboard panel, experiment, CLI -----------------------


def _chair_model(s_per_ray=1e-6):
    from repro.obs import FittedStat, SceneCostModel

    return SceneCostModel(
        scene="chair",
        sim_s_per_ray=FittedStat.fit([s_per_ray, 1.1 * s_per_ray]),
        meta={"rays_per_frame": 256},
    )


def test_plan_fleet_adds_spares_on_top_of_boards():
    from repro.obs import PlanTarget, plan_capacity, plan_fleet

    target = PlanTarget(rate_hz=500.0, rays_per_frame=256, slo_s=0.010)
    base = plan_capacity(_chair_model(), target)
    fleet = plan_fleet(_chair_model(), target, replication=2, spare_workers=1)
    assert fleet.feasible
    assert fleet.workers >= base.boards + 1
    # Replication needs distinct workers to seat every copy.
    assert fleet.workers >= 2
    assert 0.0 < fleet.utilization < 1.0


def test_plan_fleet_grows_boards_to_seat_replication():
    from repro.obs import PlanTarget, plan_fleet

    # Tiny load: one board suffices, but replication 3 needs 3 seats.
    fleet = plan_fleet(
        _chair_model(),
        PlanTarget(rate_hz=10.0, rays_per_frame=256, slo_s=0.050),
        replication=3,
        spare_workers=0,
    )
    assert fleet.feasible
    assert fleet.workers >= 3


def test_plan_fleet_validates_args():
    from repro.obs import PlanTarget, plan_fleet

    target = PlanTarget(rate_hz=10.0, rays_per_frame=256, slo_s=0.050)
    with pytest.raises(ValueError):
        plan_fleet(_chair_model(), target, replication=0)
    with pytest.raises(ValueError):
        plan_fleet(_chair_model(), target, spare_workers=-1)


def test_format_fleet_plan_has_greppable_line():
    from repro.obs import PlanTarget, format_fleet_plan, plan_fleet

    fleet = plan_fleet(
        _chair_model(), PlanTarget(rate_hz=500.0, rays_per_frame=256, slo_s=0.010),
        replication=2, spare_workers=1,
    )
    text = format_fleet_plan(fleet, _chair_model())
    assert "fleet plan:" in text
    assert "spare" in text
    infeasible = plan_fleet(
        _chair_model(1.0), PlanTarget(rate_hz=500.0, rays_per_frame=256, slo_s=0.010),
    )
    assert "fleet plan: INFEASIBLE" in format_fleet_plan(infeasible)


def test_dashboard_renders_fleet_panel():
    from repro.obs import render_dashboard

    registry, scenes, controller = _fresh_fleet()
    controller.submit(
        RenderRequest(
            request_id=0, scene=scenes[0], camera=demo_camera(8, 8),
            arrival_s=0.0,
        )
    )
    controller.run()
    history = [{"t_s": controller.now_s, "counters": {}, "gauges": {}}]
    frame = render_dashboard(
        history, slo=controller.slo.to_payload(), fleet=controller.stats()
    )
    assert "fleet" in frame
    assert "worker 0:" in frame
    assert "unaccounted: 0" in frame
    # Omitting the fleet dict keeps the classic layout.
    assert "worker 0:" not in render_dashboard(history)


def test_churn_scenario_row_is_exactly_once_and_recovers():
    from repro.experiments.fleet_churn import run_churn_scenario

    controller, report, row = run_churn_scenario(
        n_workers=4, kill_at_s=0.5, rate_hz=40.0, duration_s=1.5, probe=8,
    )
    assert row["offered"] == row["completed"] + row["shed"] + row["failed"]
    assert row["unaccounted"] == 0
    assert row["detect_delay_s"] == row["detect_delay_s"]  # rebalanced
    assert row["recovered"]
    assert controller.dead_workers == [row["victim"]]
    assert report.completed == row["completed"]


def test_cli_fleet_smoke_exit_and_grep_lines(capsys):
    from repro.experiments import runner

    code = runner.main(["fleet", "--smoke"])
    out = capsys.readouterr().out
    assert code == 0
    assert "fleet rebalance: worker" in out
    assert "unaccounted requests: 0" in out
    assert "fleet churn: killed worker" in out
    assert "(recovered" in out


def test_cli_fleet_faults_file(capsys, tmp_path):
    from repro.experiments import runner

    path = tmp_path / "plan.json"
    path.write_text(json.dumps({
        "seed": 5,
        "fleet": {"crashes": [[1, 0.3]], "drop_reply_fraction": 0.05},
    }))
    code = runner.main([
        "fleet", "--faults", str(path), "--duration", "1.0", "--rate", "30",
        "--probe", "8",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "fleet rebalance: worker 1" in out
    assert "unaccounted requests: 0" in out


def test_cli_fleet_json_payload(capsys):
    from repro.experiments import runner

    code = runner.main(["fleet", "--smoke", "--json"])
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert code == 0
    assert payload["accounting"]["unaccounted"] == 0
    assert payload["churn"]["recovered"] is True
    assert payload["stats"]["completed"] > 0


def test_cli_plan_spare_workers(capsys, tmp_path):
    from repro.experiments import runner

    model = _chair_model()
    path = str(tmp_path / "model.json")
    model.save(path)
    code = runner.main([
        "plan", "--model", path, "--rate", "500", "--slo-ms", "10",
        "--spare-workers", "1", "--replication", "2",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "fleet plan:" in out
    assert "1 spare" in out
    # JSON mode carries the fleet payload alongside the model.
    assert runner.main([
        "plan", "--model", path, "--rate", "500", "--slo-ms", "10",
        "--spare-workers", "1", "--json",
    ]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert payload["fleet"]["workers"] >= 2
    assert payload["fleet"]["feasible"] is True
