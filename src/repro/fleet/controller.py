"""The fleet controller: dispatch, churn survival, exact accounting.

:class:`FleetController` runs N simulated render workers
(:mod:`repro.fleet.workers`) behind one serving surface.  It duck-types
the client surface of :class:`~repro.serve.service.RenderService`
(``submit`` / ``run`` / ``now_s`` / ``stats`` / ``slo`` / ``report``),
so the existing Poisson and closed-loop load generators
(:mod:`repro.serve.loadgen`) drive a fleet unchanged.

The robustness core, in the order a request meets it:

* **admission** — the serve layer's
  :class:`~repro.serve.admission.AdmissionController` ladder over the
  fleet-wide outstanding-ray backlog, fed by the serve layer's shared
  :class:`~repro.serve.cost.CostEstimator` (one generation-aware
  estimate per (scene, renderer, precision), optionally seeded from
  fitted cost models) divided by the live-worker count;
* **placement** — consistent-hash preference lists with replication
  (:mod:`repro.fleet.placement`): primary first, healthy before slow;
* **per-RPC deadlines** — every dispatch schedules a timeout; a reply
  that never comes (crash, stall, dropped reply) cannot hang a request;
* **hedging** — the first missed deadline immediately duplicates the
  request onto an untried replica; the first reply wins, the loser is
  ignored;
* **retries** — further misses retry under the shared
  :class:`~repro.robustness.backoff.BackoffPolicy`: jittered exponential
  delays on the *virtual* clock, budgeted against the request deadline,
  capped by ``max_retries``;
* **failure detection** — heartbeats on the fleet clock; a worker that
  misses ``heartbeat_miss_limit`` consecutive beats is declared dead;
* **rebalance** — on death the ring drops the worker (only its scenes
  move), replicas are promoted, and MoE experts are remapped onto the
  least-loaded survivors via
  :func:`repro.robustness.degradation.plan_remap` — the same greedy-LPT
  policy the chip level uses.

Every submitted request terminates in exactly one of
{completed, shed, failed} — :meth:`FleetController.accounting` proves
it, and the report prints the ``unaccounted requests: 0`` line CI
greps.  Pixels are exact and worker-independent: frames render through
the shared registry's models in ``slice_rays`` chunks, so a
replica-served frame is bit-identical to the primary's, and both match
a direct :func:`~repro.nerf.renderer.render_image` call.

Determinism: the event loop is a seeded discrete-event simulation —
arrival stream, fault schedule (:class:`FleetFaultConfig` sites wired
at init), reply-drop draws, and backoff jitter all derive from the
fault plan's seed, so a churn scenario replays bit-exactly.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass, field

import numpy as np

from .. import telemetry
from ..nerf.renderer import render_rays
from ..nerf.sampling import RayMarcher, SamplerConfig
from ..robustness.backoff import BackoffPolicy
from ..robustness.faults import FaultPlan
from ..serve.admission import AdmissionController, AdmissionPolicy
from ..serve.batching import RenderRequest, activate_request, slice_request
from ..serve.cost import CostEstimator, board_time_s
from ..serve.registry import SceneRegistry, UnknownSceneError
from ..serve.service import (
    FAILED_SCENE_EVICTED,
    FAILED_UNKNOWN_SCENE,
    RenderResponse,
)
from ..serve.slo import SLOTracker, format_slo_report
from ..sim.multichip import MultiChipSystem
from .placement import HashRing, place_experts, rebalance_experts
from .workers import DEAD, HEALTHY, SLOW, workers_from_fault_config

logger = logging.getLogger("repro.fleet")

#: Terminal status when every RPC attempt for a request ran out.
FAILED_RPC_EXPIRED = "failed_rpc_expired"
#: Terminal status when no live worker remained to dispatch to.
FAILED_NO_WORKER = "failed_worker_unavailable"

# Event kinds, in tie-break priority order (same-instant replies are
# handled before deadlines: a reply landing exactly at the deadline
# still counts).
_EV_ARRIVAL = 0
_EV_REPLY = 1
_EV_DEADLINE = 2
_EV_RETRY = 3
_EV_HEARTBEAT = 4


def status_bucket(status: str) -> str:
    """Map a terminal status onto {completed, shed, failed}.

    Admission rejections (shed, expired/infeasible deadlines) count as
    *shed* — the service refused the work; *failed* is work the fleet
    accepted and could not finish.
    """
    if status == "completed":
        return "completed"
    if status.startswith("shed") or status.startswith("rejected"):
        return "shed"
    return "failed"


@dataclass(frozen=True)
class FleetConfig:
    """Fleet-wide sizing, placement, and robustness knobs."""

    n_workers: int = 4
    #: Workers each scene is placed on (primary + replicas).
    replication: int = 2
    #: Virtual nodes per worker on the consistent-hash ring.
    vnodes: int = 32
    #: Per-RPC deadline on the fleet clock.
    rpc_timeout_s: float = 0.25
    #: Duplicate onto an untried replica at the first missed deadline.
    hedging: bool = True
    #: Retry pacing after (hedge and) deadline misses; delays elapse on
    #: the virtual clock and are budgeted against the request deadline.
    backoff: BackoffPolicy = field(
        default_factory=lambda: BackoffPolicy(
            base_s=0.02, multiplier=2.0, max_delay_s=0.25, jitter=0.5,
            max_retries=2,
        )
    )
    heartbeat_interval_s: float = 0.05
    #: Consecutive missed heartbeats before a worker is declared dead.
    heartbeat_miss_limit: int = 3
    #: Service-time inflation at which a worker is marked ``slow``
    #: (routing prefers healthy workers over slow ones).
    slow_factor: float = 2.0
    #: Rays of one hardware dispatch chunk — the bit-identity anchor
    #: (frames match ``render_image`` at this chunk size).
    slice_rays: int = 4096
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    slo_targets: dict = None
    keep_frames: bool = False

    def __post_init__(self):
        if self.n_workers < 1:
            raise ValueError("n_workers must be positive")
        if not 1 <= self.replication <= self.n_workers:
            raise ValueError("need 1 <= replication <= n_workers")
        if self.rpc_timeout_s <= 0:
            raise ValueError("rpc_timeout_s must be positive")
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        if self.heartbeat_miss_limit < 1:
            raise ValueError("heartbeat_miss_limit must be >= 1")
        if self.slow_factor <= 1.0:
            raise ValueError("slow_factor must exceed 1")
        if self.slice_rays < 1:
            raise ValueError("slice_rays must be positive")


@dataclass
class _Rpc:
    """One dispatched RPC attempt."""

    request_id: int
    worker: int
    hedge: bool
    service_s: float
    frame: object = None


@dataclass
class _Entry:
    """Ledger record of one admitted request."""

    request: RenderRequest
    handle: object
    marcher: object
    samples_per_ray: int
    resolution_scale: float
    degrade_level: int
    n_rays: int
    primary: int = None
    tried: list = field(default_factory=list)
    rpc_ids: list = field(default_factory=list)
    outstanding: set = field(default_factory=set)
    attempts: int = 0
    retries: int = 0
    hedged: bool = False
    pending_retry: bool = False
    status: str = None


@dataclass
class FleetResponse(RenderResponse):
    """Terminal outcome of one fleet request, as seen by the client."""

    #: Worker that served the completing reply (``None`` unless completed).
    served_by: int = None
    #: Whether the completing reply came from a hedge/retry dispatch
    #: rather than the first (primary) RPC.
    via_hedge: bool = False


class FleetController:
    """N sharded, replicated render workers behind one serving surface."""

    def __init__(
        self,
        registry: SceneRegistry,
        config: FleetConfig = None,
        system: MultiChipSystem = None,
        fault_plan: FaultPlan = None,
        cost_models: dict = None,
    ):
        self.registry = registry
        self.config = config or FleetConfig()
        #: One board model shared for cost evaluation; per-worker *time*
        #: lives on the workers (identical boards, like the chip level).
        self.system = system or MultiChipSystem()
        self.fault_plan = fault_plan
        fleet_cfg = fault_plan.fleet if fault_plan is not None else None
        self.fleet_faults = fleet_cfg
        self.workers = workers_from_fault_config(
            self.config.n_workers, fleet_cfg
        )
        self.ring = HashRing(
            range(self.config.n_workers), vnodes=self.config.vnodes
        )
        for worker, experts in place_experts(self.config.n_workers).items():
            self.workers[worker].experts = list(experts)
        self.admission = AdmissionController(self.config.admission)
        self.slo = SLOTracker(self.config.slo_targets)
        seed = fault_plan.seed if fault_plan is not None else 0
        self._drop_rng = (
            fault_plan.rng("fleet.drop_reply")
            if fault_plan is not None else None
        )
        self._backoff_rng = (
            fault_plan.rng("fleet.backoff")
            if fault_plan is not None
            else np.random.default_rng(seed)
        )
        self.cost = CostEstimator(cost_models)
        #: Fleet clock, virtual seconds.
        self.now_s = 0.0
        self._events = []  # heap of (t, kind, seq, payload)
        self._seq = 0
        self._ledger = {}  # request_id -> _Entry
        self._rpcs = {}  # rpc_id -> _Rpc
        self._next_rpc = 0
        self._callbacks = {}
        self.responses = {}
        self._outstanding_rays = 0
        self._pending_arrivals = 0
        self._in_flight = 0
        self._hb_armed = False
        self.offered = 0
        self.rpc_timeouts = 0
        self.retries = 0
        self.hedges = 0
        self.late_replies = 0
        self.dropped_replies = 0
        self.dead_workers = []
        #: Rebalance records, one per declared death.
        self.rebalances = []
        #: ``(t_s, priority, latency_s)`` per completion, for windowed
        #: attainment studies (churn dip and recovery).
        self.completions = []

    # -- client surface --------------------------------------------------

    def submit(self, request: RenderRequest, on_complete=None) -> int:
        """Queue a request for its ``arrival_s``; returns the request id."""
        self.offered += 1
        self._pending_arrivals += 1
        self._push(request.arrival_s, _EV_ARRIVAL, request)
        if on_complete is not None:
            self._callbacks[request.request_id] = on_complete
        return request.request_id

    def run(self, max_events: int = None) -> SLOTracker:
        """Replay the fleet timeline until all submitted work is terminal.

        Closed-loop clients may submit from completion callbacks; the
        loop drains until the event heap empties.  ``max_events`` is a
        safety valve for open-ended drivers.
        """
        handled = 0
        while self._events:
            t, kind, _, payload = heapq.heappop(self._events)
            self.now_s = max(self.now_s, t)
            if kind == _EV_ARRIVAL:
                self._pending_arrivals -= 1
                self._admit(payload)
            elif kind == _EV_REPLY:
                self._on_reply(payload)
            elif kind == _EV_DEADLINE:
                self._on_deadline(payload)
            elif kind == _EV_RETRY:
                self._on_retry(payload)
            elif kind == _EV_HEARTBEAT:
                self._on_heartbeat()
            handled += 1
            if max_events is not None and handled >= max_events:
                break
        return self.slo

    # -- event plumbing --------------------------------------------------

    def _push(self, t: float, kind: int, payload) -> None:
        heapq.heappush(self._events, (t, kind, self._seq, payload))
        self._seq += 1
        if kind in (_EV_ARRIVAL, _EV_REPLY, _EV_DEADLINE, _EV_RETRY):
            self._arm_heartbeat()

    def _arm_heartbeat(self) -> None:
        if self._hb_armed:
            return
        self._hb_armed = True
        t = self.now_s + self.config.heartbeat_interval_s
        heapq.heappush(self._events, (t, _EV_HEARTBEAT, self._seq, None))
        self._seq += 1

    # -- admission -------------------------------------------------------

    def _admit(self, request: RenderRequest) -> None:
        try:
            handle = self.registry.acquire(request.scene)
        except UnknownSceneError:
            self._reject(request, FAILED_UNKNOWN_SCENE)
            return
        full_spr = handle.marcher.config.max_samples
        est = self.cost.estimate(handle)
        n_live = max(len(self.ring), 1)
        decision = self.admission.decide(
            request,
            self.now_s,
            self._outstanding_rays,
            full_spr,
            # The backlog is worked off by every live worker in
            # parallel, so the fleet-effective rate is n_live boards.
            est_s_per_ray=(est / n_live if est is not None else None),
        )
        if not decision.admitted:
            handle.release()
            self._reject(request, decision.status)
            return
        if decision.samples_per_ray == full_spr:
            marcher = handle.marcher
        else:
            marcher = RayMarcher(
                SamplerConfig(max_samples=decision.samples_per_ray)
            )
        entry = _Entry(
            request=request,
            handle=handle,
            marcher=marcher,
            samples_per_ray=decision.samples_per_ray,
            resolution_scale=decision.resolution_scale,
            degrade_level=decision.degrade_level,
            n_rays=max(
                int(request.n_rays * decision.resolution_scale**2), 1
            ),
        )
        self._ledger[request.request_id] = entry
        self._in_flight += 1
        self._outstanding_rays += entry.n_rays
        worker = self._pick_worker(request.scene, exclude=())
        if worker is None:
            self._fail(entry, FAILED_NO_WORKER)
            return
        entry.primary = worker
        self._dispatch(entry, worker)

    # -- placement -------------------------------------------------------

    def _preference(self, scene: str) -> list:
        """Scene preference list: ring order, healthy before slow."""
        prefs = self.ring.preference(scene, self.config.replication)
        return sorted(
            prefs,
            key=lambda w: 0 if self.workers[w].health == HEALTHY else 1,
        )

    def _pick_worker(self, scene: str, exclude) -> int:
        """Best dispatch target for ``scene``, skipping ``exclude``.

        Preference-list workers first; any live worker as a fallback
        (the scene's data is in the shared registry, so any worker *can*
        serve it — off-preference dispatch just loses locality); the
        exclusion is relaxed before giving up entirely.
        """
        exclude = set(exclude)
        prefs = self._preference(scene)
        for worker in prefs:
            if worker not in exclude:
                return worker
        fallback = sorted(
            (w for w in self.ring.workers if w not in exclude),
            key=lambda w: (0 if self.workers[w].health == HEALTHY else 1, w),
        )
        if fallback:
            return fallback[0]
        return prefs[0] if prefs else None

    # -- dispatch --------------------------------------------------------

    def _dispatch(self, entry: _Entry, worker_idx: int, hedge: bool = False):
        if not entry.handle.valid:
            # Force-undeployed while in flight: never render an evicted scene.
            self._fail(entry, FAILED_SCENE_EVICTED)
            return
        now = self.now_s
        worker = self.workers[worker_idx]
        entry.attempts += 1
        entry.tried.append(worker_idx)
        rpc_id = self._next_rpc
        self._next_rpc += 1
        entry.rpc_ids.append(rpc_id)
        entry.outstanding.add(rpc_id)
        frame = None
        service_s = 0.0
        reply_t = None
        if worker.alive_at(now):
            frame, billed, service_s = self._execute(entry, worker, now)
            end = worker.occupy(now, service_s)
            worker.billed_samples += billed
            reply_t = worker.reply_time(end)
            if (
                reply_t is not None
                and self.fleet_faults is not None
                and self.fleet_faults.drop_reply_fraction > 0.0
                and float(self._drop_rng.random())
                < self.fleet_faults.drop_reply_fraction
            ):
                self.dropped_replies += 1
                reply_t = None
        self._rpcs[rpc_id] = _Rpc(
            request_id=entry.request.request_id,
            worker=worker_idx,
            hedge=hedge,
            service_s=service_s,
            frame=frame,
        )
        if reply_t is not None:
            self._push(reply_t, _EV_REPLY, rpc_id)
        self._push(now + self.config.rpc_timeout_s, _EV_DEADLINE, rpc_id)

    def _execute(self, entry: _Entry, worker, now: float) -> tuple:
        """Render the request's pixels and price its board time.

        Rendering happens in ``slice_rays`` chunks through the shared
        registry models — the exact computation
        :func:`~repro.nerf.renderer.render_image` performs at the same
        chunk size, on *any* worker, which is the bit-identity
        guarantee.  Board time is the scene trace stretched to the
        billed sample volume (the serve layer's billing model), scaled
        by the worker's current service multiplier (inherited experts,
        slow-degrades).
        """
        handle = entry.handle
        active = activate_request(
            entry.request,
            handle,
            entry.marcher,
            entry.samples_per_ray,
            entry.resolution_scale,
            entry.degrade_level,
            now,
        )
        slices = slice_request(active, self.config.slice_rays)
        billed = 0.0
        for item in slices:
            colors, samples, _ = render_rays(
                handle.model,
                active.origins[item.start : item.stop],
                active.directions[item.start : item.stop],
                active.marcher,
                occupancy=handle.occupancy,
                background=handle.background,
            )
            active.out[item.start : item.stop] = colors
            billed += len(samples) * entry.request.hw_scale
        active.finish("completed", now)
        board_s = board_time_s(
            self.system, entry.request.scene, handle.trace, billed
        )
        return active.frame, billed, board_s * worker.service_multiplier(now)

    # -- replies, deadlines, retries -------------------------------------

    def _on_reply(self, rpc_id: int) -> None:
        rpc = self._rpcs.get(rpc_id)
        if rpc is None:
            return
        entry = self._ledger.get(rpc.request_id)
        if entry is None or entry.status is not None:
            self.late_replies += 1
            return
        entry.outstanding.discard(rpc_id)
        self.workers[rpc.worker].completed_rpcs += 1
        self._complete(entry, rpc)

    def _on_deadline(self, rpc_id: int) -> None:
        rpc = self._rpcs.get(rpc_id)
        if rpc is None:
            return
        entry = self._ledger.get(rpc.request_id)
        if entry is None or entry.status is not None:
            return
        if rpc_id not in entry.outstanding:
            return  # the reply beat the deadline
        entry.outstanding.discard(rpc_id)
        self.rpc_timeouts += 1
        if self.config.hedging and not entry.hedged:
            worker = self._pick_worker(
                entry.request.scene, exclude=entry.tried
            )
            if worker is not None and worker not in entry.tried:
                entry.hedged = True
                self.hedges += 1
                self._dispatch(entry, worker, hedge=True)
                return
        retry = entry.retries + 1
        deadline = entry.request.deadline_s
        budget = deadline - self.now_s if deadline is not None else None
        if self.config.backoff.within_budget(retry, budget):
            entry.retries = retry
            entry.pending_retry = True
            self.retries += 1
            delay = self.config.backoff.delay_s(
                retry, self._backoff_rng, budget_s=budget
            )
            self._push(
                self.now_s + delay, _EV_RETRY, entry.request.request_id
            )
            return
        if not entry.outstanding and not entry.pending_retry:
            self._fail(entry, FAILED_RPC_EXPIRED)

    def _on_retry(self, request_id: int) -> None:
        entry = self._ledger.get(request_id)
        if entry is None or entry.status is not None:
            return
        entry.pending_retry = False
        worker = self._pick_worker(entry.request.scene, exclude=entry.tried)
        if worker is None:
            if not entry.outstanding:
                self._fail(entry, FAILED_NO_WORKER)
            return
        self._dispatch(entry, worker, hedge=True)

    # -- heartbeats and failure detection --------------------------------

    def _on_heartbeat(self) -> None:
        self._hb_armed = False
        now = self.now_s
        for worker in self.workers:
            if worker.health == DEAD:
                continue
            if worker.responsive_at(now):
                worker.missed_heartbeats = 0
                worker.health = (
                    SLOW
                    if worker.service_multiplier(now) >= self.config.slow_factor
                    else HEALTHY
                )
            else:
                worker.missed_heartbeats += 1
                if worker.missed_heartbeats >= self.config.heartbeat_miss_limit:
                    self._declare_dead(worker)
        if self._in_flight > 0 or self._pending_arrivals > 0:
            self._arm_heartbeat()

    def _declare_dead(self, worker) -> None:
        """Fence a dead worker and rebalance its shards and experts."""
        worker.health = DEAD
        self.dead_workers.append(worker.index)
        scenes = [s["name"] for s in self.registry.scenes()]
        before = {s: self.ring.preference(s, self.config.replication)
                  for s in scenes}
        self.ring.remove(worker.index)
        after = {s: self.ring.preference(s, self.config.replication)
                 for s in scenes}
        promoted = sum(
            1
            for s in scenes
            if before[s] and after[s]
            and before[s][0] == worker.index
            and after[s][0] in before[s]
        )
        moved = sum(
            1
            for s in scenes
            if before[s] and after[s]
            and before[s][0] == worker.index
            and after[s][0] not in before[s]
        )
        survivors = [w for w in range(self.config.n_workers)
                     if w not in self.dead_workers]
        remapped = {}
        if survivors:
            loads = [
                1.0 + self.workers[i].billed_samples
                for i in range(self.config.n_workers)
            ]
            assignment = rebalance_experts(
                self.config.n_workers, self.dead_workers, loads
            )
            for idx, experts in assignment.items():
                self.workers[idx].experts = sorted(experts)
            remapped = {idx: sorted(e) for idx, e in assignment.items()}
        record = {
            "t_s": self.now_s,
            "worker": worker.index,
            "survivors": len(survivors),
            "scenes_promoted": promoted,
            "scenes_moved": moved,
            "experts": remapped,
        }
        self.rebalances.append(record)
        logger.warning(
            "fleet rebalance: worker %d declared dead at t=%.3fs; "
            "%d scene(s) promoted to replicas, %d moved; experts "
            "remapped onto %d survivor(s)",
            worker.index, self.now_s, promoted, moved, len(survivors),
        )
        tel = telemetry.get_session()
        if tel.enabled:
            tel.metrics.counter("fleet.rebalances").inc()
            tel.metrics.gauge("fleet.workers.dead").set(
                float(len(self.dead_workers))
            )

    # -- terminal outcomes -----------------------------------------------

    def _complete(self, entry: _Entry, rpc: _Rpc) -> None:
        request = entry.request
        latency = self.now_s - request.arrival_s
        entry.status = "completed"
        self.slo.record(request.priority, "completed", latency)
        self.completions.append((self.now_s, request.priority, latency))
        if rpc.service_s > 0 and entry.n_rays > 0:
            self.cost.observe(entry.handle, rpc.service_s / entry.n_rays)
        callback = self._callbacks.pop(request.request_id, None)
        response = FleetResponse(
            request_id=request.request_id,
            scene=request.scene,
            status="completed",
            priority=request.priority,
            degrade_level=entry.degrade_level,
            latency_s=latency,
            frame=(
                rpc.frame
                if (self.config.keep_frames or callback is not None)
                else None
            ),
            served_by=rpc.worker,
            via_hedge=rpc.hedge,
        )
        self._settle(entry, response, callback)
        tel = telemetry.get_session()
        if tel.enabled:
            tel.metrics.counter("fleet.requests.completed").inc()
            tel.metrics.histogram(
                "fleet.latency_s", min_bound=1e-9
            ).observe(latency)

    def _fail(self, entry: _Entry, status: str) -> None:
        request = entry.request
        entry.status = status
        self.slo.record(request.priority, status)
        callback = self._callbacks.pop(request.request_id, None)
        response = FleetResponse(
            request_id=request.request_id,
            scene=request.scene,
            status=status,
            priority=request.priority,
            degrade_level=entry.degrade_level,
        )
        self._settle(entry, response, callback)
        tel = telemetry.get_session()
        if tel.enabled:
            tel.metrics.counter(f"fleet.requests.{status}").inc()

    def _settle(self, entry: _Entry, response: FleetResponse, callback):
        """Shared terminal bookkeeping: exactly-once by construction."""
        entry.handle.release()
        self._in_flight -= 1
        self._outstanding_rays -= entry.n_rays
        for rpc_id in entry.rpc_ids:
            self._rpcs.pop(rpc_id, None)
        entry.outstanding.clear()
        if not self.config.keep_frames:
            stored = FleetResponse(**{**response.__dict__, "frame": None})
        else:
            stored = response
        self.responses[response.request_id] = stored
        if callback is not None:
            callback(response)

    def _reject(self, request: RenderRequest, status: str) -> None:
        """Terminal pre-queue outcome (never entered the ledger)."""
        self.slo.record(request.priority, status)
        response = FleetResponse(
            request_id=request.request_id,
            scene=request.scene,
            status=status,
            priority=request.priority,
        )
        self.responses[request.request_id] = response
        callback = self._callbacks.pop(request.request_id, None)
        tel = telemetry.get_session()
        if tel.enabled:
            tel.metrics.counter(f"fleet.requests.{status}").inc()
        if callback is not None:
            callback(response)

    # -- reporting -------------------------------------------------------

    def accounting(self) -> dict:
        """Exactly-once ledger: offered = completed + shed + failed.

        ``unaccounted`` must be 0 after :meth:`run` drains — the
        invariant the chaos tests and the CI smoke grep assert.
        """
        buckets = {"completed": 0, "shed": 0, "failed": 0}
        for status, count in self.slo.status_counts().items():
            buckets[status_bucket(status)] += count
        terminal = sum(buckets.values())
        return {
            "offered": self.offered,
            "completed": buckets["completed"],
            "shed": buckets["shed"],
            "failed": buckets["failed"],
            "unaccounted": self.offered - terminal,
        }

    def attainment_between(self, t0: float, t1: float) -> float:
        """SLO attainment over completions in ``[t0, t1)``.

        The windowed view the churn study reads: attainment before the
        kill, through the dip, and after the rebalance.  ``nan`` when
        the window holds no completions.
        """
        total = 0
        met = 0
        for t, priority, latency in self.completions:
            if not t0 <= t < t1:
                continue
            target = self.slo.targets.get(priority)
            if target is None:
                continue
            total += 1
            if latency <= target.latency_s:
                met += 1
        return met / total if total else float("nan")

    def stats(self) -> dict:
        """Operational counters.

        Shares ``now_s``, ``completed``, ``statuses``, ``admitted``,
        ``degraded``, ``utilization`` and the cost estimator's
        ``ewma_reblends`` / ``ewma_s_per_ray`` / ``ewma_s_per_ray_by_key``
        with :meth:`repro.serve.service.RenderService.stats`.  ``shed``
        is named alike but here counts the accounting bucket (every
        admission rejection); the rest are fleet-only RPC, churn and
        per-worker counters.
        """
        busy = sum(w.busy_s for w in self.workers)
        horizon = self.now_s * self.config.n_workers
        accounting = self.accounting()
        return {
            "now_s": self.now_s,
            "completed": self.slo.completed,
            "statuses": self.slo.status_counts(),
            "offered": self.offered,
            "in_flight": self._in_flight,
            "unaccounted": accounting["unaccounted"],
            "shed": accounting["shed"],
            "failed": accounting["failed"],
            "admitted": self.admission.admitted,
            "degraded": self.admission.degraded,
            "utilization": busy / horizon if horizon > 0 else 0.0,
            "rpc_timeouts": self.rpc_timeouts,
            "retries": self.retries,
            "hedges": self.hedges,
            "late_replies": self.late_replies,
            "dropped_replies": self.dropped_replies,
            "rebalances": len(self.rebalances),
            "dead_workers": list(self.dead_workers),
            "workers": [w.summary() for w in self.workers],
            **self.cost.stats(),
        }

    def report(self) -> str:
        """Greppable fleet report: SLO table + fleet panel + ledger."""
        return format_fleet_report(self)


def format_fleet_report(controller: FleetController) -> str:
    """Render the fleet run report (the text CI smoke jobs grep)."""
    stats = controller.stats()
    accounting = controller.accounting()
    lines = [format_slo_report(controller.slo), "-" * 72, "fleet"]
    lines.append(
        f"workers: {controller.config.n_workers} "
        f"({len(controller.dead_workers)} dead)   "
        f"replication: {controller.config.replication}   "
        f"utilization: {stats['utilization']:.0%}"
    )
    for worker in controller.workers:
        summ = worker.summary()
        lines.append(
            f"  worker {summ['index']}: {summ['health']:<8} "
            f"experts={summ['experts']} "
            f"rpcs={summ['completed_rpcs']} busy={summ['busy_s']:.3f}s"
        )
    lines.append(
        f"rpc: timeouts={stats['rpc_timeouts']} retries={stats['retries']} "
        f"hedges={stats['hedges']} dropped_replies={stats['dropped_replies']} "
        f"late_replies={stats['late_replies']}"
    )
    for record in controller.rebalances:
        lines.append(
            f"fleet rebalance: worker {record['worker']} declared dead at "
            f"t={record['t_s']:.3f}s; {record['scenes_promoted']} scene(s) "
            f"promoted, {record['scenes_moved']} moved; experts remapped "
            f"onto {record['survivors']} survivor(s)"
        )
    lines.append(
        f"accounting: offered {accounting['offered']} = "
        f"completed {accounting['completed']} + shed {accounting['shed']} + "
        f"failed {accounting['failed']}"
    )
    lines.append(f"unaccounted requests: {accounting['unaccounted']}")
    return "\n".join(lines)
