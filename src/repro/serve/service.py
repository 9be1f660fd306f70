"""The rendering service: admission, scheduling, and hardware billing.

:class:`RenderService` ties the serve subsystem together as a
discrete-event simulation over a *service clock* (virtual seconds).
Clients :meth:`~RenderService.submit` timestamped
:class:`~repro.serve.batching.RenderRequest`\\ s;
:meth:`~RenderService.run` then replays the timeline: arrivals pass
through admission control, admitted requests are sliced and pooled by
the dynamic batch scheduler, and each dispatched batch renders its
slices through the real NeRF pipeline while the simulated
:class:`~repro.sim.multichip.MultiChipSystem` board is charged the
hardware time (the board is serial: one batch occupies it at a time, so
queueing delay is real).

Pixels are exact, time is simulated: every slice renders through its own
``render_rays`` call with boundaries fixed at admission, so a request
served alone is bit-identical to a direct
:func:`~repro.nerf.renderer.render_image` call at ``chunk=slice_rays`` —
coalescing and billing affect *when* work happens, never what it
computes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .. import telemetry
from ..nerf.renderer import render_rays
from ..nerf.sampling import RayMarcher, SamplerConfig
from ..sim.multichip import MultiChipSystem
from .admission import AdmissionController, AdmissionPolicy
from .batching import ActiveRequest, RenderRequest, activate_request, slice_request
from .cost import CostEstimator, board_time_s
from .registry import SceneRegistry, UnknownSceneError
from .scheduler import (
    ACTION_DISPATCH,
    ACTION_WAIT,
    BatchPolicy,
    DynamicRayBatchScheduler,
)
from .slo import SLOTracker, format_slo_report

#: Terminal status for a request whose scene is not deployed.
FAILED_UNKNOWN_SCENE = "failed_unknown_scene"
#: Terminal status for a request whose scene was force-undeployed mid-flight.
FAILED_SCENE_EVICTED = "failed_scene_evicted"


@dataclass(frozen=True)
class ServiceConfig:
    """Service-wide policies and bookkeeping knobs."""

    batch: BatchPolicy = field(default_factory=BatchPolicy)
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    #: Optional per-priority :class:`~repro.serve.slo.SLOTarget` overrides.
    slo_targets: dict = None
    #: Keep completed frames on the response objects (tests / single
    #: clients); load generation leaves this off to bound memory.
    keep_frames: bool = False


@dataclass
class RenderResponse:
    """Terminal outcome of one request, as seen by the client."""

    request_id: int
    scene: str
    status: str
    priority: int
    degrade_level: int = 0
    #: Arrival-to-completion latency on the service clock (``None``
    #: unless completed).
    latency_s: float = None
    #: The rendered frame — populated for completed requests when the
    #: service keeps frames or a completion callback is registered.
    frame: np.ndarray = None

    @property
    def completed(self) -> bool:
        """Whether the request rendered to completion."""
        return self.status == "completed"


class RenderService:
    """Discrete-event rendering service over a simulated accelerator."""

    def __init__(
        self,
        registry: SceneRegistry,
        system: MultiChipSystem = None,
        config: ServiceConfig = None,
        cost_models: dict = None,
    ):
        self.registry = registry
        self.system = system or MultiChipSystem()
        self.config = config or ServiceConfig()
        #: Per-(scene, renderer, precision) seconds-per-ray estimates
        #: feeding deadline admission, optionally seeded from
        #: ``{scene: SceneCostModel}`` priors (see :mod:`repro.obs.costmodel`).
        self.cost = CostEstimator(cost_models)
        self.scheduler = DynamicRayBatchScheduler(self.config.batch)
        self.admission = AdmissionController(self.config.admission)
        self.slo = SLOTracker(self.config.slo_targets)
        #: Service clock, virtual seconds.
        self.now_s = 0.0
        self._arrivals = []  # heap of (arrival_s, seq, request, on_complete)
        self._seq = 0
        self._callbacks = {}
        #: request_id -> RenderResponse once terminal.
        self.responses = {}
        self.batches_dispatched = 0
        self.hardware_busy_s = 0.0

    # -- client surface --------------------------------------------------

    def submit(self, request: RenderRequest, on_complete=None) -> int:
        """Queue a request for its ``arrival_s``; returns the request id.

        ``on_complete(response)`` fires when the request reaches a
        terminal status (completed, shed, rejected, or failed) — the
        closed-loop hook load generators chain their next arrival on.
        """
        heapq.heappush(
            self._arrivals, (request.arrival_s, self._seq, request)
        )
        self._seq += 1
        if on_complete is not None:
            self._callbacks[request.request_id] = on_complete
        return request.request_id

    def run(self, max_batches: int = None) -> SLOTracker:
        """Replay the timeline until all submitted work is terminal.

        Closed-loop clients may submit new requests from completion
        callbacks; the loop keeps draining until both the arrival heap
        and the scheduler are empty (or ``max_batches`` dispatches have
        run — a safety valve for open-ended closed loops).
        """
        while True:
            next_arrival = self._arrivals[0][0] if self._arrivals else None
            if next_arrival is not None and next_arrival <= self.now_s:
                _, _, request = heapq.heappop(self._arrivals)
                self._admit(request)
                continue
            action, payload = self.scheduler.next_action(
                self.now_s, next_arrival
            )
            if action == ACTION_DISPATCH:
                self._execute(payload)
                if (
                    max_batches is not None
                    and self.batches_dispatched >= max_batches
                ):
                    break
            elif action == ACTION_WAIT:
                self.now_s = max(self.now_s, payload)
            else:
                break
        return self.slo

    # -- admission -------------------------------------------------------

    def _admit(self, request: RenderRequest) -> None:
        """Run one arrival through the admission ladder at ``now_s``."""
        tel = telemetry.get_session()
        with tel.tracer.span(
            "serve.admit", request=request.request_id, scene=request.scene
        ):
            try:
                handle = self.registry.acquire(request.scene)
            except UnknownSceneError:
                self._reject(request, FAILED_UNKNOWN_SCENE)
                return
            full_spr = handle.marcher.config.max_samples
            decision = self.admission.decide(
                request,
                self.now_s,
                self.scheduler.queued_rays(),
                full_spr,
                est_s_per_ray=self.cost.estimate(handle),
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
            active = activate_request(
                request,
                handle,
                marcher,
                decision.samples_per_ray,
                decision.resolution_scale,
                decision.degrade_level,
                self.now_s,
            )
            self.scheduler.enqueue(
                request.scene,
                slice_request(active, self.config.batch.slice_rays),
                self.now_s,
            )
        if tel.enabled:
            tel.metrics.gauge("serve.queue.rays").set(
                float(self.scheduler.queued_rays())
            )
            if decision.degrade_level:
                tel.metrics.counter("serve.requests.degraded").inc()

    def _reject(self, request: RenderRequest, status: str) -> None:
        """Record a terminal pre-queue outcome and notify the client."""
        self.slo.record(request.priority, status)
        response = RenderResponse(
            request_id=request.request_id,
            scene=request.scene,
            status=status,
            priority=request.priority,
        )
        self.responses[request.request_id] = response
        tel = telemetry.get_session()
        if tel.enabled:
            tel.metrics.counter(f"serve.requests.{status}").inc()
        callback = self._callbacks.pop(request.request_id, None)
        if callback is not None:
            callback(response)

    # -- dispatch --------------------------------------------------------

    def _execute(self, batch) -> None:
        """Render a dispatched batch and charge the board its time."""
        tel = telemetry.get_session()
        billed_samples = 0.0
        finished = []
        # Last live slice's handle: its trace bills the batch and its
        # key and generation tag the cost observation.
        handle = None
        with tel.tracer.span(
            "serve.dispatch",
            scene=batch.scene,
            rays=batch.n_rays,
            requests=batch.n_requests,
        ):
            for item in batch.slices:
                active = item.active
                if active.status is not None:
                    continue
                if not active.handle.valid:
                    self._finish(active, FAILED_SCENE_EVICTED)
                    continue
                handle = active.handle
                colors, samples, _ = render_rays(
                    active.handle.model,
                    active.origins[item.start : item.stop],
                    active.directions[item.start : item.stop],
                    active.marcher,
                    occupancy=active.handle.occupancy,
                    background=active.handle.background,
                )
                active.out[item.start : item.stop] = colors
                billed_samples += len(samples) * active.request.hw_scale
                active.slices_remaining -= 1
                if active.slices_remaining == 0:
                    finished.append(active)
            runtime_s = board_time_s(
                self.system,
                batch.scene,
                handle.trace if handle is not None else None,
                billed_samples,
            )
        self.now_s += runtime_s
        self.hardware_busy_s += runtime_s
        self.batches_dispatched += 1
        if runtime_s > 0 and batch.n_rays > 0 and handle is not None:
            self.cost.observe(handle, runtime_s / batch.n_rays)
        for active in finished:
            self._finish(active, "completed")
        if tel.enabled:
            tel.metrics.histogram("serve.batch.rays").observe(batch.n_rays)
            tel.metrics.histogram("serve.batch.requests").observe(
                batch.n_requests
            )
            tel.metrics.gauge("serve.queue.rays").set(
                float(self.scheduler.queued_rays())
            )
            tel.metrics.gauge("serve.queue.slices").set(
                float(self.scheduler.queued_slices())
            )
            tel.metrics.gauge("serve.utilization").set(
                self.hardware_busy_s / self.now_s if self.now_s > 0 else 0.0
            )
            if tel.publisher is not None:
                # The ops plane samples on the *service* clock, so queue
                # and rate dynamics line up with simulated time.
                tel.publisher.maybe_publish(self.now_s)

    def _finish(self, active: ActiveRequest, status: str) -> None:
        """Terminally resolve an in-flight request at the current clock."""
        active.finish(status, self.now_s)
        active.handle.release()
        request = active.request
        latency = self.now_s - request.arrival_s
        completed = status == "completed"
        self.slo.record(
            request.priority, status, latency if completed else None
        )
        callback = self._callbacks.pop(request.request_id, None)
        response = RenderResponse(
            request_id=request.request_id,
            scene=request.scene,
            status=status,
            priority=request.priority,
            degrade_level=active.degrade_level,
            latency_s=latency if completed else None,
            frame=(
                active.frame
                if completed and (self.config.keep_frames or callback)
                else None
            ),
        )
        if not self.config.keep_frames:
            stored = RenderResponse(**{**response.__dict__, "frame": None})
        else:
            stored = response
        self.responses[request.request_id] = stored
        tel = telemetry.get_session()
        if tel.enabled:
            tel.metrics.counter(f"serve.requests.{status}").inc()
            if completed:
                tel.metrics.histogram(
                    "serve.latency_s", min_bound=1e-9
                ).observe(latency)
        if callback is not None:
            callback(response)

    # -- reporting -------------------------------------------------------

    def stats(self) -> dict:
        """Operational counters for experiment tables and smoke checks."""
        cost = self.cost.stats()
        return {
            "now_s": self.now_s,
            "completed": self.slo.completed,
            "statuses": self.slo.status_counts(),
            "batches_dispatched": self.batches_dispatched,
            "hardware_busy_s": self.hardware_busy_s,
            "utilization": (
                self.hardware_busy_s / self.now_s if self.now_s > 0 else 0.0
            ),
            "admitted": self.admission.admitted,
            "ewma_reblends": cost["ewma_reblends"],
            "degraded": self.admission.degraded,
            "shed": self.admission.shed,
            "rejected_deadline": self.admission.rejected_deadline,
            "ewma_s_per_ray": cost["ewma_s_per_ray"],
            "ewma_s_per_ray_by_key": cost["ewma_s_per_ray_by_key"],
        }

    def report(self) -> str:
        """The greppable SLO attainment report for this service run."""
        return format_slo_report(self.slo)
