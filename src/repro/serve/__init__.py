"""Real-time rendering service over the simulated Fusion-3D board.

The serve subsystem turns the reproduction into a request-driven
rendering service — the deployment story of the paper's second half
(sustained FPS under a latency budget) made concrete:

* :mod:`~repro.serve.registry` — named multi-scene store with refcounted
  hot-swap, LRU eviction under a memory budget, and checkpoint
  cold-start (occupancy grid restored without re-warmup);
* :mod:`~repro.serve.batching` / :mod:`~repro.serve.scheduler` — render
  requests sliced into fixed ray batches and coalesced across requests
  per scene under a max-batch/max-wait policy;
* :mod:`~repro.serve.admission` / :mod:`~repro.serve.slo` — deadline- and
  backpressure-aware admission with a shed-or-degrade ladder, and
  per-priority-class SLO attainment tracking;
* :mod:`~repro.serve.cost` — board billing and the generation-aware
  seconds-per-ray estimator shared with :mod:`repro.fleet`;
* :mod:`~repro.serve.service` — the discrete-event loop tying them to
  the :class:`~repro.sim.multichip.MultiChipSystem` clock;
* :mod:`~repro.serve.loadgen` — open-loop Poisson and closed-loop
  drivers producing latency–throughput curves.
"""

from .admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
    DEGRADE_NONE,
    DEGRADE_RESOLUTION,
    DEGRADE_SAMPLES,
)
from .batching import (
    DispatchBatch,
    PRIORITY_BATCH,
    PRIORITY_INTERACTIVE,
    PRIORITY_STANDARD,
    RaySlice,
    RenderRequest,
)
from .loadgen import (
    LoadReport,
    build_demo_registry,
    demo_camera,
    poisson_arrivals,
    run_closed_loop,
    run_open_loop,
)
from .registry import (
    MemoryBudgetError,
    SceneHandle,
    SceneRegistry,
    SceneRegistryError,
    UnknownSceneError,
)
from .scheduler import BatchPolicy, DynamicRayBatchScheduler
from .service import RenderResponse, RenderService, ServiceConfig
from .slo import DEFAULT_TARGETS, SLOTarget, SLOTracker, format_slo_report

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionPolicy",
    "BatchPolicy",
    "DEFAULT_TARGETS",
    "DEGRADE_NONE",
    "DEGRADE_RESOLUTION",
    "DEGRADE_SAMPLES",
    "DispatchBatch",
    "DynamicRayBatchScheduler",
    "LoadReport",
    "MemoryBudgetError",
    "PRIORITY_BATCH",
    "PRIORITY_INTERACTIVE",
    "PRIORITY_STANDARD",
    "RaySlice",
    "RenderRequest",
    "RenderResponse",
    "RenderService",
    "SLOTarget",
    "SLOTracker",
    "SceneHandle",
    "SceneRegistry",
    "SceneRegistryError",
    "ServiceConfig",
    "UnknownSceneError",
    "build_demo_registry",
    "demo_camera",
    "format_slo_report",
    "poisson_arrivals",
    "run_closed_loop",
    "run_open_loop",
]
