"""Multi-scene registry: named, refcounted, memory-budgeted scene store.

The serving layer multiplexes many trained scenes over one simulated
board (the Uni-Render deployment argument): scenes are *deployed* into
the registry — from a checkpoint archive or from in-memory objects — and
request handling *acquires* a refcounted :class:`SceneHandle` for the
lifetime of each request.  The registry enforces a configurable memory
budget with LRU eviction of idle scenes (a stand-in for the board-side
DRAM the paper's ~10 MB-per-scene payload is shipped into), and
re-deploying a live name hot-swaps it: new acquisitions see the new
generation immediately while in-flight requests keep rendering against
the old weights until their refcount drains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import telemetry
from ..nerf.checkpoint import load_scene
from ..nerf.occupancy import OccupancyGrid
from ..nerf.sampling import RayMarcher, SamplerConfig
from ..pipeline.registry import renderer_name_for
from ..sim.trace import WorkloadTrace, trace_from_rays

#: Ray grid of the deploy-time representative workload trace (per-scene
#: hardware cost model); workload statistics are resolution-independent,
#: so a small grid suffices (cf. ``repro.experiments.workloads``).
TRACE_GRID = 24


class SceneRegistryError(RuntimeError):
    """Base class for registry failures."""


class UnknownSceneError(SceneRegistryError):
    """The named scene is not deployed."""


class MemoryBudgetError(SceneRegistryError):
    """A deploy cannot fit: the budget is exhausted and nothing is evictable."""


@dataclass
class SceneRecord:
    """One deployed scene generation and its serving state."""

    name: str
    generation: int
    model: object
    occupancy: OccupancyGrid
    normalizer: object
    marcher: RayMarcher
    background: float
    #: Representative workload trace the scheduler bills hardware time
    #: against (scaled by each dispatch's actual kept samples).
    trace: WorkloadTrace
    n_bytes: int
    refcount: int = 0
    retired: bool = False
    last_used: int = 0
    #: Whether the occupancy grid came from trained state (checkpoint /
    #: caller) rather than the permissive keep-everything fallback.
    warmed: bool = True
    #: Renderer family of the deployed model (``repro.pipeline`` name);
    #: the scheduler/admission cost estimates key on
    #: (scene, renderer, precision).
    renderer: str = "ngp"
    #: Inference precision of the deployed model (``"full"``, ``"fp16"``,
    #: ``"fp16-int8"``); the third admission-EWMA key component.
    precision: str = "full"


class SceneHandle:
    """A refcounted view of one scene generation.

    Handles pin their generation in memory: the registry never evicts or
    frees a record while handles to it are live.  ``release()`` is
    idempotent; a force-undeploy invalidates the handle (``valid`` turns
    ``False``) so dispatch can fail the affected requests cleanly.
    """

    __slots__ = ("_registry", "_record", "_released", "valid")

    def __init__(self, registry: "SceneRegistry", record: SceneRecord):
        self._registry = registry
        self._record = record
        self._released = False
        #: Cleared by a force-undeploy; dispatch checks this before rendering.
        self.valid = True

    @property
    def name(self) -> str:
        """Deployed scene name."""
        return self._record.name

    @property
    def generation(self) -> int:
        """Generation counter of the pinned record (bumps on hot-swap)."""
        return self._record.generation

    @property
    def model(self):
        """The pinned radiance-field model."""
        return self._record.model

    @property
    def occupancy(self) -> OccupancyGrid:
        """The pinned occupancy grid."""
        return self._record.occupancy

    @property
    def normalizer(self):
        """World-to-unit-cube map of the pinned scene."""
        return self._record.normalizer

    @property
    def marcher(self) -> RayMarcher:
        """The scene's default (full-quality) ray marcher."""
        return self._record.marcher

    @property
    def background(self) -> float:
        """Background color the scene composites against."""
        return self._record.background

    @property
    def trace(self) -> WorkloadTrace:
        """Representative workload trace for hardware billing."""
        return self._record.trace

    @property
    def renderer(self) -> str:
        """Renderer family of the pinned generation (hot-swaps may
        change it, so in-flight requests read their pinned tag)."""
        return self._record.renderer

    @property
    def precision(self) -> str:
        """Inference precision of the pinned generation."""
        return self._record.precision

    def release(self) -> None:
        """Drop the pin; frees the record when its refcount drains."""
        if self._released:
            return
        self._released = True
        self._registry._release(self._record)


def _representative_trace(
    occupancy: OccupancyGrid, max_samples: int, grid: int = TRACE_GRID
) -> WorkloadTrace:
    """Deterministic unit-space probe trace of a scene's workload shape.

    A ``grid x grid`` bundle of parallel rays enters the unit cube
    through the z = 0 face and exits at z = 1, so every ray crosses the
    full occupancy volume; the per-ray kept-sample skew this produces is
    what the dispatch-time ``workload_scale`` stretches to the size of
    each real batch.
    """
    u = (np.arange(grid, dtype=np.float64) + 0.5) / grid
    xx, yy = np.meshgrid(u, u, indexing="ij")
    origins = np.stack(
        [xx.reshape(-1), yy.reshape(-1), np.full(grid * grid, -0.25)], axis=-1
    )
    directions = np.tile(
        np.array([0.0, 0.0, 1.0]), (grid * grid, 1)
    )
    return trace_from_rays(
        origins, directions, occupancy, max_samples=max_samples
    )


def _scene_bytes(model, occupancy: OccupancyGrid) -> int:
    """Deployment footprint: parameter arrays plus occupancy state."""
    total = sum(p.nbytes for p in model.parameters().values())
    total += occupancy.density_ema.nbytes + occupancy.mask.nbytes
    return int(total)


class SceneRegistry:
    """Named scene store with a memory budget, LRU eviction, and hot-swap."""

    def __init__(
        self,
        memory_budget_bytes: int = None,
        max_samples_per_ray: int = 64,
    ):
        if memory_budget_bytes is not None and memory_budget_bytes <= 0:
            raise ValueError("memory_budget_bytes must be positive (or None)")
        self.memory_budget_bytes = memory_budget_bytes
        self.max_samples_per_ray = max_samples_per_ray
        self._records = {}
        #: Hot-swapped-out generations still pinned by live handles.
        self._retiring = []
        self._clock = 0
        self.evictions = 0
        self.hot_swaps = 0

    # -- introspection ---------------------------------------------------

    @property
    def memory_bytes(self) -> int:
        """Bytes pinned by every live generation (current + retiring)."""
        return sum(r.n_bytes for r in self._records.values()) + sum(
            r.n_bytes for r in self._retiring
        )

    def __contains__(self, name: str) -> bool:
        return name in self._records

    def __len__(self) -> int:
        return len(self._records)

    def scenes(self) -> list:
        """Summaries of every deployed scene, LRU-oldest first."""
        records = sorted(self._records.values(), key=lambda r: r.last_used)
        return [
            {
                "name": r.name,
                "generation": r.generation,
                "renderer": r.renderer,
                "precision": r.precision,
                "bytes": r.n_bytes,
                "refcount": r.refcount,
                "warmed": r.warmed,
                "mean_samples_per_ray": r.trace.mean_samples_per_ray,
            }
            for r in records
        ]

    # -- deployment ------------------------------------------------------

    def deploy(
        self,
        name: str,
        model=None,
        occupancy: OccupancyGrid = None,
        normalizer=None,
        checkpoint=None,
        background: float = 1.0,
        max_samples_per_ray: int = None,
        renderer: str = None,
        precision: str = None,
    ) -> dict:
        """Deploy (or hot-swap) a scene; returns its summary dict.

        Either ``checkpoint`` (a path readable by
        :func:`~repro.nerf.checkpoint.load_scene`) or ``model`` +
        ``normalizer`` must be given.  A checkpoint saved with its
        occupancy grid cold-starts without re-warmup; without one, the
        registry falls back to a permissive keep-everything grid
        (correct, but ungated — ``warmed`` is ``False`` in the summary).
        Re-deploying a live name installs a new generation: in-flight
        requests keep their pinned handles, new acquisitions get the new
        weights, and the old generation is freed when its refcount
        drains.

        ``renderer`` tags the generation with its renderer family;
        when omitted it is inferred from the model type via
        :func:`repro.pipeline.registry.renderer_name_for`.  A hot-swap
        may change the tag (e.g. redeploying an ``ngp`` scene as
        ``tensorf``); per-(scene, renderer, precision) cost estimates
        downstream key on it.  ``precision`` likewise defaults to the
        model's own tag (``model.precision`` when present, else
        ``"full"``) — deploy a
        :class:`~repro.nerf.precision.LowPrecisionField` and the record
        is tagged ``"fp16"`` / ``"fp16-int8"`` automatically.
        """
        if checkpoint is not None:
            loaded_model, loaded_occupancy, loaded_normalizer = load_scene(checkpoint)
            model = model if model is not None else loaded_model
            occupancy = occupancy if occupancy is not None else loaded_occupancy
            normalizer = normalizer if normalizer is not None else loaded_normalizer
        if model is None:
            raise SceneRegistryError(
                f"deploy({name!r}) needs a model or a checkpoint"
            )
        if normalizer is None:
            raise SceneRegistryError(
                f"deploy({name!r}) needs a normalizer (in-memory or stored "
                "in the checkpoint)"
            )
        warmed = occupancy is not None
        if occupancy is None:
            occupancy = OccupancyGrid(resolution=16)
        max_samples = max_samples_per_ray or self.max_samples_per_ray
        record = SceneRecord(
            name=name,
            generation=1,
            model=model,
            occupancy=occupancy,
            normalizer=normalizer,
            marcher=RayMarcher(SamplerConfig(max_samples=max_samples)),
            background=background,
            trace=_representative_trace(occupancy, max_samples),
            n_bytes=_scene_bytes(model, occupancy),
            warmed=warmed,
            renderer=renderer or renderer_name_for(model),
            precision=precision or getattr(model, "precision", "full"),
        )
        previous = self._records.get(name)
        if previous is not None:
            record.generation = previous.generation + 1
            self.hot_swaps += 1
            if previous.refcount > 0:
                previous.retired = True
                self._retiring.append(previous)
        self._clock += 1
        record.last_used = self._clock
        self._records[name] = record
        self._enforce_budget(keep=record)
        self._record_metrics()
        return self.scenes()[-1] if len(self._records) == 1 else next(
            s for s in self.scenes() if s["name"] == name
        )

    def undeploy(self, name: str, force: bool = False) -> None:
        """Remove a scene from the registry.

        With ``force=False`` (default) live handles keep their pinned
        generation until released.  ``force=True`` additionally
        *invalidates* outstanding handles — in-flight requests observe
        ``handle.valid == False`` at dispatch and fail cleanly (the
        "scene evicted mid-request" path).
        """
        record = self._records.pop(name, None)
        if record is None:
            raise UnknownSceneError(f"scene {name!r} is not deployed")
        if record.refcount > 0:
            record.retired = True
            self._retiring.append(record)
            if force:
                self._invalidate(record)
        self._record_metrics()

    def _invalidate(self, record: SceneRecord) -> None:
        """Mark a record dead for its live handles (force-undeploy)."""
        for handle in list(getattr(record, "_handles", [])):
            handle.valid = False

    # -- acquisition -----------------------------------------------------

    def acquire(self, name: str) -> SceneHandle:
        """Pin the current generation of ``name`` and return its handle."""
        record = self._records.get(name)
        if record is None:
            raise UnknownSceneError(f"scene {name!r} is not deployed")
        record.refcount += 1
        self._clock += 1
        record.last_used = self._clock
        handle = SceneHandle(self, record)
        if not hasattr(record, "_handles"):
            record._handles = []
        record._handles.append(handle)
        return handle

    def _release(self, record: SceneRecord) -> None:
        if record.refcount <= 0:
            raise SceneRegistryError(
                f"refcount underflow on scene {record.name!r}"
            )
        record.refcount -= 1
        if record.refcount == 0 and record.retired:
            # Last in-flight request against a hot-swapped-out or
            # undeployed generation: free it now.
            if record in self._retiring:
                self._retiring.remove(record)
            self._record_metrics()

    # -- memory budget ---------------------------------------------------

    def _enforce_budget(self, keep: SceneRecord) -> None:
        """Evict idle LRU scenes until the budget holds (or raise)."""
        if self.memory_budget_bytes is None:
            return
        while self.memory_bytes > self.memory_budget_bytes:
            victims = [
                r
                for r in self._records.values()
                if r.refcount == 0 and r is not keep
            ]
            if not victims:
                raise MemoryBudgetError(
                    f"cannot fit scene {keep.name!r} "
                    f"({keep.n_bytes} B) within the "
                    f"{self.memory_budget_bytes} B budget: "
                    f"{self.memory_bytes} B pinned and nothing evictable"
                )
            victim = min(victims, key=lambda r: r.last_used)
            del self._records[victim.name]
            self.evictions += 1
            tel = telemetry.get_session()
            if tel.enabled:
                tel.metrics.counter("serve.registry.evictions").inc()

    def _record_metrics(self) -> None:
        tel = telemetry.get_session()
        if not tel.enabled:
            return
        tel.metrics.gauge("serve.registry.scenes").set(float(len(self._records)))
        tel.metrics.gauge("serve.registry.bytes").set(float(self.memory_bytes))
        tel.metrics.gauge("serve.registry.retiring").set(float(len(self._retiring)))
