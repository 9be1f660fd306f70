"""The one cost core of both request cores: board billing and estimates.

:class:`~repro.serve.service.RenderService` and
:class:`~repro.fleet.controller.FleetController` bill every dispatch
with :func:`board_time_s` and feed deadline admission from a
:class:`CostEstimator`.
"""

from __future__ import annotations

#: EWMA smoothing of observed seconds-per-ray within one generation.
EWMA_ALPHA = 0.2


def board_time_s(system, scene: str, trace, billed_samples: float) -> float:
    """Simulated board time of one dispatch.

    The scene's representative ``trace`` is stretched on every chip of
    ``system`` to ``billed_samples`` (kept samples scaled by each
    request's ``hw_scale``), the standard ``workload_scale`` linear
    extrapolation.  ``trace=None`` marks an all-dead batch that never
    reached the board (0 s); no kept samples still pays the
    camera-broadcast round trip.
    """
    if trace is None:
        return 0.0
    chip_traces = [trace] * system.config.n_chips
    if billed_samples <= 0 or trace.n_samples == 0:
        return system.communication(chip_traces, workload_scale=0.0).transfer_s
    report = system.simulate_batch(
        scene, chip_traces, workload_scale=billed_samples / trace.n_samples
    )
    return report.runtime_s


def _key(handle) -> tuple:
    return (handle.name, handle.renderer, handle.precision)


class CostEstimator:
    """Seconds-per-ray estimates keyed per (scene, renderer, precision).

    Renderer families and precisions differ widely in cost, so each key
    has its own estimate; a key without one (``None``) makes admission
    skip the feasibility check.  Each estimate remembers the scene
    generation it was measured against: an observation from a newer
    generation replaces it and counts one :attr:`reblends` (a
    hot-swapped 2x-cost model would otherwise admit doomed deadline work
    for ~1/alpha dispatches); any other observation, including work
    still pinned to an older generation, blends in with
    :data:`EWMA_ALPHA`.

    ``cost_models`` (``{scene: SceneCostModel}`` or ``None``) seed a cold
    key with the profiled ``sim_s_per_ray``, tagged with the acquiring
    handle's generation so the first observation blends with it.  Models
    are profiled at full precision under one renderer family, so a
    mismatched renderer or non-full precision gets no prior.
    """

    def __init__(self, cost_models: dict):
        self._cost_models = dict(cost_models or {})
        #: key -> current seconds-per-ray estimate.
        self.s_per_ray = {}
        #: key -> scene generation the estimate was measured against.
        self.generation = {}
        self.reblends = 0

    def estimate(self, handle) -> float:
        """Estimate for admitting work on ``handle`` (``None`` if unknown)."""
        key = _key(handle)
        if key not in self.s_per_ray:
            scene, renderer, precision = key
            model = self._cost_models.get(scene)
            if model is None or model.renderer != renderer or precision != "full":
                return None
            prior = float(model.sim_s_per_ray.mean)
            if prior <= 0.0:
                return None
            self.s_per_ray[key] = prior
            self.generation[key] = handle.generation
        return self.s_per_ray[key]

    def observe(self, handle, s_per_ray: float) -> None:
        """Fold in one measured seconds-per-ray of work rendered on ``handle``."""
        key = _key(handle)
        previous = self.s_per_ray.get(key)
        if previous is not None and handle.generation <= self.generation[key]:
            self.s_per_ray[key] = (
                EWMA_ALPHA * s_per_ray + (1 - EWMA_ALPHA) * previous
            )
            return
        if previous is not None:
            self.reblends += 1
        self.s_per_ray[key] = s_per_ray
        self.generation[key] = handle.generation

    def stats(self) -> dict:
        """The ``ewma_*`` stats keys both request cores report."""
        values = self.s_per_ray
        return {
            "ewma_reblends": self.reblends,
            # The aggregate is kept for backward compatibility; admission
            # consults the per-key values.
            "ewma_s_per_ray": (
                sum(values.values()) / len(values) if values else None
            ),
            "ewma_s_per_ray_by_key": {
                "/".join(key): value for key, value in sorted(values.items())
            },
        }
