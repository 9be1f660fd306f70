"""Per-layer probes for the traced run.

:func:`install` wraps the public entry points of every layer with a
:class:`spans.LayerTracer`; :func:`per_layer_metrics` turns the tracer's
times, the probes' counters and the workload's exact figures into the
per-layer table.  A layer's time is given as its share (in percent) of
the traced episodes' host time.  Compute layers report *self* time (the
layer's time minus its nested wrapped calls, :data:`SELF_SPANS`); entry
points whose work is all nested calls — the dispatch-time render, the
billing call, the online loop, deploys and whole experiments — report
inclusive time (:data:`TOTAL_SPANS`, :data:`EXPERIMENT_LABELS`).  Counts
are per episode.  A layer a workload never calls reads 0.
"""

from __future__ import annotations

import hashlib

#: Spans reported as ``<span>.self_pct``: self time, % of episode host time.
SELF_SPANS = (
    "nerf.sampling",
    "nerf.hash_encoding.forward",
    "nerf.hash_encoding.backward",
    "nerf.mlp.forward",
    "nerf.mlp.backward",
    "nerf.volume_rendering.composite",
    "nerf.volume_rendering.composite_backward",
    "nerf.optimizer.step",
    "nerf.occupancy.update",
    "pipeline.renderer",
    "serve.admission",
    "serve.scheduler",
    "sim.multichip.simulate",
    "sim.chip.simulate",
    "sim.engine.schedule_dynamic",
    "experiments.workloads.scene_workload",
)

#: Spans reported as ``<span>.total_pct``: inclusive time, % of episode host time.
TOTAL_SPANS = (
    "serve.render",
    "serve.registry.deploy",
    "sim.multichip.simulate_batch",
    "online.trainer_loop.increment",
    "online.trainer_loop.eval",
    "online.deployer.deploy",
)

#: Experiments reported as ``experiments.<label>.total_pct``.
EXPERIMENT_LABELS = (
    "table3",
    "table4",
    "table5",
    "table6",
    "fig9_10",
    "fig11",
    "fig12",
    "speedup_breakdown",
    "scheduler_study",
    "table4_faulted",
)

COUNTS = (
    "nerf.samples.per_frame",
    "nerf.samples.per_step",
    "serve.admission.admitted",
    "serve.admission.degraded",
    "serve.admission.shed",
    "serve.scheduler.batches",
    "serve.scheduler.rays_per_batch",
    "sim.engine.groups",
)

RATIOS = (
    "nerf.sampling.keep_share",
    "nerf.trainer.skipped_step_share",
    "sim.distinct_trace_share",
    "parallel.cache.trace_hit_share",
)

#: Exact figures a workload reports through ``facts(episodes)``; they
#: repeat for a seed and do not depend on tracing.
FACTS = {
    "quality.psnr_db": "dB",
    "serve.slo_attain": "ratio",
    "serve.latency_p50_over_target": "ratio",
    "serve.latency_tail_over_target": "ratio",
    "serve.board_utilization": "ratio",
    "online.time_to_target_share": "ratio",
    "online.target_missed": "count",
    "online.generations": "count",
    "online.rollbacks": "count",
}


def _time_metrics() -> dict:
    """Metric name -> ``(span, use self time)`` for every time share."""
    out = {f"{span}.self_pct": (span, True) for span in SELF_SPANS}
    out.update({f"{span}.total_pct": (span, False) for span in TOTAL_SPANS})
    out.update(
        {f"experiments.{label}.total_pct": (f"experiments.{label}", False) for label in EXPERIMENT_LABELS}
    )
    return out


def metric_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {name: "%" for name in _time_metrics()}
    units.update({name: "count" for name in COUNTS})
    units.update({name: "ratio" for name in RATIOS})
    units.update(FACTS)
    units["tracing.overhead_s"] = "s"
    return units


class Probes:
    """Counters the wrappers' observers fill in."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.counts = {}
        #: ``id(trace) -> (trace, digest)``; holding the trace keeps its id unique.
        self._trace_digests = {}
        self.chip_keys = set()

    def add(self, key: str, value=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def end_episode(self) -> None:
        """Close an episode: distinct chip-simulate keys count per episode."""
        self.add("distinct_keys", len(self.chip_keys))
        self._trace_digests = {}
        self.chip_keys = set()

    # -- observers ---------------------------------------------------------

    def sampled(self, args, kwargs, batch) -> None:
        self.add("sampling.kept", len(batch))
        self.add("sampling.candidates", batch.candidates)
        if self.tracer.inside("pipeline.renderer.image"):
            self.add("samples.frame", len(batch))
        elif self.tracer.inside("nerf.trainer.step"):
            self.add("samples.step", len(batch))

    def framed(self, args, kwargs, frame) -> None:
        self.add("frames")

    def stepped(self, args, kwargs, loss) -> None:
        self.add("steps")
        if loss != loss:  # NaN: a degenerate batch, the step was skipped
            self.add("skipped_steps")

    def admitted(self, args, kwargs, decision) -> None:
        if decision.admitted:
            self.add("admitted")
            if decision.degrade_level:
                self.add("degraded")
        elif decision.status == "shed_overload":
            self.add("shed")

    def scheduled(self, args, kwargs, action) -> None:
        kind, payload = action
        if kind == "dispatch":
            self.add("batches")
            self.add("batch_rays", payload.n_rays)

    def grouped(self, args, kwargs, result) -> None:
        groups = args[0] if args else kwargs["group_durations"]
        self.add("groups", len(groups))

    def chip_simulated(self, args, kwargs, report) -> None:
        from repro.robustness import faults

        trace = args[1] if len(args) > 1 else kwargs["trace"]
        training = args[2] if len(args) > 2 else kwargs.get("training", False)
        optimized = args[3] if len(args) > 3 else kwargs.get("optimized_sampling", True)
        plan = faults.get_active()
        board = plan.to_json() if plan is not None else None
        self.add("chip_calls")
        self.chip_keys.add((self._digest(trace), bool(training), bool(optimized), board))

    def _digest(self, trace) -> str:
        cached = self._trace_digests.get(id(trace))
        if cached is not None and cached[0] is trace:
            return cached[1]
        h = hashlib.sha1()
        for key, value in sorted(trace.to_arrays().items()):
            h.update(key.encode())
            h.update(repr(getattr(value, "shape", ())).encode())
            h.update(bytes(memoryview(value.__array__()).cast("B")))
        digest = h.hexdigest()
        self._trace_digests[id(trace)] = (trace, digest)
        return digest

    def trace_lookup(self, args, kwargs, arrays) -> None:
        self.add("trace_lookups")
        if arrays is not None:
            self.add("trace_hits")


def _experiment_span(args, kwargs) -> str:
    from repro.robustness import faults

    name = args[0] if args else kwargs["name"]
    suffix = "_faulted" if faults.get_active() is not None else ""
    return f"experiments.{name}{suffix}"


def install(tracer) -> Probes:
    """Wrap every layer's public entry points; returns the counters."""
    from repro import pipeline
    from repro.experiments import runner, workloads
    from repro.nerf import hash_encoding, mlp, optimizer, sampling, trainer, volume_rendering
    from repro.online import deployer, trainer_loop
    from repro.parallel import cache
    from repro.serve import admission, registry, scheduler, service
    from repro.sim import chip, engine, multichip

    probes = Probes(tracer)
    wrap = tracer.wrap_attr
    wrap(sampling.RayMarcher, "sample", "nerf.sampling", probes.sampled)
    wrap(hash_encoding.HashEncoding, "forward", "nerf.hash_encoding.forward")
    wrap(hash_encoding.HashEncoding, "backward", "nerf.hash_encoding.backward")
    wrap(mlp.MLP, "forward", "nerf.mlp.forward")
    wrap(mlp.MLP, "backward", "nerf.mlp.backward")
    tracer.wrap_function(volume_rendering.composite, "nerf.volume_rendering.composite")
    tracer.wrap_function(
        volume_rendering.composite_backward, "nerf.volume_rendering.composite_backward"
    )
    wrap(optimizer.Adam, "step", "nerf.optimizer.step")
    # The refresh is the occupancy layer's work unit; its density queries
    # are nested hash-encoding and MLP calls and count there.
    wrap(trainer.Trainer, "_refresh_occupancy", "nerf.occupancy.update")
    wrap(trainer.Trainer, "train_step", "nerf.trainer.step", probes.stepped)
    wrap(pipeline.Renderer, "render_rays", "pipeline.renderer")
    wrap(pipeline.Renderer, "render_image", "pipeline.renderer.image", probes.framed)

    wrap(admission.AdmissionController, "decide", "serve.admission", probes.admitted)
    wrap(scheduler.DynamicRayBatchScheduler, "next_action", "serve.scheduler", probes.scheduled)
    wrap(scheduler.DynamicRayBatchScheduler, "enqueue", "serve.scheduler")
    wrap(service, "render_rays", "serve.render")
    wrap(registry.SceneRegistry, "deploy", "serve.registry.deploy")

    wrap(multichip.MultiChipSystem, "simulate_batch", "sim.multichip.simulate_batch")
    wrap(multichip.MultiChipSystem, "simulate", "sim.multichip.simulate")
    wrap(chip.SingleChipAccelerator, "simulate", "sim.chip.simulate", probes.chip_simulated)
    tracer.wrap_function(engine.schedule_dynamic, "sim.engine.schedule_dynamic", probes.grouped)

    wrap(trainer_loop.IncrementalTrainerLoop, "increment", "online.trainer_loop.increment")
    wrap(trainer_loop.IncrementalTrainerLoop, "eval_holdout_psnr", "online.trainer_loop.eval")
    wrap(deployer.Deployer, "deploy", "online.deployer.deploy")

    wrap(runner, "run_experiment", _experiment_span)
    tracer.wrap_function(workloads.scene_workload, "experiments.workloads.scene_workload")
    wrap(cache.ResultCache, "get_trace", "parallel.cache.get_trace", probes.trace_lookup)
    return probes


def _share(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(tracer, probes, walls: list, facts: dict, overhead_s: float) -> dict:
    """The per-layer table, ``{name: (value, unit)}``.

    ``walls`` are the traced episodes' host seconds; ``facts`` the
    workload's exact figures (names in :data:`FACTS`, absent ones read 0).
    """
    n = len(walls)
    host_s = sum(walls)
    c = probes.counts.get
    units = metric_units()
    out = {}
    for metric, (span, self_time) in _time_metrics().items():
        stats = tracer.stats.get(span)
        spent = (stats.self_s if self_time else stats.total_s) if stats else 0.0
        out[metric] = 100.0 * _share(spent, host_s)
    out["nerf.sampling.keep_share"] = _share(c("sampling.kept", 0), c("sampling.candidates", 0))
    out["nerf.samples.per_frame"] = _share(c("samples.frame", 0), c("frames", 0))
    out["nerf.samples.per_step"] = _share(c("samples.step", 0), c("steps", 0))
    out["nerf.trainer.skipped_step_share"] = _share(c("skipped_steps", 0), c("steps", 0))
    out["serve.admission.admitted"] = c("admitted", 0) / n
    out["serve.admission.degraded"] = c("degraded", 0) / n
    out["serve.admission.shed"] = c("shed", 0) / n
    out["serve.scheduler.batches"] = c("batches", 0) / n
    out["serve.scheduler.rays_per_batch"] = _share(c("batch_rays", 0), c("batches", 0))
    out["sim.engine.groups"] = c("groups", 0) / n
    out["sim.distinct_trace_share"] = _share(c("distinct_keys", 0), c("chip_calls", 0))
    out["parallel.cache.trace_hit_share"] = _share(c("trace_hits", 0), c("trace_lookups", 0))
    unknown = set(facts) - set(FACTS)
    if unknown:
        raise ValueError(f"workload figures not in the per-layer table: {sorted(unknown)}")
    for name in FACTS:
        out[name] = float(facts.get(name, 0.0))
    out["tracing.overhead_s"] = overhead_s
    assert set(out) == set(units), set(out) ^ set(units)
    return {name: (out[name], units[name]) for name in units}
