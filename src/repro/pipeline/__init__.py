"""Unified renderer pipeline: swappable stages behind one interface.

The Uni-Render direction: one serving/perf/robustness substrate that
executes *diverse* neural renderers.  A
:class:`~repro.pipeline.renderer.Renderer` decomposes into four
swappable stages — :class:`~repro.pipeline.stages.Encoding`,
:class:`~repro.pipeline.stages.Field`,
:class:`~repro.pipeline.stages.Sampler`,
:class:`~repro.pipeline.stages.Compositor` — and the
:class:`~repro.pipeline.registry.RendererRegistry` constructs renderers
by name + config dict.  Two renderers ship in-tree:

* ``ngp`` — the reference Instant-NGP path (hash encoding, MLP field,
  occupancy sampler, ERT-aware compositor), pinned bit-for-bit to the
  frozen :func:`repro.perf.reference.render_rays_reference`;
* ``tensorf`` — the VM plane/line factor decomposition
  (:class:`~repro.nerf.tensorf.TensoRFModel`) behind the same stages.

:class:`Renderer` is the only render path: :mod:`repro.nerf.renderer`
is a shim over it, and serving renders through each deployed scene's.

Renderer *names* are the tag the rest of the repo keys on: scene
deployment (:mod:`repro.serve.registry`), per-(scene, renderer)
admission estimates (:mod:`repro.serve.service`), per-renderer bench
baselines (:mod:`repro.perf`), fault-site classification
(:mod:`repro.robustness.injection`), and cost models
(:mod:`repro.obs.costmodel`).  ``docs/renderers.md`` is the authoring
guide for adding a renderer.
"""

from .renderer import Renderer
from .registry import (
    DEFAULT_REGISTRY,
    RendererRegistry,
    UnknownRendererError,
    available,
    create,
    load_renderer,
    renderer_name_for,
    wrap_model,
)
from .stages import (
    Compositor,
    Encoding,
    Field,
    OccupancySampler,
    Sampler,
    VolumeCompositor,
)

__all__ = [
    "Renderer",
    "RendererRegistry",
    "UnknownRendererError",
    "DEFAULT_REGISTRY",
    "available",
    "create",
    "load_renderer",
    "renderer_name_for",
    "wrap_model",
    "Encoding",
    "Field",
    "Sampler",
    "Compositor",
    "OccupancySampler",
    "VolumeCompositor",
]
