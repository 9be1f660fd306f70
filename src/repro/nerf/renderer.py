"""Model-first rendering shims over :class:`repro.pipeline.Renderer`,
the one render path, plus the helpers it shares."""

from __future__ import annotations

import numpy as np

from ..robustness import faults
from ..robustness.injection import scrub_colors
from .aabb import SceneNormalizer
from .camera import Camera
from .occupancy import OccupancyGrid
from .sampling import RayMarcher, SampleBatch


def scrub_rendered_colors(colors: np.ndarray, background: float) -> np.ndarray:
    """Clamp-and-flag non-finite pixels when fault injection is active.

    A corrupted sample (e.g. an injected SRAM bit flip driving sigma to
    inf) degrades its own pixel to background instead of poisoning the
    whole image and every PSNR after it.  No-op (and zero-cost) outside
    an active fault scope.
    """
    if faults.get_active() is None:
        return colors
    colors, n_flagged = scrub_colors(colors, background)
    if n_flagged:
        from .. import telemetry

        log = faults.get_log()
        if log is not None:
            log.record(
                "renderer", f"clamped {n_flagged} non-finite pixel values"
            )
        tel = telemetry.get_session()
        if tel.enabled:
            tel.metrics.counter("robustness.render.nonfinite_clamped").inc(
                n_flagged
            )
    return colors


def validate_ert_threshold(ert_threshold: float | None) -> None:
    """Reject out-of-range ERT thresholds when a compositor is built.

    ``None`` (ERT off) is always valid; any other value must lie in the
    open interval ``(0, 1)`` — a transmittance cutoff of 0 never fires
    and 1 terminates every ray before its first sample.  Checking at
    construction fails a bad threshold before any batch, all-miss
    batches included, instead of deep inside
    :mod:`repro.nerf.early_termination`.
    """
    if ert_threshold is None:
        return
    if not 0.0 < ert_threshold < 1.0:
        raise ValueError(
            f"ert_threshold must be in (0, 1) or None, got {ert_threshold!r}"
        )


def render_rays(
    model,
    origins: np.ndarray,
    directions: np.ndarray,
    marcher: RayMarcher,
    occupancy: OccupancyGrid = None,
    background: float = 1.0,
    ert_threshold: float | None = None,
) -> tuple:
    """Render a unit-space ray batch: ``(colors, batch, result)``.

    ``ert_threshold`` enables early ray termination (``result`` is then
    ``None``); the default keeps the exact full evaluation.  A shim over
    :meth:`repro.pipeline.Renderer.render_rays`.
    """
    from ..pipeline.registry import wrap_model

    return wrap_model(
        model, marcher=marcher, occupancy=occupancy, background=background,
        ert_threshold=ert_threshold,
    ).render_rays(origins, directions)


def render_image(
    model,
    camera: Camera,
    normalizer: SceneNormalizer,
    marcher: RayMarcher,
    occupancy: OccupancyGrid = None,
    background: float = 1.0,
    chunk: int = 8192,
    jobs: int = 1,
    ert_threshold: float | None = None,
) -> np.ndarray:
    """Render a full ``(h, w, 3)`` float32 frame in [0, 1], chunked.

    Bit-identical for every ``jobs`` setting.  A shim over
    :meth:`repro.pipeline.Renderer.render_image`.
    """
    from ..pipeline.registry import wrap_model

    return wrap_model(
        model, marcher=marcher, occupancy=occupancy, background=background,
        ert_threshold=ert_threshold,
    ).render_image(camera, normalizer, chunk=chunk, jobs=jobs)


def batch_to_stats(batch: SampleBatch) -> dict:
    """Summarize a sample batch for logging or trace extraction."""
    per_ray = batch.samples_per_ray
    return {
        "n_rays": batch.n_rays,
        "n_samples": len(batch),
        "candidates": batch.candidates,
        "mean_samples_per_ray": float(per_ray.mean()) if batch.n_rays else 0.0,
        "max_samples_per_ray": int(per_ray.max()) if batch.n_rays else 0,
    }
