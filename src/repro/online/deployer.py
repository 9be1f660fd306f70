"""Quality-gated hot-swap deployment of training snapshots.

The bridge between the training side (a live, mutating
:class:`~repro.nerf.trainer.Trainer`) and the serving side (a
:class:`~repro.serve.registry.SceneRegistry` whose generations must be
immutable once handles pin them).  Two obligations meet here:

* **frozen generations** — the trainer keeps optimizing the very arrays
  a deployed record would alias, so every deployment clones the model
  parameters and the occupancy grid (:func:`clone_model`,
  :func:`clone_occupancy`).  A pinned handle's pixels therefore cannot
  drift, which is what makes the session's across-the-swap bit-identity
  proof possible at all;
* **the quality gate** — a generation goes live only when its held-out
  PSNR clears an absolute floor *and* improves on the generation it
  replaces by a minimum delta (:class:`QualityGate`), so serving never
  hot-swaps sideways or backwards.

Each deployment records a *reference frame*: the deployed clone rendered
offline through the registry record's own
:meth:`~repro.pipeline.Renderer.render_image` with the serving slice
size as ``chunk``.
That frame is the generation's ground truth — any frame later served
from a handle pinning this generation must equal it bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nerf.camera import Camera
from ..nerf.occupancy import OccupancyGrid
from ..serve.registry import SceneRegistry


def clone_model(model):
    """A frozen same-type copy of a radiance-field model.

    ``load_parameters`` rebinds (aliases) the arrays it is given, so the
    clone is fed *copies* — the trainer keeps mutating the originals.
    """
    clone = type(model)(model.config, seed=0)
    clone.load_parameters(
        {k: v.copy() for k, v in model.parameters().items()}
    )
    return clone


def clone_occupancy(grid: OccupancyGrid) -> OccupancyGrid:
    """A frozen copy of an occupancy grid (EMA field + mask)."""
    clone = OccupancyGrid(
        resolution=grid.resolution,
        threshold=grid.threshold,
        ema_decay=grid.ema_decay,
    )
    clone.density_ema = grid.density_ema.copy()
    clone.mask = grid.mask.copy()
    return clone


@dataclass(frozen=True)
class QualityGate:
    """When a training snapshot is allowed to go live."""

    #: The session's "acceptable quality" bar — first deployment at or
    #: above this PSNR defines the time-to-quality metric.
    target_psnr_db: float = 16.0
    #: Absolute minimum PSNR for any deployment at all.
    deploy_floor_db: float = 10.0
    #: Required improvement over the live generation's PSNR.
    min_delta_db: float = 0.25

    def __post_init__(self):
        if self.deploy_floor_db > self.target_psnr_db:
            raise ValueError("deploy_floor_db must not exceed target_psnr_db")
        if self.min_delta_db < 0:
            raise ValueError("min_delta_db must be non-negative")


@dataclass(frozen=True)
class Deployment:
    """One generation that went live."""

    generation: int
    #: Capture-clock time of the deploy.
    t_s: float
    #: Trainer iteration count at snapshot time.
    iteration: int
    #: Held-out PSNR that cleared the gate.
    psnr_db: float
    n_train_frames: int

    def row(self) -> dict:
        """This deployment as a report/experiment table row."""
        return {
            "generation": self.generation,
            "t_s": self.t_s,
            "iteration": self.iteration,
            "psnr_db": self.psnr_db,
            "train_frames": self.n_train_frames,
        }


class Deployer:
    """Applies the quality gate and hot-swaps cleared snapshots live."""

    def __init__(
        self,
        registry: SceneRegistry,
        scene_name: str,
        gate: QualityGate = None,
        reference_camera: Camera = None,
        slice_rays: int = 4096,
        background: float = 1.0,
    ):
        self.registry = registry
        self.scene_name = scene_name
        self.gate = gate or QualityGate()
        #: Viewpoint of the per-generation reference frames (``None``
        #: skips reference rendering).
        self.reference_camera = reference_camera
        #: Serving slice granularity — the ``chunk`` a bit-identical
        #: offline render must use.
        self.slice_rays = slice_rays
        self.background = background
        self.deployments = []
        #: generation -> offline reference frame of that generation.
        self.reference_frames = {}

    def clears_gate(self, psnr_db: float) -> bool:
        """Whether a snapshot at this held-out PSNR may go live."""
        if not np.isfinite(psnr_db) or psnr_db < self.gate.deploy_floor_db:
            return False
        if not self.deployments:
            return True
        return psnr_db >= self.deployments[-1].psnr_db + self.gate.min_delta_db

    def deploy(self, trainer, t_s: float, psnr_db: float) -> Deployment:
        """Freeze the trainer's current state and hot-swap it live."""
        model = clone_model(trainer.model)
        occupancy = clone_occupancy(trainer.occupancy)
        summary = self.registry.deploy(
            self.scene_name,
            model=model,
            occupancy=occupancy,
            normalizer=trainer.normalizer,
            background=self.background,
        )
        deployment = Deployment(
            generation=summary["generation"],
            t_s=t_s,
            iteration=trainer.state.iteration,
            psnr_db=psnr_db,
            n_train_frames=len(trainer.cameras),
        )
        self.deployments.append(deployment)
        if self.reference_camera is not None:
            self.reference_frames[deployment.generation] = (
                self.render_reference(deployment.generation)
            )
        return deployment

    def render_reference(self, generation: int) -> np.ndarray:
        """Offline ground-truth frame of the *current* record.

        Rendered through a freshly acquired handle's renderer, so the
        marcher, occupancy, and background are exactly the record's own;
        the caller must only ask while ``generation`` is still current.
        """
        handle = self.registry.acquire(self.scene_name)
        try:
            if handle.generation != generation:
                raise ValueError(
                    f"generation {generation} is no longer current "
                    f"(registry serves {handle.generation})"
                )
            return handle.pipeline.render_image(
                self.reference_camera, handle.normalizer, chunk=self.slice_rays
            )
        finally:
            handle.release()

    @property
    def time_to_target_s(self) -> float:
        """Capture-clock time of the first deployment at target quality
        (``None`` if the session never got there)."""
        for deployment in self.deployments:
            if deployment.psnr_db >= self.gate.target_psnr_db:
                return deployment.t_s
        return None
