"""The four benchmark workloads.

Each workload is a class with three steps:

* ``setup(seed)`` builds everything a measured episode needs (datasets,
  registries, models, warm-up) and returns it; the runner times it
  several times and keeps the last result;
* ``episode(ctx)`` runs one fixed, seed-determined unit of work and
  returns its host timings, virtual-clock figures and outputs;
* ``verify(ctx, result, check)`` checks those outputs, outside every
  timed (and traced) region.  Every episode of a run repeats the same
  inputs, so ``consistent(first, other)`` must hold as well;
* ``facts(episodes)`` pools the episodes' exact figures (PSNR, virtual
  latencies, counts) into per-layer rows, ``{name: value}``.

The runner times each whole episode on the host clock
(``time.perf_counter`` in this process); virtual time is the simulated
board / service clock, which repeats exactly for a fixed seed.
Everything runs in one process with no worker threads or processes.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile

import numpy as np

from percentiles import percentile, tail_percentile

HERE = os.path.dirname(os.path.abspath(__file__))


class Check:
    """Counts output checks: each is one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def __call__(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)


def _latency_over_target(latencies_s: list, targets_s: list) -> dict:
    """Served latency as a share of its class target: median and tail.

    The tail is the highest percentile with at least ten samples beyond
    it (:func:`percentiles.tail_percentile`); with fewer than twenty
    requests it falls back to the median.
    """
    shares = [lat / target for lat, target in zip(latencies_s, targets_s)]
    if not shares:
        return {}
    tail = tail_percentile(len(shares)) or 50.0
    return {
        "serve.latency_p50_over_target": percentile(shares, 50),
        "serve.latency_tail_over_target": percentile(shares, tail),
    }


# ----------------------------------------------------------------------
# reconstruct_render


class ReconstructRender:
    """Train an Instant-NGP model from scratch, then render held-out views.

    Closed loop, one client: each training step and each frame starts
    when the previous one ends.  The training set is the even views of a
    16-view orbit of the synthetic ``lego`` scene; the odd views are held
    out and rendered through :class:`repro.pipeline.Renderer` at full
    precision.  The seed picks the model initialisation and the training
    ray stream.
    """

    name = "reconstruct_render"
    SCENE = "lego"
    N_VIEWS = 16
    PX = 24
    GT_STEPS = 64
    TRAIN_STEPS = 48
    #: Occupancy refresh every 4 steps: 12 refreshes per episode, so the
    #: occupancy layer carries a visible share of the training time.
    OCCUPANCY_INTERVAL = 4
    #: Passes over the held-out poses per episode; passes must agree.
    PASSES = 4
    MAX_SAMPLES = 32

    def setup(self, seed: int) -> dict:
        from repro.datasets import synthetic

        dataset = synthetic.make_dataset(
            self.SCENE,
            n_views=self.N_VIEWS,
            width=self.PX,
            height=self.PX,
            gt_steps=self.GT_STEPS,
        )
        train = list(range(0, self.N_VIEWS, 2))
        held = list(range(1, self.N_VIEWS, 2))
        ctx = {
            "seed": seed,
            "normalizer": dataset.normalizer,
            "train_cameras": [dataset.cameras[i] for i in train],
            "train_images": dataset.images[train],
            "held_cameras": [dataset.cameras[i] for i in held],
            "held_images": dataset.images[held],
        }
        # Warm-up: one step and one frame of a throwaway model.
        trainer = self._trainer(ctx)
        trainer.train_step()
        self._renderer(trainer).render_image(ctx["held_cameras"][0], ctx["normalizer"])
        return ctx

    def _trainer(self, ctx):
        from repro.nerf.hash_encoding import HashEncodingConfig
        from repro.nerf.model import InstantNGPModel, ModelConfig
        from repro.nerf.trainer import Trainer, TrainerConfig

        model = InstantNGPModel(
            ModelConfig(
                encoding=HashEncodingConfig(
                    n_levels=6,
                    n_features=2,
                    log2_table_size=11,
                    base_resolution=4,
                    finest_resolution=64,
                ),
                hidden_width=16,
                geo_features=8,
            ),
            seed=ctx["seed"],
        )
        return Trainer(
            model,
            ctx["train_cameras"],
            ctx["train_images"],
            ctx["normalizer"],
            TrainerConfig(
                batch_rays=256,
                lr=1e-2,
                occupancy_interval=self.OCCUPANCY_INTERVAL,
                occupancy_resolution=20,
                max_samples_per_ray=self.MAX_SAMPLES,
                seed=ctx["seed"],
            ),
        )

    def _renderer(self, trainer):
        from repro import pipeline
        from repro.nerf.sampling import RayMarcher, SamplerConfig

        return pipeline.wrap_model(
            trainer.model,
            marcher=RayMarcher(SamplerConfig(max_samples=self.MAX_SAMPLES)),
            occupancy=trainer.occupancy,
            background=trainer.config.background,
        )

    def episode(self, ctx: dict) -> dict:
        from repro.nerf.volume_rendering import psnr

        trainer = self._trainer(ctx)
        losses = [trainer.train_step() for _ in range(self.TRAIN_STEPS)]
        renderer = self._renderer(trainer)
        frames = [
            renderer.render_image(camera, ctx["normalizer"])
            for _ in range(self.PASSES)
            for camera in ctx["held_cameras"]
        ]
        n_held = len(ctx["held_cameras"])
        score = float(
            np.mean([psnr(f, t) for f, t in zip(frames[:n_held], ctx["held_images"])])
        )
        return {
            "frames": frames,
            "psnr_db": score,
            "losses": losses,
        }

    def verify(self, ctx: dict, result: dict, check: Check) -> None:
        check(all(np.isfinite(result["losses"])), "reconstruct_render: non-finite loss")
        n_held = len(ctx["held_cameras"])
        for i, frame in enumerate(result["frames"]):
            check(
                np.all(np.isfinite(frame)) and frame.min() >= 0.0 and frame.max() <= 1.0,
                "reconstruct_render: frame not finite in [0, 1]",
            )
            if i >= n_held:
                check(
                    np.array_equal(frame, result["frames"][i % n_held]),
                    "reconstruct_render: re-rendered frame differs",
                )

    def consistent(self, first: dict, other: dict) -> bool:
        return first["psnr_db"] == other["psnr_db"] and first["losses"] == other["losses"]

    def facts(self, episodes: list) -> dict:
        return {"quality.psnr_db": episodes[0]["psnr_db"]}


# ----------------------------------------------------------------------
# serve_open


class ServeOpen:
    """Open-loop Poisson viewers against :class:`repro.serve.RenderService`.

    Two demo scenes, 8x8-pixel probe frames billed at ``hw_scale`` 400,
    default batching and admission policies, and the priority mix of
    :func:`repro.serve.loadgen.run_open_loop` (interactive 50%, standard
    30%, batch 20%).  At 4200 Hz offered the board is about two-thirds
    busy with no growing backlog.  Arrivals are pre-scheduled on the
    virtual clock before the service runs, so the generator is never
    late.  The seed draws arrival times, scenes and priorities.
    """

    name = "serve_open"
    RATE_HZ = 4200.0
    HORIZON_S = 0.25
    PROBE = 8
    HW_SCALE = 400.0
    N_SCENES = 2
    #: Every this-many-th request's frame is checked against a direct render.
    CHECK_EVERY = 64

    def setup(self, seed: int) -> dict:
        from repro.serve import RenderService, build_demo_registry

        registry = build_demo_registry(n_scenes=self.N_SCENES)
        requests = self._requests(registry, seed)
        # Warm-up: a short run of the same traffic on a throwaway service.
        warm = RenderService(registry)
        for request in requests[:32]:
            warm.submit(request)
        warm.run()
        return {"registry": registry, "requests": requests}

    def _requests(self, registry, seed: int) -> list:
        from repro.serve import RenderRequest, demo_camera, poisson_arrivals
        from repro.serve.loadgen import DEFAULT_PRIORITY_MIX

        rng = np.random.default_rng(seed)
        camera = demo_camera(self.PROBE, self.PROBE)
        scenes = [s["name"] for s in registry.scenes()]
        priorities = [p for p, _ in DEFAULT_PRIORITY_MIX]
        weights = np.array([w for _, w in DEFAULT_PRIORITY_MIX], dtype=np.float64)
        weights /= weights.sum()
        arrivals = poisson_arrivals(self.RATE_HZ, self.HORIZON_S, rng)
        return [
            RenderRequest(
                request_id=i,
                scene=scenes[int(rng.integers(len(scenes)))],
                camera=camera,
                arrival_s=float(t),
                priority=priorities[int(rng.choice(len(priorities), p=weights))],
                hw_scale=self.HW_SCALE,
            )
            for i, t in enumerate(arrivals)
        ]

    def episode(self, ctx: dict) -> dict:
        from repro.serve import RenderService

        service = RenderService(ctx["registry"])
        captured = {}
        for request in ctx["requests"]:
            on_complete = None
            if request.request_id % self.CHECK_EVERY == 0:
                on_complete = lambda r: captured.__setitem__(r.request_id, r)
            service.submit(request, on_complete=on_complete)
        service.run()
        requests = ctx["requests"]
        targets = service.slo.targets
        latencies = []
        latency_targets = []
        for request in requests:
            response = service.responses.get(request.request_id)
            if response is None or not response.completed:
                continue
            latencies.append(response.latency_s)
            latency_targets.append(targets[request.priority].latency_s)
        met = sum(lat <= target for lat, target in zip(latencies, latency_targets))
        stats = service.stats()
        return {
            "virtual_s": service.now_s,
            "latencies_s": latencies,
            "targets_s": latency_targets,
            "met": met,
            "offered": len(requests),
            "statuses": service.slo.status_counts(),
            "responses": len(service.responses),
            "captured": captured,
            "utilization": stats["utilization"],
            "batches": stats["batches_dispatched"],
        }

    def verify(self, ctx: dict, result: dict, check: Check) -> None:
        offered = result["offered"]
        check(
            sum(result["statuses"].values()) == offered,
            "serve_open: offered != completed+shed+rejected+failed",
        )
        check(result["responses"] == offered, "serve_open: a request has no terminal response")
        for request_id, response in sorted(result["captured"].items()):
            if response.completed:
                request = ctx["requests"][request_id]
                direct = self._direct_render(ctx["registry"], request, response)
                check(
                    np.array_equal(response.frame, direct),
                    f"serve_open: served frame {request_id} differs from a direct render",
                )

    @staticmethod
    def _direct_render(registry, request, response):
        """The request rendered straight through ``render_image``.

        Reproduces the admission ladder's degradation (halved samples per
        ray, then half resolution) so degraded frames compare too.
        """
        from repro.nerf.renderer import render_image
        from repro.nerf.sampling import RayMarcher, SamplerConfig
        from repro.serve.admission import AdmissionPolicy, DEGRADE_RESOLUTION
        from repro.serve.batching import degraded_camera
        from repro.serve.scheduler import BatchPolicy

        handle = registry.acquire(request.scene)
        try:
            marcher = handle.marcher
            camera = request.camera
            if response.degrade_level:
                full = marcher.config.max_samples
                samples = max(full // 2, AdmissionPolicy().min_samples_per_ray)
                marcher = RayMarcher(SamplerConfig(max_samples=samples))
            if response.degrade_level >= DEGRADE_RESOLUTION:
                camera = degraded_camera(camera, 0.5)
            return render_image(
                handle.model,
                camera,
                handle.normalizer,
                marcher,
                occupancy=handle.occupancy,
                background=handle.background,
                chunk=BatchPolicy().slice_rays,
            )
        finally:
            handle.release()

    def consistent(self, first: dict, other: dict) -> bool:
        keys = ("virtual_s", "latencies_s", "met", "statuses", "batches")
        return all(first[k] == other[k] for k in keys)

    def facts(self, episodes: list) -> dict:
        first = episodes[0]
        out = {
            "serve.slo_attain": first["met"] / first["offered"],
            "serve.board_utilization": first["utilization"],
        }
        out.update(_latency_over_target(first["latencies_s"], first["targets_s"]))
        return out


# ----------------------------------------------------------------------
# online_swap


class OnlineSwap:
    """One :class:`repro.online.ReconstructionSession`, end to end.

    A synthetic capture streams frames; the trainer advances between
    frames; quality-gated snapshots hot-swap into the registry while a
    Poisson viewer workload is served against whichever generation each
    request pinned.  The capture trajectory is fixed; the seed drives the
    model initialisation, the training ray stream and the viewer arrivals,
    and sets the capture rate within 2% of 8 Hz (a camera clock's
    tolerance).  Which held-out frames exist when depends only on the
    trajectory, so the crossing of the target PSNR is a property of the
    training dynamics rather than of a reshuffled evaluation set.
    """

    name = "online_swap"
    SCENE = "mic"
    N_FRAMES = 16
    PX = 16
    #: Held-out PSNR target: crossed at about 1.1-1.8 s of the 2 s horizon,
    #: well after the first evaluation, so the time can move.  A few seeds
    #: in a hundred never cross it (see ``online.target_missed``).
    TARGET_PSNR_DB = 30.0

    RATE_HZ = 8.0
    RATE_TOLERANCE = 0.02

    def config(self, seed: int):
        from repro.online import CaptureConfig, OnlineConfig, QualityGate

        rng = np.random.default_rng(seed)
        rate = self.RATE_HZ * (1.0 + rng.uniform(-self.RATE_TOLERANCE, self.RATE_TOLERANCE))
        return OnlineConfig(
            capture=CaptureConfig(
                scene=self.SCENE,
                n_frames=self.N_FRAMES,
                rate_hz=rate,
                width=self.PX,
                height=self.PX,
            ),
            gate=QualityGate(target_psnr_db=self.TARGET_PSNR_DB),
            eval_every_frames=1,
            serve_rate_hz=10.0,
            seed=seed,
        )

    def setup(self, seed: int) -> dict:
        from repro.online import CaptureConfig, OnlineConfig, ReconstructionSession

        # Warm-up: a short, small session exercises every code path.
        ReconstructionSession(
            OnlineConfig(
                capture=CaptureConfig(scene=self.SCENE, n_frames=4, width=8, height=8),
                eval_every_frames=1,
                serve_rate_hz=10.0,
                seed=seed,
            )
        ).run()
        return {"config": self.config(seed)}

    def episode(self, ctx: dict) -> dict:
        from repro.online import ReconstructionSession

        result = ReconstructionSession(ctx["config"]).run()
        met = sum(
            int(round(c["attained"] * c["completed"]))
            for c in result.slo["classes"]
            if c["completed"]
        )
        virtual_s = max(result.horizon_s, result.serve_stats["now_s"])
        return {
            "virtual_s": virtual_s,
            "horizon_s": result.horizon_s,
            "psnr_db": result.psnr_history[-1]["psnr_db"],
            "time_to_target_s": result.time_to_target_s,
            "met": met,
            "offered": result.accounting["requests"]["offered"],
            "generations": result.generations,
            "rollbacks": result.rollbacks,
            "utilization": result.serve_stats["utilization"],
            "deployments": result.deployments,
            "session": result,
        }

    def verify(self, ctx: dict, result: dict, check: Check) -> None:
        session = result["session"]
        for proof in session.swap_proofs:
            check(proof["bit_identical"], "online_swap: swap proof not bit-identical")
        check(session.accounting["frames"]["unaccounted"] == 0, "online_swap: frames unaccounted")
        check(
            session.accounting["requests"]["unaccounted"] == 0,
            "online_swap: requests unaccounted",
        )

    def consistent(self, first: dict, other: dict) -> bool:
        keys = ("virtual_s", "psnr_db", "time_to_target_s", "met", "deployments")
        return all(first[k] == other[k] for k in keys)

    def facts(self, episodes: list) -> dict:
        first = episodes[0]
        return {
            "quality.psnr_db": first["psnr_db"],
            "serve.slo_attain": first["met"] / first["offered"],
            "serve.board_utilization": first["utilization"],
            # A session that never reaches the target reads the whole horizon.
            "online.time_to_target_share": (
                first["time_to_target_s"] / first["horizon_s"]
                if first["time_to_target_s"] is not None
                else 1.0
            ),
            "online.target_missed": float(first["time_to_target_s"] is None),
            "online.generations": first["generations"],
            "online.rollbacks": first["rollbacks"],
        }


# ----------------------------------------------------------------------
# paper_sim


class PaperSim:
    """The simulator-heavy paper experiments, serially, then one faulted rerun.

    :func:`repro.parallel.run_experiments` with ``jobs=1`` and a fresh
    cache directory runs the experiments in an order drawn from the seed
    (rows must not depend on it); then ``table4`` runs again under
    ``examples/fault_plan.json`` with its own fresh cache.  Rows are
    compared against the digests in ``paper_sim_digest.json``.
    """

    name = "paper_sim"
    EXPERIMENTS = (
        "table3",
        "table4",
        "table5",
        "table6",
        "fig9_10",
        "fig11",
        "fig12",
        "speedup_breakdown",
        "scheduler_study",
    )
    FAULTED = "table4"
    FAULT_PLAN = os.path.join(os.path.dirname(HERE), "examples", "fault_plan.json")
    DIGESTS = os.path.join(HERE, "paper_sim_digest.json")

    def __init__(self, work_dir: str):
        self.work_dir = work_dir

    def setup(self, seed: int) -> dict:
        from repro.parallel import clear_fingerprint_cache, run_experiments
        from repro.robustness.faults import FaultPlan

        rng = np.random.default_rng(seed)
        order = [self.EXPERIMENTS[i] for i in rng.permutation(len(self.EXPERIMENTS))]
        with open(self.DIGESTS) as fh:
            digests = json.load(fh)
        plan = FaultPlan.from_file(self.FAULT_PLAN)
        # Warm-up: the source fingerprint and the cheapest experiment.
        clear_fingerprint_cache()
        self._run(run_experiments, ["fig12"])
        return {"order": order, "digests": digests, "plan": plan}

    def _run(self, run_experiments, names):
        from repro.parallel import ResultCache

        cache_dir = tempfile.mkdtemp(prefix="paper_sim-", dir=self.work_dir)
        try:
            return run_experiments(names, jobs=1, cache=ResultCache(cache_dir))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def run_all(self, ctx: dict) -> dict:
        """Clean sweep then faulted rerun: ``{label: JobOutcome}``."""
        from repro.parallel import run_experiments
        from repro.robustness import faults

        outcomes = {}
        for outcome in self._run(run_experiments, ctx["order"]).outcomes:
            outcomes[outcome.name] = outcome
        with faults.plan_scope(ctx["plan"]):
            (faulted,) = self._run(run_experiments, [self.FAULTED]).outcomes
        outcomes[f"{self.FAULTED}_faulted"] = faulted
        return outcomes

    def episode(self, ctx: dict) -> dict:
        return {"outcomes": self.run_all(ctx)}

    def verify(self, ctx: dict, result: dict, check: Check) -> None:
        for label, outcome in result["outcomes"].items():
            ok = outcome.status == "ok"
            check(ok, f"paper_sim: {label} {outcome.status} {outcome.error or ''}".strip())
            check(
                ok and rows_digest(outcome.result) == ctx["digests"].get(label),
                f"paper_sim: {label} rows differ from the recorded digest",
            )

    def consistent(self, first: dict, other: dict) -> bool:
        def rows(result):
            return {
                label: o.result.rows if o.result is not None else o.status
                for label, o in result["outcomes"].items()
            }

        return _same(rows(first), rows(other))

    def facts(self, episodes: list) -> dict:
        return {}


def _same(a, b) -> bool:
    """Exact equality of nested rows (NaN equal to NaN)."""
    return json.dumps(a, sort_keys=True, default=repr) == json.dumps(b, sort_keys=True, default=repr)


def rows_digest(result) -> str:
    """SHA-256 of an experiment result's rows in canonical JSON."""
    rows = result.to_payload()["rows"]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def make(name: str, work_dir: str):
    """The workload called ``name``."""
    if name == PaperSim.name:
        return PaperSim(work_dir)
    for cls in (ReconstructRender, ServeOpen, OnlineSwap):
        if cls.name == name:
            return cls()
    raise KeyError(name)


NAMES = (ReconstructRender.name, ServeOpen.name, OnlineSwap.name, PaperSim.name)
