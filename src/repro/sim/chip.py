"""The Fusion-3D single-chip accelerator: end-to-end cycle/energy model.

Composes the three stage simulators, the memory clusters, and the NoC
into one chip.  Two standard configurations mirror the paper:

* :meth:`ChipConfig.prototype` — the taped-out 28 nm die: 16 sampling
  cores, five feature-interpolation cores, one post-processing module,
  two memory clusters;
* :meth:`ChipConfig.scaled` — the evaluation configuration of Table III:
  five additional interpolation cores and three more memory clusters,
  8.7 mm^2 post-layout.

``simulate`` runs a workload trace through all three stages, overlaps
them with the flow-shop pipeline model (ping-pong buffered batches), and
folds the operation counts into energy/power.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import telemetry
from ..hw.area import AreaModel, ModuleArea
from ..hw.energy import EnergyModel, OpCounts
from ..hw.memory_cluster import MemoryClusterSpec
from ..hw.technology import Technology, TECH_28NM
from ..nerf.hash_encoding import HashEncodingConfig
from ..robustness import faults
from ..robustness.injection import scrub_trace
from .engine import pipeline_makespan
from .interp_module import InterpModule, InterpModuleConfig
from .postproc_module import PostProcModule, PostProcModuleConfig
from .sampling_module import SamplingModule, SamplingModuleConfig
from .trace import WorkloadTrace


@dataclass(frozen=True)
class ChipConfig:
    """Static configuration of one Fusion-3D chip."""

    name: str
    sampling: SamplingModuleConfig = field(default_factory=SamplingModuleConfig)
    interp: InterpModuleConfig = field(default_factory=InterpModuleConfig)
    postproc: PostProcModuleConfig = field(default_factory=PostProcModuleConfig)
    encoding: HashEncodingConfig = field(
        default_factory=lambda: HashEncodingConfig(
            n_levels=16, n_features=2, log2_table_size=14
        )
    )
    cluster: MemoryClusterSpec = field(
        default_factory=lambda: MemoryClusterSpec(n_arrays=2, banks_per_array=8, bank_kb=4.0)
    )
    n_clusters: int = 5
    #: Feature-table SRAM (the paper's 2 x 5 x 64 KB = 640 KB).
    feature_sram_kb: float = 640.0
    #: Misc buffers: controller queues, ray FIFOs, weight store.
    misc_sram_kb: float = 139.0
    tech: Technology = TECH_28NM
    #: Batches in flight through the three-stage pipeline.
    pipeline_batches: int = 16

    @classmethod
    def prototype(cls) -> "ChipConfig":
        """The taped-out prototype: 5 interp cores, 2 memory clusters."""
        return cls(
            name="fusion3d-prototype",
            interp=InterpModuleConfig(n_cores=5),
            n_clusters=2,
            misc_sram_kb=75.0,
        )

    @classmethod
    def scaled(cls) -> "ChipConfig":
        """The Table III evaluation chip: 10 interp cores, 5 clusters."""
        return cls(name="fusion3d-scaled", interp=InterpModuleConfig(n_cores=10))

    @property
    def sram_kb(self) -> float:
        return (
            self.feature_sram_kb
            + self.n_clusters * self.cluster.total_kb
            + self.misc_sram_kb
        )

    def module_gate_counts(self) -> dict:
        """NAND2-equivalent logic gates per module (area/leakage inputs)."""
        logic = self.tech.logic
        sampling_core = (
            2 * logic.int32_mul_gates  # position MAC + DDA stepper
            + 4 * logic.int32_add_gates
            + 2600  # occupancy mask scan + control
        )
        preproc = 8 * (3 * logic.int16_mul_gates + 900)  # normalized tests
        sampling = self.sampling.n_cores * sampling_core + preproc
        # Interp core: shared vertex path + reconfigurable arrays (gate
        # inventory matches hw.area.stage2_sharing_ablation).
        shared_path = 8 * 800 + 8 * (2 * logic.int32_mul_gates + 500) + 26000
        interp_array = 8 * 1125 + 7 * 1100 + 4000
        interp = self.interp.n_cores * (
            shared_path + self.interp.arrays_per_core * interp_array
        )
        postproc = (
            self.postproc.mac_lanes * 520  # fp16 MAC lane incl. pipeline regs
            + 45000  # renderer: exp LUT, blend units, accumulators
        )
        noc_ctrl = 180000
        return {
            "sampling": sampling,
            "interp": interp,
            "postproc": postproc,
            "noc_ctrl": noc_ctrl,
        }

    @property
    def logic_mgates(self) -> float:
        return sum(self.module_gate_counts().values()) / 1e6


@dataclass
class StageReport:
    """One stage's contribution to a chip simulation."""

    name: str
    cycles: float
    ops: OpCounts


@dataclass
class ChipReport:
    """Outcome of simulating one workload on one chip."""

    config_name: str
    mode: str
    n_samples: int
    n_rays: int
    stages: list
    total_cycles: float
    runtime_s: float
    energy_j: float
    power_w: float

    @property
    def samples_per_second(self) -> float:
        if self.runtime_s <= 0:
            return 0.0
        return self.n_samples / self.runtime_s

    @property
    def energy_per_sample_j(self) -> float:
        if self.n_samples == 0:
            return 0.0
        return self.energy_j / self.n_samples

    @property
    def bottleneck_stage(self) -> str:
        return max(self.stages, key=lambda s: s.cycles).name

    def stage_cycles(self) -> dict:
        return {stage.name: stage.cycles for stage in self.stages}


class SingleChipAccelerator:
    """Cycle/energy simulator of one Fusion-3D chip."""

    def __init__(self, config: ChipConfig = None):
        self.config = config or ChipConfig.scaled()
        self.sampling = SamplingModule(self.config.sampling)
        self.interp = InterpModule(self.config.interp, self.config.encoding)
        self.postproc = PostProcModule(self.config.postproc)
        self.energy_model = EnergyModel(self.config.tech)
        #: ``(trace digest, training, optimized_sampling) -> (sampling,
        #: interp, postproc)`` module reports; see :meth:`simulate`.
        self._module_memo = {}

    def simulate(
        self,
        trace: WorkloadTrace,
        training: bool = False,
        optimized_sampling: bool = True,
        workload_scale: float = 1.0,
    ) -> ChipReport:
        """Run a trace through the three pipelined stages.

        ``workload_scale`` linearly extrapolates the representative batch
        to a larger run (cycles and operation counts are both linear in
        workload volume), so a full 2-second training job can reuse one
        traced batch.

        The three module simulations do not depend on ``workload_scale``,
        so this chip memoizes their reports on the content digest of the
        scrubbed trace, ``training`` and ``optimized_sampling``: a hit
        skips only work whose inputs are bit-for-bit the same, so every
        report equals a fresh chip's.  Scrubbing and its fault log,
        scaling, the flow-shop makespan, energy, the
        ``ON_MODULE_SIMULATED`` hooks and the ``sim.*`` cycle metrics
        run on every call.  Under telemetry, ``sim.chip.memo_hits`` /
        ``sim.chip.memo_misses`` count the lookups, and every call opens
        a ``chip.simulate`` span; its ``sampling``, ``interpolation`` and
        ``post-processing`` child spans (and the modules' own telemetry,
        such as a bank-conflict replay) appear only on a miss, when the
        modules actually run.
        """
        if workload_scale <= 0:
            raise ValueError("workload_scale must be positive")
        tel = telemetry.get_session()
        if faults.get_active() is not None:
            # Scrub-and-flag: corrupted trace entries (NaN/negative
            # durations from injected SRAM faults in the trace buffers)
            # are clamped to zero so the cycle model stays finite.
            trace, n_scrubbed = scrub_trace(trace)
            if n_scrubbed:
                log = faults.get_log()
                if log is not None:
                    log.record(
                        "chip",
                        f"scrubbed {n_scrubbed} corrupted trace entries",
                    )
                if tel.enabled:
                    tel.metrics.counter("robustness.trace.scrubbed_entries").inc(
                        n_scrubbed
                    )
        mode = "training" if training else "inference"
        key = (trace.digest(), bool(training), bool(optimized_sampling))
        with tel.tracer.span("chip.simulate", chip=self.config.name, mode=mode):
            modules = self._module_memo.get(key)
            if tel.enabled:
                outcome = "memo_misses" if modules is None else "memo_hits"
                tel.metrics.counter(f"sim.chip.{outcome}").inc()
            if modules is None:
                with tel.tracer.span("sampling"):
                    s1 = self.sampling.simulate(trace, optimized=optimized_sampling)
                with tel.tracer.span("interpolation"):
                    s2 = self.interp.simulate(trace, training=training)
                with tel.tracer.span("post-processing"):
                    s3 = self.postproc.simulate(trace, training=training)
                modules = self._module_memo[key] = (s1, s2, s3)
            s1, s2, s3 = modules
            stages = [
                StageReport("sampling", s1.cycles * workload_scale, s1.ops.scaled(workload_scale)),
                StageReport("interp", s2.cycles * workload_scale, s2.ops.scaled(workload_scale)),
                StageReport("postproc", s3.cycles * workload_scale, s3.ops.scaled(workload_scale)),
            ]
            total_cycles = self._pipeline_cycles([s.cycles for s in stages])
        self._record_simulation(tel, stages, total_cycles)
        runtime = total_cycles * self.config.tech.cycle_s
        ops = OpCounts()
        for stage in stages:
            ops += stage.ops
        breakdown = self.energy_model.energy(
            ops,
            runtime_s=runtime,
            sram_kb=self.config.sram_kb,
            logic_mgates=self.config.logic_mgates,
        )
        return ChipReport(
            config_name=self.config.name,
            mode="training" if training else "inference",
            n_samples=int(round(trace.n_samples * workload_scale)),
            n_rays=int(round(trace.n_rays * workload_scale)),
            stages=stages,
            total_cycles=total_cycles,
            runtime_s=runtime,
            energy_j=breakdown.total_j,
            power_w=breakdown.total_j / runtime if runtime > 0 else 0.0,
        )

    #: StageReport.name -> display name used for spans, metrics and hooks.
    MODULE_NAMES = {
        "sampling": "sampling",
        "interp": "interpolation",
        "postproc": "post-processing",
    }

    def _record_simulation(self, tel, stages: list, total_cycles: float) -> None:
        """Per-module cycle metrics, overlap efficiency, and hook dispatch."""
        for stage in stages:
            tel.hooks.emit(
                telemetry.ON_MODULE_SIMULATED,
                module=self.MODULE_NAMES[stage.name],
                cycles=stage.cycles,
                chip=self.config.name,
            )
        if not tel.enabled:
            return
        m = tel.metrics
        serial = 0.0
        for stage in stages:
            serial += stage.cycles
            m.counter(f"sim.{self.MODULE_NAMES[stage.name]}.cycles").inc(
                stage.cycles
            )
        m.counter("sim.total_cycles").inc(total_cycles)
        # Overlap efficiency: share of the hideable work (everything beyond
        # the bottleneck stage) the flow-shop pipeline actually hid.
        bottleneck = max(stage.cycles for stage in stages)
        hideable = serial - bottleneck
        if hideable > 0:
            m.gauge("sim.stage_overlap_efficiency").set(
                (serial - total_cycles) / hideable
            )
        else:
            m.gauge("sim.stage_overlap_efficiency").set(1.0)

    def power_breakdown(
        self, trace: WorkloadTrace, training: bool = False
    ) -> dict:
        """Average watts per module for a workload (Fig. 10(c)'s power
        half).  Dynamic energy is attributed to the stage whose ops
        produced it; leakage is apportioned by module area."""
        report = self.simulate(trace, training=training)
        runtime = report.runtime_s
        if runtime <= 0:
            raise ValueError("workload produced no runtime")
        modules = self.area()
        total_area = sum(m.total_mm2 for m in modules)
        leak_w = (
            self.config.sram_kb * self.config.tech.sram.leakage_mw_per_kb
            + self.config.logic_mgates * self.config.tech.logic.leakage_mw_per_mgate
        ) * 1e-3
        breakdown = {}
        for stage in report.stages:
            dynamic = self.energy_model.dynamic_energy(stage.ops).total_j
            breakdown[stage.name] = dynamic / runtime
        for module in modules:
            share = leak_w * module.total_mm2 / total_area
            breakdown[module.name] = breakdown.get(module.name, 0.0) + share
        return breakdown

    def area(self) -> list:
        """Per-module areas (Fig. 10(c) breakdown)."""
        model = AreaModel(self.config.tech)
        gates = self.config.module_gate_counts()
        cluster_kb = self.config.n_clusters * self.config.cluster.total_kb
        return [
            model.module("sampling", gates["sampling"], 0.0),
            model.module(
                "interp", gates["interp"], self.config.feature_sram_kb
            ),
            model.module("postproc", gates["postproc"], 0.0),
            model.module(
                "memory_clusters", 0.0, cluster_kb + self.config.misc_sram_kb
            ),
            model.module("noc_ctrl", gates["noc_ctrl"], 0.0),
        ]

    def die_area_mm2(self) -> float:
        return AreaModel.chip_total_mm2(self.area())

    def _pipeline_cycles(self, stage_cycles: list) -> float:
        """Overlap the stages across ping-pong buffered batches."""
        n = self.config.pipeline_batches
        per_batch = np.asarray(stage_cycles, dtype=np.float64)[None, :] / n
        return pipeline_makespan(np.repeat(per_batch, n, axis=0))
