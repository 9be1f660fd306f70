"""The Fusion-3D multi-chip system: four chips + an I/O module (Sec. V).

Level-1 (MoE) tiling broadcasts the camera/ray-generation spec to every
chip; each chip runs the complete pipeline on its own expert (gated by
its own occupancy grid) and ships one partial pixel per ray back to the
I/O module, which fuses by addition.  Chip-to-chip traffic therefore scales with *rays*,
not *samples* — the 94% communication saving of Fig. 12(a) against the
conventional layer-split mapping, whose chips exchange per-sample feature
vectors at every stage boundary.

The system-level clock is set by the slowest chip (Challenge C4); the
two-level hash tiling removes the bank-conflict variance that would
otherwise skew per-chip runtimes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import telemetry
from ..hw.interconnect import LinkSpec, PCB_CHIP_LINK, USB_3_2_GEN1, degrade
from ..robustness import faults
from ..robustness.degradation import plan_remap
from .chip import ChipConfig, ChipReport, SingleChipAccelerator
from .trace import WorkloadTrace

#: Bytes to broadcast one batch's camera pose / ray-generation spec.
#: Rays are generated on-chip (Stage I), so per-ray broadcast is zero.
CAMERA_BROADCAST_BYTES = 128
#: Bytes per partial pixel an expert returns (RGB fp16; opacity is folded
#: into the fused-background correction).
PARTIAL_PIXEL_BYTES = 6
#: Feature bytes per sample a layer-split mapping must exchange per
#: stage boundary (L=16 levels x 2 fp16 features).
FEATURE_BYTES_PER_SAMPLE = 64


@dataclass(frozen=True)
class MultiChipConfig:
    """Static configuration of the PCB multi-chip system."""

    n_chips: int = 4
    chip: ChipConfig = field(default_factory=ChipConfig.scaled)
    chip_link: LinkSpec = PCB_CHIP_LINK
    host_link: LinkSpec = USB_3_2_GEN1
    #: I/O-module overheads measured against the four-chip totals
    #: (paper: 0.5% area, 2.3% SRAM).
    io_area_fraction: float = 0.005
    io_sram_fraction: float = 0.023
    #: Static + fusion-adder power of the FPGA/ASIC I/O module, watts.
    io_power_w: float = 0.12

    def __post_init__(self):
        if self.n_chips < 1:
            raise ValueError("need at least one chip")


@dataclass
class CommunicationReport:
    """Chip-to-chip traffic of the MoE mapping vs the layer-split baseline."""

    moe_bytes: float
    layer_split_bytes: float
    transfer_s: float
    energy_j: float

    @property
    def saving(self) -> float:
        if self.layer_split_bytes <= 0:
            return 0.0
        return 1.0 - self.moe_bytes / self.layer_split_bytes


@dataclass
class MultiChipReport:
    """Outcome of simulating one workload on the multi-chip system."""

    mode: str
    chip_reports: list
    runtime_s: float
    power_w: float
    communication: CommunicationReport
    n_rays: int
    #: Fault-injection bookkeeping; defaults describe a healthy board.
    degraded: bool = False
    dead_chips: tuple = ()
    #: ``{surviving chip: [expert, ...]}`` when degraded, else ``None``.
    expert_assignment: dict = None
    #: Runtime the same workload takes on a healthy board (for the
    #: latency-cost accounting of a degraded run), else ``None``.
    healthy_runtime_s: float = None

    @property
    def latency_cost(self) -> float:
        """Degraded over healthy runtime (1.0 for a healthy board)."""
        if self.healthy_runtime_s is None or self.healthy_runtime_s <= 0:
            return 1.0
        return self.runtime_s / self.healthy_runtime_s

    @property
    def n_samples(self) -> float:
        """Fused-pipeline samples: the experts march the same broadcast
        rays in lockstep, so system throughput counts one expert's samples
        (the paper's throughput/W accounting)."""
        return float(np.mean([r.n_samples for r in self.chip_reports]))

    @property
    def samples_per_second(self) -> float:
        if self.runtime_s <= 0:
            return 0.0
        return self.n_samples / self.runtime_s

    @property
    def throughput_per_watt(self) -> float:
        if self.power_w <= 0:
            return 0.0
        return self.samples_per_second / self.power_w

    @property
    def energy_j(self) -> float:
        return self.power_w * self.runtime_s

    @property
    def chip_imbalance(self) -> float:
        """Slowest over mean chip runtime (1.0 = perfectly balanced)."""
        runtimes = [r.runtime_s for r in self.chip_reports]
        mean = float(np.mean(runtimes))
        if mean <= 0:
            return 1.0
        return float(np.max(runtimes)) / mean


class MultiChipSystem:
    """Cycle/energy simulator of the four-chip Fusion-3D board."""

    def __init__(self, config: MultiChipConfig = MultiChipConfig()):
        self.config = config
        # The n chips share one ChipConfig, so one simulator (and one
        # module memo) serves them all: n copies of a trace simulate once.
        self.chip = SingleChipAccelerator(config.chip)

    def _plan_routing(self, chip_traces: list, fault_cfg) -> dict:
        """Expert→chip routing table for a faulted board.

        Link-only degradation routes every expert to its own chip; dead
        chiplets route through
        :func:`~repro.robustness.degradation.plan_remap` (``remap``, by
        the traces' current loads) or drop the dead experts (``drop``).
        """
        n = self.config.n_chips
        dead = tuple(c for c in fault_cfg.dead_chips if c < n)
        if not dead:
            return {c: [c] for c in range(n)}
        if fault_cfg.policy == "remap":
            loads = [float(t.n_samples) for t in chip_traces]
            return plan_remap(n, dead, loads)
        survivors = [c for c in range(n) if c not in dead]
        if not survivors:
            raise ValueError("all chiplets dead: nothing left to simulate")
        return {c: [c] for c in survivors}

    def simulate_batch(
        self,
        scene: str,
        chip_traces: list,
        training: bool = False,
        workload_scale: float = 1.0,
    ) -> MultiChipReport:
        """Bill one dispatched batch of ``scene``: :meth:`simulate` itself.

        A rendering service bills many batches per scene with the same
        representative traces and only a new ``workload_scale``.  Each
        chip memoizes its three module simulations on the trace content
        (see :meth:`~repro.sim.chip.SingleChipAccelerator.simulate`), so
        a repeated batch reruns only the scaling, flow-shop makespan,
        energy, expert routing, fusion and communication.  ``scene``
        names the batch for callers and profiles; the report is
        :meth:`simulate`'s (guarded by ``tests/test_multichip.py``).
        """
        return self.simulate(
            chip_traces, training=training, workload_scale=workload_scale
        )

    def simulate(
        self,
        chip_traces: list,
        training: bool = False,
        workload_scale: float = 1.0,
    ) -> MultiChipReport:
        """Simulate one batch: ``chip_traces[i]`` is chip *i*'s view of the
        broadcast workload (its expert's occupancy gating applied).
        ``workload_scale`` extrapolates the batch linearly, as in
        :meth:`SingleChipAccelerator.simulate`."""
        if len(chip_traces) != self.config.n_chips:
            raise ValueError("one trace per chip required")
        plan = faults.get_active()
        if plan is not None and not plan.chiplets.is_empty:
            return self._simulate_degraded(
                chip_traces,
                plan.chiplets,
                training=training,
                workload_scale=workload_scale,
            )
        tel = telemetry.get_session()
        with tel.tracer.span("multichip.simulate", n_chips=self.config.n_chips):
            reports = [
                self.chip.simulate(
                    trace, training=training, workload_scale=workload_scale
                )
                for trace in chip_traces
            ]
            comm = self.communication(
                chip_traces, training=training, workload_scale=workload_scale
            )
            # All chips must finish before fusion (C4).  Ray broadcast and
            # partial-pixel return stream concurrently with compute over each
            # chip's private link, so the system is limited by whichever is
            # slower — the 0.6 GB/s links are provisioned to just keep up.
            runtime = max(max(r.runtime_s for r in reports), comm.transfer_s)
            chip_power = sum(r.energy_j for r in reports) / runtime
            power = chip_power + self.config.io_power_w + comm.energy_j / runtime
            report = MultiChipReport(
                mode="training" if training else "inference",
                chip_reports=reports,
                runtime_s=runtime,
                power_w=power,
                communication=comm,
                n_rays=int(round(chip_traces[0].n_rays * workload_scale)),
            )
        self._record_simulation(tel, report)
        return report

    def _simulate_degraded(
        self,
        chip_traces: list,
        fault_cfg,
        training: bool = False,
        workload_scale: float = 1.0,
    ) -> MultiChipReport:
        """Simulate the board with dead chiplets and/or degraded links.

        Graceful degradation of the MoE mapping: every expert is a
        complete pipeline gated by its own occupancy grid, so a dead
        chip's expert can run *serially* on a surviving chip
        (``policy="remap"`` — latency cost, no quality cost) or be
        dropped from the fused render (``policy="drop"`` — quality cost,
        no latency cost).  The report carries the healthy-board runtime
        so the latency cost of 4→3→2-chip operation is directly
        measurable.
        """
        cfg = self.config
        n = cfg.n_chips
        dead = tuple(c for c in fault_cfg.dead_chips if c < n)
        link = degrade(cfg.chip_link, fault_cfg.link_bandwidth_factor)
        tel = telemetry.get_session()
        with tel.tracer.span(
            "multichip.simulate_degraded", n_chips=n, dead_chips=len(dead)
        ):
            # Every expert's trace, simulated once: the chips are
            # identical, so expert e costs the same cycles wherever it
            # lands.  The dead chips' reports only feed the remap
            # schedule and the healthy-baseline comparison.
            own_reports = [
                self.chip.simulate(
                    trace, training=training, workload_scale=workload_scale
                )
                for trace in chip_traces
            ]
            healthy_comm = self.communication(
                chip_traces, training=training, workload_scale=workload_scale
            )
            healthy_runtime = max(
                max(r.runtime_s for r in own_reports), healthy_comm.transfer_s
            )
            assignment = self._plan_routing(chip_traces, fault_cfg)
            if not dead:
                # Link-only degradation: schedule is the healthy one.
                per_chip_runtime = [own_reports[c].runtime_s for c in range(n)]
                reports = own_reports
            elif fault_cfg.policy == "remap":
                per_chip_runtime = [
                    sum(own_reports[e].runtime_s for e in experts)
                    for experts in assignment.values()
                ]
                # All experts still execute; fused quality is unchanged.
                reports = [
                    own_reports[e]
                    for experts in assignment.values()
                    for e in experts
                ]
            else:  # "drop": dead experts simply vanish from the fusion
                survivors = list(assignment)
                per_chip_runtime = [own_reports[c].runtime_s for c in survivors]
                reports = [own_reports[c] for c in survivors]
            n_links = max(n - len(dead), 1)
            n_senders = n if (not dead or fault_cfg.policy == "remap") else n_links
            comm = self.communication(
                chip_traces,
                training=training,
                workload_scale=workload_scale,
                n_senders=n_senders,
                n_links=n_links,
                link=link,
            )
            runtime = max(max(per_chip_runtime), comm.transfer_s)
            chip_power = sum(r.energy_j for r in reports) / runtime
            power = chip_power + cfg.io_power_w + comm.energy_j / runtime
            report = MultiChipReport(
                mode="training" if training else "inference",
                chip_reports=reports,
                runtime_s=runtime,
                power_w=power,
                communication=comm,
                n_rays=int(round(chip_traces[0].n_rays * workload_scale)),
                degraded=True,
                dead_chips=dead,
                expert_assignment=assignment,
                healthy_runtime_s=healthy_runtime,
            )
        self._record_simulation(tel, report)
        self._record_degradation(tel, report, fault_cfg)
        return report

    def _record_degradation(self, tel, report: MultiChipReport, fault_cfg) -> None:
        """Fault log + ``robustness.*`` metrics for a degraded run."""
        n = self.config.n_chips
        n_dead = len(report.dead_chips)
        log = faults.get_log()
        if log is not None:
            detail = (
                f"{n_dead}/{n} chiplets dead "
                f"(policy={fault_cfg.policy}), latency cost "
                f"{report.latency_cost:.2f}x"
            )
            if fault_cfg.link_bandwidth_factor < 1.0:
                detail += (
                    f", links at {fault_cfg.link_bandwidth_factor:.0%} bandwidth"
                )
            log.record("multichip", detail)
        if not tel.enabled:
            return
        m = tel.metrics
        m.gauge("robustness.chiplets.dead").set(float(n_dead))
        m.gauge("robustness.chiplets.survivors").set(float(n - n_dead))
        if fault_cfg.policy == "remap":
            m.gauge("robustness.chiplets.remapped_experts").set(float(n_dead))
        else:
            m.gauge("robustness.chiplets.dropped_experts").set(float(n_dead))
        m.gauge("robustness.remap.latency_cost").set(report.latency_cost)

    def _record_simulation(self, tel, report: MultiChipReport) -> None:
        """Per-chiplet utilization and interconnect-traffic telemetry."""
        for i, chip_report in enumerate(report.chip_reports):
            tel.hooks.emit(
                telemetry.ON_MODULE_SIMULATED,
                module=f"chiplet{i}",
                cycles=chip_report.total_cycles,
                chip=chip_report.config_name,
            )
        if not tel.enabled:
            return
        m = tel.metrics
        for i, chip_report in enumerate(report.chip_reports):
            # Utilization: this chiplet's busy time over the fused-batch
            # wall time set by the slowest chip / the interconnect (C4).
            utilization = (
                chip_report.runtime_s / report.runtime_s
                if report.runtime_s > 0
                else 0.0
            )
            m.gauge(f"multichip.chiplet{i}.utilization").set(utilization)
        m.gauge("multichip.imbalance").set(report.chip_imbalance)
        comm = report.communication
        m.counter("multichip.interconnect.moe_bytes").inc(comm.moe_bytes)
        m.counter("multichip.interconnect.layer_split_bytes").inc(
            comm.layer_split_bytes
        )
        m.counter("multichip.interconnect.transfer_s").inc(comm.transfer_s)
        m.gauge("multichip.interconnect.comm_saving").set(comm.saving)

    def communication(
        self,
        chip_traces: list,
        training: bool = False,
        workload_scale: float = 1.0,
        *,
        n_senders: int = None,
        n_links: int = None,
        link: LinkSpec = None,
    ) -> CommunicationReport:
        """Traffic accounting: MoE mapping vs layer-split baseline.

        The keyword-only parameters exist for degraded-board simulation:
        ``n_senders`` experts contribute partial-pixel streams (fewer
        than ``n_chips`` when dead experts are dropped), carried over
        ``n_links`` surviving links of spec ``link``.  Defaults
        reproduce the healthy board exactly.
        """
        cfg = self.config
        senders = cfg.n_chips if n_senders is None else n_senders
        links = cfg.n_chips if n_links is None else n_links
        chip_link = cfg.chip_link if link is None else link
        n_rays = chip_traces[0].n_rays * workload_scale
        # MoE: broadcast the camera spec once (rays are generated
        # on-chip), one partial pixel back per ray per chip; in training
        # the fused residual is broadcast back per ray.
        moe = (
            senders * CAMERA_BROADCAST_BYTES
            + senders * n_rays * PARTIAL_PIXEL_BYTES
        )
        if training:
            moe += senders * n_rays * PARTIAL_PIXEL_BYTES
        # Layer-split baseline: every sample's feature vector crosses one
        # chip boundary at the Stage II/III split; training returns the
        # feature gradients as well.
        total_samples = float(np.mean([t.n_samples for t in chip_traces])) * workload_scale
        layer_split = total_samples * FEATURE_BYTES_PER_SAMPLE
        if training:
            layer_split *= 2.0
        # Each chip has a private link to the I/O module carrying its own
        # broadcast copy and partial-pixel return stream.
        per_link = moe / links
        transfer_s = chip_link.transfer_s(per_link)
        energy = chip_link.transfer_energy_j(moe)
        return CommunicationReport(
            moe_bytes=moe,
            layer_split_bytes=layer_split,
            transfer_s=transfer_s,
            energy_j=energy,
        )

    def die_area_mm2(self) -> float:
        """Total silicon: four chips plus the I/O module overhead."""
        chips = self.config.n_chips * self.chip.die_area_mm2()
        return chips * (1.0 + self.config.io_area_fraction)

    def sram_kb(self) -> float:
        chips = self.config.n_chips * self.config.chip.sram_kb
        return chips * (1.0 + self.config.io_sram_fraction)
