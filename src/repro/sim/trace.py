"""Workload traces: the interface between the NeRF algorithms and the
cycle simulator.

A trace summarizes one batch of pipeline work — rays, their octant
cube-pairs, the occupancy-gated samples each pair produces, and
(optionally) the integer vertex coordinates Stage II will hash, which the
bank-conflict simulation replays.  Traces come from two sources:

* :func:`trace_from_rays` runs the real Stage I on real rays against a
  real occupancy grid (exact, used by tests and small experiments);
* :func:`synthetic_trace` draws a trace from summary statistics (scene
  occupancy, samples-per-ray distribution), used for chip-scale workloads
  where replaying millions of rays through NumPy would be wasteful.

Durations are measured in *kept samples*: the sampling cores skip empty
occupancy cells at bitmask speed (a 32-cell mask word per cycle, folded
into the per-pair setup constant), so marching time is dominated by the
samples that survive gating.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

import numpy as np

from ..nerf.aabb import intersect_octants
from ..nerf.occupancy import OccupancyGrid
from ..nerf.sampling import RayMarcher, SamplerConfig


@dataclass
class WorkloadTrace:
    """Per-batch workload description consumed by the chip simulator."""

    n_rays: int
    #: ``pair_durations[r]`` lists, for ray r, the kept-sample count of
    #: each of its valid cube-pairs (the core-occupancy time of the pair).
    pair_durations: list
    #: Samples surviving occupancy gating (Stage II/III work).
    n_samples: int
    #: Candidate points tested by Stage I before gating.
    n_candidates: int
    #: Optional ``(k, 8, 3)`` integer vertex coordinates of a subsample of
    #: Stage II lookups at the finest level, for conflict replay.
    vertex_corners: np.ndarray = None
    #: Optional matching ``(k, 8)`` hash-table indices.
    vertex_indices: np.ndarray = None
    #: Per-ray kept-sample counts (workload-balance statistics).
    samples_per_ray: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    #: Occupancy-grid cells the DDA walk visits (Stage I mask reads);
    #: falls back to a candidate-derived estimate when not traced.
    n_cells_visited: int = 0

    def __post_init__(self):
        if self.n_rays < 0 or self.n_samples < 0 or self.n_candidates < 0:
            raise ValueError("trace counts must be non-negative")
        if len(self.pair_durations) != self.n_rays:
            raise ValueError("one pair-duration list per ray required")

    @property
    def n_pairs(self) -> int:
        return sum(len(p) for p in self.pair_durations)

    @property
    def mean_samples_per_ray(self) -> float:
        if self.n_rays == 0:
            return 0.0
        return self.n_samples / self.n_rays

    @property
    def occupancy_fraction(self) -> float:
        """Fraction of candidate points that survived gating."""
        if self.n_candidates == 0:
            return 0.0
        return self.n_samples / self.n_candidates

    def ray_durations(self) -> np.ndarray:
        """Total kept samples per ray: the naive (unpartitioned) job sizes."""
        return np.array([sum(p) for p in self.pair_durations], dtype=np.float64)

    def to_arrays(self) -> dict:
        """Flatten the trace into named NumPy arrays (``.npz``-ready).

        The ragged ``pair_durations`` lists are stored as a flat value
        array plus per-ray counts; scalars become 0-d arrays.  Inverse of
        :meth:`from_arrays`, the round trip is exact (durations are
        float64 on both sides) — this is the on-disk format of the
        workload-trace cache (``repro.parallel.cache``).
        """
        pair_counts = np.fromiter(
            map(len, self.pair_durations),
            dtype=np.int64,
            count=len(self.pair_durations),
        )
        pair_values = np.fromiter(
            itertools.chain.from_iterable(self.pair_durations),
            dtype=np.float64,
            count=int(pair_counts.sum()),
        )
        arrays = {
            "n_rays": np.int64(self.n_rays),
            "n_samples": np.int64(self.n_samples),
            "n_candidates": np.int64(self.n_candidates),
            "n_cells_visited": np.int64(self.n_cells_visited),
            "pair_counts": pair_counts,
            "pair_values": pair_values,
            "samples_per_ray": np.asarray(self.samples_per_ray),
        }
        if self.vertex_corners is not None:
            arrays["vertex_corners"] = self.vertex_corners
        if self.vertex_indices is not None:
            arrays["vertex_indices"] = self.vertex_indices
        return arrays

    def digest(self) -> bytes:
        """Content digest of every :meth:`to_arrays` field.

        Each field's name, dtype, shape and bytes go into the hash, so
        equal traces held by different objects digest equal and any
        in-place edit (e.g. of ``pair_durations``) changes the digest.
        """
        h = hashlib.sha256()
        for name, value in sorted(self.to_arrays().items()):
            value = np.ascontiguousarray(value)
            h.update(f"{name}:{value.dtype.str}:{value.shape}".encode())
            h.update(value)
        return h.digest()

    @classmethod
    def from_arrays(cls, arrays: dict) -> "WorkloadTrace":
        """Rebuild a trace from a :meth:`to_arrays` mapping (cache load)."""
        pair_counts = np.asarray(arrays["pair_counts"]).astype(np.int64)
        pair_values = np.asarray(arrays["pair_values"])
        pair_durations = []
        cursor = 0
        for count in pair_counts:
            pair_durations.append(pair_values[cursor : cursor + count].tolist())
            cursor += count
        return cls(
            n_rays=int(arrays["n_rays"]),
            pair_durations=pair_durations,
            n_samples=int(arrays["n_samples"]),
            n_candidates=int(arrays["n_candidates"]),
            vertex_corners=arrays.get("vertex_corners"),
            vertex_indices=arrays.get("vertex_indices"),
            samples_per_ray=np.asarray(arrays["samples_per_ray"]),
            n_cells_visited=int(arrays["n_cells_visited"]),
        )

    def scale_for_samples(self, target_samples: float) -> float:
        """Workload-scale factor covering ``target_samples``.

        The simulator is linear in workload volume: chip-scale runs
        simulate this representative batch once and multiply cycles and
        operation counts by the returned factor (see the ``workload_scale``
        argument of the chip simulators) instead of re-tracing millions of
        rays.
        """
        if self.n_samples == 0:
            raise ValueError("cannot scale an empty trace")
        return target_samples / self.n_samples


def distribute_samples_over_pairs(
    pair_ray_idx: np.ndarray,
    spans: np.ndarray,
    kept_per_ray: np.ndarray,
    n_rays: int,
) -> list:
    """Distribute each ray's kept samples over its cube-pairs
    proportionally to the pairs' span lengths.

    Vectorized replacement for the original append loop: ``np.bincount``
    accumulates weights in input order exactly like the ``np.add.at`` it
    replaces, and ``intersect_octants`` returns pairs sorted by
    ``ray_idx``, so the per-ray slices below reproduce the loop bit for
    bit (see :func:`repro.perf.reference.pair_durations_reference`).
    """
    spans = np.asarray(spans, dtype=np.float64)
    span_per_ray = np.bincount(pair_ray_idx, weights=spans, minlength=n_rays)
    total = span_per_ray[pair_ray_idx]
    share = np.divide(spans, total, out=np.zeros_like(spans), where=total > 0)
    dur = np.asarray(kept_per_ray)[pair_ray_idx].astype(np.float64) * share
    fences = np.concatenate(
        ([0], np.cumsum(np.bincount(pair_ray_idx, minlength=n_rays)))
    )
    return [dur[fences[ray] : fences[ray + 1]].tolist() for ray in range(n_rays)]


def trace_from_rays(
    origins: np.ndarray,
    directions: np.ndarray,
    occupancy: OccupancyGrid,
    encoding=None,
    max_samples: int = 128,
    max_traced_vertices: int = 4096,
    chunk: int = None,
    jobs: int = 1,
) -> WorkloadTrace:
    """Exact trace: run Stage I on unit-space rays.

    When ``encoding`` (a :class:`~repro.nerf.hash_encoding.HashEncoding`)
    is given, the finest-level vertex lookups of up to
    ``max_traced_vertices`` samples are recorded for conflict replay.

    ``chunk``/``jobs`` shard the Stage I march over ray chunks (see
    :meth:`~repro.nerf.sampling.RayMarcher.sample_chunked`); the
    resulting trace is bit-identical to the one-shot march, so large
    experiments can parallelize trace extraction freely.
    """
    origins = np.atleast_2d(origins)
    directions = np.atleast_2d(directions)
    n_rays = origins.shape[0]
    pairs = intersect_octants(origins, directions)
    marcher = RayMarcher(SamplerConfig(max_samples=max_samples))
    if chunk is not None:
        batch = marcher.sample_chunked(
            origins, directions, occupancy=occupancy, chunk=chunk, jobs=jobs
        )
    else:
        batch = marcher.sample(origins, directions, occupancy=occupancy)
    # DDA walk over the occupancy grid: the Stage I mask-read workload.
    from .trace_traversal import count_cells_visited

    n_cells = count_cells_visited(origins, directions, occupancy)
    kept_per_ray = batch.samples_per_ray
    spans = pairs.t1 - pairs.t0
    pair_durations = distribute_samples_over_pairs(
        pairs.ray_idx, spans, kept_per_ray, n_rays
    )
    corners = indices = None
    if encoding is not None and len(batch):
        k = min(len(batch), max_traced_vertices)
        subset = batch.positions[:k]
        finest = encoding.config.n_levels - 1
        corners, indices, _ = encoding.level_lookup(subset, finest)
    return WorkloadTrace(
        n_rays=n_rays,
        pair_durations=pair_durations,
        n_samples=len(batch),
        n_candidates=batch.candidates,
        vertex_corners=corners,
        vertex_indices=indices,
        samples_per_ray=kept_per_ray,
        n_cells_visited=n_cells,
    )


def synthetic_trace(
    n_rays: int,
    mean_samples_per_ray: float,
    occupancy_fraction: float,
    rng: np.random.Generator,
    mean_pairs_per_ray: float = 1.8,
    max_samples: int = 128,
    table_size: int = 1 << 14,
    traced_vertices: int = 2048,
) -> WorkloadTrace:
    """Draw a trace from workload statistics.

    Pair counts are truncated-Poisson in [1, 3] (the paper's observed
    range); per-pair kept-sample counts are geometric with the requested
    per-ray mean, reproducing the heavy skew that motivates dynamic
    scheduling.
    """
    if n_rays < 1:
        raise ValueError("need at least one ray")
    if not 0.0 < occupancy_fraction <= 1.0:
        raise ValueError("occupancy_fraction must be in (0, 1]")
    if mean_samples_per_ray <= 0:
        raise ValueError("mean_samples_per_ray must be positive")
    pair_counts = np.clip(rng.poisson(mean_pairs_per_ray - 1, size=n_rays) + 1, 1, 3)
    total_pairs = int(pair_counts.sum())
    mean_per_pair = max(mean_samples_per_ray * n_rays / total_pairs, 1e-6)
    # Geometric lengths (support >= 1) shifted down by one to allow empty
    # pairs; the +1 in the success probability keeps the requested mean.
    lengths = np.minimum(
        rng.geometric(min(1.0 / (mean_per_pair + 1.0), 1.0), size=total_pairs) - 1,
        max_samples,
    ).astype(np.float64)
    pair_durations = []
    cursor = 0
    for count in pair_counts:
        pair_durations.append(lengths[cursor : cursor + count].tolist())
        cursor += count
    n_samples = int(lengths.sum())
    n_candidates = int(round(n_samples / occupancy_fraction))
    per_ray = np.array([sum(p) for p in pair_durations])
    # Synthetic finest-level vertex coordinates for conflict replay.
    from ..nerf.hash_encoding import CORNER_OFFSETS, hash_vertices

    base = rng.integers(0, 256, size=(traced_vertices, 3))
    corners = base[:, None, :] + CORNER_OFFSETS[None, :, :]
    indices = hash_vertices(corners, table_size)
    return WorkloadTrace(
        n_rays=n_rays,
        pair_durations=pair_durations,
        n_samples=n_samples,
        n_candidates=n_candidates,
        vertex_corners=corners,
        vertex_indices=indices,
        samples_per_ray=per_ray,
    )
