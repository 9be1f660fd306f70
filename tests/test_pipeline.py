"""The staged Renderer abstraction: registry, bit-identity, round trips.

The load-bearing proofs of ``repro.pipeline``: ``Renderer.render_rays``
and ``render_image`` — the one render path the functional API, serving,
the fleet and online deployment all call — are *bit-identical*
(``np.array_equal``, not allclose) to the frozen monolithic
:func:`repro.perf.reference.render_rays_reference` on every path (plain,
ERT, empty batch, fault scrub), and the registry/wrap/checkpoint
surfaces preserve renderer names across round trips.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import pipeline
from repro.nerf.hash_encoding import HashEncodingConfig
from repro.nerf.model import InstantNGPModel, ModelConfig
from repro.nerf.occupancy import OccupancyGrid
from repro.nerf.rays import generate_rays
from repro.nerf.sampling import RayMarcher, SamplerConfig
from repro.perf.reference import render_rays_reference
from repro.robustness import faults
from repro.robustness.faults import FaultPlan, TraceFaultConfig
from repro.nerf.tensorf import DenseGridConfig, DenseGridField, TensoRFConfig, TensoRFModel
from repro.pipeline import (
    OccupancySampler,
    Renderer,
    RendererRegistry,
    UnknownRendererError,
    VolumeCompositor,
)


@pytest.fixture
def marcher():
    return RayMarcher(SamplerConfig(max_samples=24))


@pytest.fixture
def unit_rays(mic_dataset):
    """A small batch of unit-cube rays from the shared dataset."""
    rays = generate_rays(mic_dataset.cameras[0])
    origins, directions = mic_dataset.normalizer.rays_to_unit(
        rays.origins, rays.directions
    )
    return origins[:64], directions[:64]


# ---------------------------------------------------------------- registry


def test_default_registry_ships_both_renderers():
    assert pipeline.available() == ["ngp", "tensorf"]


def test_create_ngp_by_name():
    renderer = pipeline.create(
        "ngp",
        config={
            "encoding": {
                "n_levels": 3,
                "n_features": 2,
                "log2_table_size": 8,
                "base_resolution": 4,
                "finest_resolution": 16,
            },
            "hidden_width": 16,
            "geo_features": 8,
            "max_samples": 24,
        },
        seed=0,
    )
    assert renderer.name == "ngp"
    assert renderer.marcher.config.max_samples == 24
    assert renderer.n_parameters > 0


def test_create_tensorf_by_name():
    renderer = pipeline.create(
        "tensorf", config={"resolution": 8, "n_components": 2, "hidden_width": 16}
    )
    assert renderer.name == "tensorf"
    assert isinstance(renderer.field, TensoRFModel)
    assert renderer.encoding is renderer.field.encoding


def test_unknown_renderer_raises():
    with pytest.raises(UnknownRendererError):
        pipeline.create("nerfacto")
    # UnknownRendererError is a KeyError so generic handlers still work.
    with pytest.raises(KeyError):
        pipeline.create("nerfacto")


def test_custom_registry_register_and_create(tiny_model):
    registry = RendererRegistry()
    assert registry.available() == []
    registry.register("custom", lambda config, seed: pipeline.wrap_model(tiny_model, name="custom"))
    assert registry.available() == ["custom"]
    assert registry.create("custom").name == "custom"
    with pytest.raises(ValueError):
        registry.register("", lambda config, seed: None)


def test_renderer_name_for_known_and_fallback(tiny_model):
    assert pipeline.renderer_name_for(tiny_model) == "ngp"
    assert (
        pipeline.renderer_name_for(
            TensoRFModel(TensoRFConfig(resolution=8, n_components=2, hidden_width=16))
        )
        == "tensorf"
    )
    assert (
        pipeline.renderer_name_for(
            DenseGridField(DenseGridConfig(resolution=8, n_features=2, hidden_width=16))
        )
        == "tensorf"
    )
    assert pipeline.renderer_name_for(object()) == "object"


def test_wrap_model_infers_name(tiny_model):
    assert pipeline.wrap_model(tiny_model).name == "ngp"
    assert pipeline.wrap_model(tiny_model, name="ngp-frozen").name == "ngp-frozen"


# ------------------------------------------------------------ bit-identity


def test_render_rays_bit_identical_to_monolithic(
    tiny_model, marcher, unit_rays, full_occupancy
):
    origins, directions = unit_rays
    expected, expected_batch, expected_result = render_rays_reference(
        tiny_model, origins, directions, marcher, occupancy=full_occupancy
    )
    renderer = pipeline.wrap_model(
        tiny_model, marcher=marcher, occupancy=full_occupancy
    )
    colors, batch, result = renderer.render_rays(origins, directions)
    assert np.array_equal(colors, expected)
    assert np.array_equal(batch.positions, expected_batch.positions)
    assert np.array_equal(result.colors, expected_result.colors)


def test_render_rays_ert_path_bit_identical(tiny_model, marcher, unit_rays):
    origins, directions = unit_rays
    expected, _, expected_result = render_rays_reference(
        tiny_model, origins, directions, marcher, ert_threshold=1e-3
    )
    renderer = pipeline.wrap_model(tiny_model, marcher=marcher, ert_threshold=1e-3)
    colors, _, result = renderer.render_rays(origins, directions)
    assert expected_result is None and result is None
    assert np.array_equal(colors, expected)


def test_render_rays_empty_batch_background(tiny_model, marcher, unit_rays):
    origins, directions = unit_rays
    dead = OccupancyGrid(resolution=4)
    dead.mask[...] = False
    expected, _, _ = render_rays_reference(
        tiny_model, origins, directions, marcher, occupancy=dead, background=0.25
    )
    renderer = pipeline.wrap_model(
        tiny_model, marcher=marcher, occupancy=dead, background=0.25
    )
    colors, batch, result = renderer.render_rays(origins, directions)
    assert len(batch) == 0 and result is None
    assert np.array_equal(colors, expected)
    assert np.all(colors == 0.25)


def test_render_image_bit_identical_to_monolithic(
    tiny_model, marcher, mic_dataset, full_occupancy
):
    camera = mic_dataset.cameras[0]
    rays = generate_rays(camera)
    origins, directions = mic_dataset.normalizer.rays_to_unit(
        rays.origins, rays.directions
    )
    expected = np.empty((camera.n_pixels, 3), dtype=np.float32)
    for start in range(0, camera.n_pixels, 97):
        stop = start + 97
        expected[start:stop], _, _ = render_rays_reference(
            tiny_model,
            origins[start:stop],
            directions[start:stop],
            marcher,
            occupancy=full_occupancy,
        )
    expected = np.clip(expected, 0.0, 1.0).reshape(
        camera.height, camera.width, 3
    )
    renderer = pipeline.wrap_model(
        tiny_model, marcher=marcher, occupancy=full_occupancy
    )
    frame = renderer.render_image(camera, mic_dataset.normalizer, chunk=97)
    assert frame.dtype == np.float32
    assert np.array_equal(frame, expected)


def _draw_rays(rng, n_rays: int, miss: bool) -> tuple:
    """Unit-space rays through the cube, or (``miss``) rays pointing away."""
    if miss:
        origins = 2.0 + rng.uniform(0.0, 1.0, size=(n_rays, 3))
        directions = rng.uniform(0.1, 1.0, size=(n_rays, 3))
    else:
        origins = rng.uniform(0.0, 1.0, size=(n_rays, 3)) - [0.0, 0.0, 1.5]
        directions = rng.normal(size=(n_rays, 3)) * 0.3 + [0.0, 0.0, 1.0]
    return origins, directions


def _same(a, b) -> bool:
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


@given(
    seed=st.integers(0, 2**16),
    n_rays=st.integers(1, 40),
    miss=st.sampled_from((False, False, True)),
    occupied=st.sampled_from((0.0, 0.5, 1.0, 1.0)),
    max_samples=st.sampled_from((8, 24)),
    background=st.floats(0.0, 1.0),
    ert_threshold=st.one_of(
        st.none(), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    ),
    faulted=st.booleans(),
    poisoned=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_renderer_matches_frozen_reference(
    seed, n_rays, miss, occupied, max_samples, background, ert_threshold,
    faulted, poisoned,
):
    """``Renderer.render_rays`` equals the frozen monolithic render in
    colors, every ``SampleBatch`` field and ``result`` — over random
    models, rays (all-miss included), occupancy masks and ERT
    thresholds, with and without an active fault plan (a poisoned hash
    table drives the scrub)."""
    rng = np.random.default_rng(seed)
    model = InstantNGPModel(
        ModelConfig(
            encoding=HashEncodingConfig(
                n_levels=2, n_features=2, log2_table_size=6,
                base_resolution=4, finest_resolution=8,
            ),
            hidden_width=8,
            geo_features=4,
        ),
        seed=seed,
    )
    if poisoned:
        model.encoding.tables[0, ::5] = np.inf
    occupancy = OccupancyGrid(resolution=4)
    occupancy.mask[...] = rng.uniform(size=occupancy.mask.shape) < occupied
    origins, directions = _draw_rays(rng, n_rays, miss)
    marcher = RayMarcher(SamplerConfig(max_samples=max_samples))
    renderer = pipeline.wrap_model(
        model,
        marcher=marcher,
        occupancy=occupancy,
        background=background,
        ert_threshold=ert_threshold,
    )
    plan = FaultPlan(trace=TraceFaultConfig(corrupt_fraction=0.1)) if faulted else None
    with faults.plan_scope(plan), np.errstate(invalid="ignore", over="ignore"):
        want = render_rays_reference(
            model, origins, directions, marcher, occupancy=occupancy,
            background=background, ert_threshold=ert_threshold,
        )
        got = renderer.render_rays(origins, directions)
    assert _same(got[0], want[0])
    for name in ("positions", "directions", "deltas", "ts", "ray_idx",
                 "n_rays", "candidates"):
        assert _same(getattr(got[1], name), getattr(want[1], name)), name
    assert (got[2] is None) == (want[2] is None)
    if want[2] is not None:
        for name in ("colors", "opacity", "depth", "weights",
                     "transmittance", "alphas"):
            assert _same(getattr(got[2], name), getattr(want[2], name)), name
    if faulted:
        assert np.all(np.isfinite(got[0]))


def test_tensorf_renderer_renders_frames(mic_dataset):
    renderer = pipeline.create(
        "tensorf",
        config={"resolution": 8, "n_components": 2, "hidden_width": 16, "max_samples": 16},
    )
    frame = renderer.render_image(mic_dataset.cameras[0], mic_dataset.normalizer)
    camera = mic_dataset.cameras[0]
    assert frame.shape == (camera.height, camera.width, 3)
    assert np.all(np.isfinite(frame))
    assert np.all((frame >= 0.0) & (frame <= 1.0))


# ------------------------------------------------------------- round trips


def test_checkpoint_round_trip_preserves_name_and_frames(
    tmp_path, marcher, mic_dataset, full_occupancy
):
    original = pipeline.create(
        "tensorf",
        config={"resolution": 8, "n_components": 2, "hidden_width": 16, "max_samples": 24},
        seed=3,
    )
    original.sampler = OccupancySampler(marcher, full_occupancy)
    path = tmp_path / "scene.npz"
    original.save(path, normalizer=mic_dataset.normalizer)
    loaded, normalizer = pipeline.load_renderer(path)
    assert loaded.name == "tensorf"
    assert loaded.occupancy is not None
    assert np.array_equal(loaded.occupancy.mask, full_occupancy.mask)
    # Pin the same marcher on both sides: the proof is about the field
    # weights and occupancy surviving the round trip bit-for-bit.
    loaded.sampler = OccupancySampler(marcher, loaded.occupancy)
    camera = mic_dataset.cameras[1]
    assert np.array_equal(
        loaded.render_image(camera, normalizer),
        original.render_image(camera, mic_dataset.normalizer),
    )


def test_stage_base_classes_are_abstract(tiny_model):
    from repro.pipeline.stages import Compositor, Encoding, Field, Sampler

    with pytest.raises(NotImplementedError):
        Sampler().sample(np.zeros((1, 3)), np.zeros((1, 3)))
    with pytest.raises(NotImplementedError):
        Compositor().render(tiny_model, None, 1.0)
    with pytest.raises(NotImplementedError):
        Encoding().forward(np.zeros((1, 3)))
    with pytest.raises(NotImplementedError):
        Field().forward(np.zeros((1, 3)), np.zeros((1, 3)))


def test_direct_assembly_defaults(tiny_model):
    renderer = Renderer("ngp", tiny_model)
    assert isinstance(renderer.sampler, OccupancySampler)
    assert isinstance(renderer.compositor, VolumeCompositor)
    assert renderer.occupancy is None
    assert renderer.background == 1.0
