"""Installing the layer probes on the real program and removing them."""

import sys

import pytest

import layers
from spans import LayerTracer


def _snapshot():
    """Every attribute of every loaded program module and class."""
    # Everything layers.install imports, so the snapshots cover one module set.
    import repro.experiments.runner  # noqa: F401
    import repro.online  # noqa: F401
    import repro.parallel  # noqa: F401
    import repro.pipeline  # noqa: F401
    import repro.serve  # noqa: F401

    state = {}
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for attr, value in vars(module).items():
            state[(mod_name, attr)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for member, member_value in vars(value).items():
                    state[(mod_name, attr, member)] = member_value
    return state


def test_install_then_restore_leaves_the_program_untouched():
    before = _snapshot()
    tracer = LayerTracer()
    layers.install(tracer)
    during = _snapshot()
    changed = [key for key in before if during.get(key) is not before[key]]
    assert len(changed) >= 25  # every layer got its wrapper
    tracer.restore()
    after = _snapshot()
    assert set(after) == set(before)
    assert all(after[key] is before[key] for key in before)


def test_traced_calls_land_in_the_per_layer_table():
    import numpy as np
    from repro.nerf.hash_encoding import HashEncoding, HashEncodingConfig

    encoding = HashEncoding(
        HashEncodingConfig(n_levels=2, log2_table_size=6, finest_resolution=16),
        rng=np.random.default_rng(0),
    )
    with LayerTracer() as tracer:
        probes = layers.install(tracer)
        encoding.forward(np.full((4, 3), 0.5))
        probes.end_episode()
    stats = tracer.stats["nerf.hash_encoding.forward"]
    table = layers.per_layer_metrics(
        tracer, probes, [2 * stats.total_s], {"quality.psnr_db": 20.0}, overhead_s=0.0
    )
    assert set(table) == set(layers.metric_units())
    assert table["nerf.hash_encoding.forward.self_pct"][0] == pytest.approx(50.0)
    assert table["nerf.mlp.forward.self_pct"] == (0.0, "%")
    assert table["quality.psnr_db"] == (20.0, "dB")
    assert table["serve.slo_attain"] == (0.0, "ratio")
    assert HashEncoding.forward.__name__ == "forward"
    assert not hasattr(HashEncoding.forward, "__wrapped__")


def test_unknown_facts_are_refused():
    with LayerTracer() as tracer:
        probes = layers.install(tracer)
    with pytest.raises(ValueError):
        layers.per_layer_metrics(tracer, probes, [1.0], {"no.such_fact": 1.0}, overhead_s=0.0)
