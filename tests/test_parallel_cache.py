"""Cache correctness: hits, misses, invalidation, corruption recovery."""

import json
import os

import numpy as np
import pytest

from repro import parallel
from repro.parallel import cache as cache_mod
from repro.parallel import engine
from repro.robustness.faults import ChipletFaultConfig, FaultPlan
from repro.sim.trace import WorkloadTrace, synthetic_trace


@pytest.fixture
def cache(tmp_path):
    return parallel.ResultCache(str(tmp_path / "cache"))


PAYLOAD = {
    "experiment": "x",
    "paper_ref": "Table X",
    "rows": [{"a": 1.0}],
    "summary": {"k": 2.0},
    "telemetry": None,
}


def test_result_hit_roundtrip(cache):
    key = engine.result_cache_key("table3", True, "fp", None)
    assert cache.get_result(key) is None
    cache.put_result(key, PAYLOAD, meta={"elapsed_s": 1.5})
    entry = cache.get_result(key)
    assert entry["result"] == PAYLOAD
    assert entry["meta"]["elapsed_s"] == 1.5


def test_miss_on_config_change(cache):
    cache.put_result(engine.result_cache_key("table3", True, "fp", None), PAYLOAD)
    # Same experiment, full instead of quick mode: different key.
    assert cache.get_result(engine.result_cache_key("table3", False, "fp", None)) is None
    # Different experiment name: different key.
    assert cache.get_result(engine.result_cache_key("table4", True, "fp", None)) is None
    # Same experiment under a fault plan: different key.
    plan = FaultPlan(chiplets=ChipletFaultConfig(dead_chips=(1,))).to_json()
    assert cache.get_result(engine.result_cache_key("table3", True, "fp", plan)) is None


def test_invalidation_on_fingerprint_change(cache):
    cache.put_result(engine.result_cache_key("table3", True, "fp-v1", None), PAYLOAD)
    assert cache.get_result(engine.result_cache_key("table3", True, "fp-v2", None)) is None
    # The old entry is still present for the old fingerprint (content
    # addressing: invalidation = unreachability, not deletion).
    assert cache.get_result(engine.result_cache_key("table3", True, "fp-v1", None))


def test_fingerprint_tracks_file_content(tmp_path):
    a = tmp_path / "a.py"
    b = tmp_path / "b.py"
    a.write_text("x = 1\n")
    b.write_text("y = 2\n")
    files = [("a.py", str(a)), ("b.py", str(b))]
    before = parallel.fingerprint_files(files)
    assert before == parallel.fingerprint_files(files)  # deterministic
    b.write_text("y = 3\n")
    assert parallel.fingerprint_files(files) != before


def test_source_fingerprint_memoized_and_stable():
    fp1 = parallel.source_fingerprint(("repro.sim",))
    fp2 = parallel.source_fingerprint(("repro.sim",))
    assert fp1 == fp2 and len(fp1) == 64
    assert parallel.source_fingerprint(("repro.nerf",)) != fp1
    parallel.clear_fingerprint_cache()
    assert parallel.source_fingerprint(("repro.sim",)) == fp1


def test_corrupted_result_entry_recovers(cache):
    key = engine.result_cache_key("table3", True, "fp", None)
    path = cache.put_result(key, PAYLOAD)
    with open(path, "w") as fh:
        fh.write("{not json")
    assert cache.get_result(key) is None  # miss, not an exception
    assert not os.path.exists(path)  # bad entry dropped
    # And the slot is usable again.
    cache.put_result(key, PAYLOAD)
    assert cache.get_result(key)["result"] == PAYLOAD


def test_malformed_but_valid_json_entry_recovers(cache):
    key = engine.result_cache_key("table3", True, "fp", None)
    path = cache.put_result(key, PAYLOAD)
    with open(path, "w") as fh:
        json.dump(["not", "a", "dict"], fh)
    assert cache.get_result(key) is None
    assert not os.path.exists(path)


def test_trace_roundtrip_exact(cache):
    rng = np.random.default_rng(7)
    trace = synthetic_trace(
        n_rays=64, mean_samples_per_ray=6.0, occupancy_fraction=0.4, rng=rng
    )
    key = cache_mod.cache_key("scene-workload", scene="s", fingerprint="fp")
    assert cache.get_trace(key) is None
    cache.put_trace(key, trace.to_arrays())
    loaded = WorkloadTrace.from_arrays(cache.get_trace(key))
    assert loaded.n_rays == trace.n_rays
    assert loaded.n_samples == trace.n_samples
    assert loaded.n_candidates == trace.n_candidates
    assert loaded.pair_durations == trace.pair_durations
    assert np.array_equal(loaded.samples_per_ray, trace.samples_per_ray)
    assert np.array_equal(loaded.vertex_corners, trace.vertex_corners)
    assert np.array_equal(loaded.vertex_indices, trace.vertex_indices)


def test_corrupted_trace_entry_recovers(cache):
    rng = np.random.default_rng(7)
    trace = synthetic_trace(
        n_rays=16, mean_samples_per_ray=4.0, occupancy_fraction=0.4, rng=rng
    )
    key = cache_mod.cache_key("scene-workload", scene="s", fingerprint="fp")
    path = cache.put_trace(key, trace.to_arrays())
    with open(path, "wb") as fh:
        fh.write(b"\x00garbage")
    assert cache.get_trace(key) is None
    assert not os.path.exists(path)


def test_clear_and_stats(cache):
    cache.put_result(engine.result_cache_key("a", True, "fp", None), PAYLOAD)
    rng = np.random.default_rng(0)
    trace = synthetic_trace(
        n_rays=8, mean_samples_per_ray=2.0, occupancy_fraction=0.5, rng=rng
    )
    cache.put_trace(cache_mod.cache_key("t", x=1), trace.to_arrays())
    stats = cache.stats()
    assert stats["results"]["entries"] == 1
    assert stats["traces"]["entries"] == 1
    assert stats["results"]["bytes"] > 0
    assert cache.clear() == 2
    stats = cache.stats()
    assert stats["results"]["entries"] == 0
    assert stats["traces"]["entries"] == 0


def test_active_cache_install_and_remove(cache):
    previous = cache_mod.get_active()
    try:
        cache_mod.activate(cache)
        assert cache_mod.get_active() is cache
        cache_mod.deactivate()
        assert cache_mod.get_active() is None
    finally:
        if previous is not None:
            cache_mod.activate(previous)
        else:
            cache_mod.deactivate()


def test_cache_key_canonical():
    assert cache_mod.cache_key("k", a=1, b=2) == cache_mod.cache_key("k", b=2, a=1)
    assert cache_mod.cache_key("k", a=1) != cache_mod.cache_key("k", a=2)
    assert cache_mod.cache_key("k1", a=1) != cache_mod.cache_key("k2", a=1)


def test_default_cache_root_env(monkeypatch, tmp_path):
    monkeypatch.setenv("FUSION3D_CACHE_DIR", str(tmp_path / "xyz"))
    assert cache_mod.default_cache_root() == str(tmp_path / "xyz")
    assert parallel.ResultCache().root == str(tmp_path / "xyz")


def test_corrupted_entry_recovery_under_concurrent_writers(cache):
    """A reader racing corrupting + repairing writers never sees garbage.

    The cache's contract is "allowed to forget, never to lie": with one
    thread truncating the entry mid-flight and another atomically
    rewriting it, every concurrent read must come back as either a miss
    (None) or a fully valid entry — never a partial/corrupt payload.
    """
    import threading

    key = "f" * 64
    path = cache._result_path(key)
    cache.put_result(key, PAYLOAD)
    stop = threading.Event()
    observed = []

    def corruptor():
        while not stop.is_set():
            try:
                with open(path, "w") as fh:
                    fh.write('{"result": ')  # truncated mid-write
            except OSError:
                pass

    def repairer():
        while not stop.is_set():
            cache.put_result(key, PAYLOAD)

    threads = [
        threading.Thread(target=corruptor),
        threading.Thread(target=repairer),
    ]
    for t in threads:
        t.start()
    try:
        for _ in range(300):
            observed.append(cache.get_result(key))
    finally:
        stop.set()
        for t in threads:
            t.join()
    assert observed  # sanity
    for entry in observed:
        assert entry is None or entry["result"] == PAYLOAD
    # Once the dust settles a clean write is served again.
    cache.put_result(key, PAYLOAD)
    assert cache.get_result(key)["result"] == PAYLOAD
