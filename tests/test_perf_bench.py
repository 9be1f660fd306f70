"""The perf harness: timing primitives, payloads, and the CI gate."""

import json

import numpy as np
import pytest

from repro import perf
from repro.perf.e2e import E2E_BENCHES
from repro.perf.kernels import KERNEL_BENCHES, bench_scatter_add
from repro.perf.timing import PairedTiming, time_callable, time_pair


def _payload(mode="smoke", **speedups):
    benches = {
        name: {"ref_ms": s * 10.0, "opt_ms": 10.0, "speedup": s}
        for name, s in speedups.items()
    }
    return {"schema": 1, "mode": mode, "numpy": np.__version__, "benches": benches}


def test_time_callable_counts_calls():
    calls = []
    elapsed = time_callable(lambda: calls.append(1), repeats=3, warmup=2)
    assert len(calls) == 5
    assert elapsed >= 0.0
    with pytest.raises(ValueError):
        time_callable(lambda: None, repeats=0)


def test_paired_timing_speedup_and_record():
    timing = PairedTiming(ref_s=0.2, opt_s=0.1)
    assert timing.speedup == pytest.approx(2.0)
    record = timing.as_record()
    assert record["ref_ms"] == pytest.approx(200.0)
    assert record["opt_ms"] == pytest.approx(100.0)
    assert record["speedup"] == pytest.approx(2.0)
    assert PairedTiming(ref_s=1.0, opt_s=0.0).speedup == float("inf")


def test_time_pair_runs_both_sides():
    ran = {"ref": 0, "opt": 0}
    timing = time_pair(
        lambda: ran.__setitem__("ref", ran["ref"] + 1),
        lambda: ran.__setitem__("opt", ran["opt"] + 1),
        repeats=2,
        warmup=1,
    )
    assert ran == {"ref": 3, "opt": 3}
    assert timing.ref_s >= 0.0 and timing.opt_s >= 0.0


def test_bench_registries_are_populated():
    assert "hash_fwd_bwd" in KERNEL_BENCHES
    assert "train_iteration" in E2E_BENCHES
    assert not set(KERNEL_BENCHES) & set(E2E_BENCHES)


def test_one_real_kernel_bench_produces_a_record():
    record = bench_scatter_add(smoke=True)
    assert set(record) == {"ref_ms", "opt_ms", "speedup"}
    assert record["ref_ms"] > 0.0 and record["opt_ms"] > 0.0


def test_gate_passes_within_tolerance():
    baseline = perf.merge_into_baseline(_payload(a=2.0, b=3.0))
    current = _payload(a=1.7, b=2.9)  # a dropped 15% < 20% tolerance
    passed, lines = perf.compare_to_baseline(current, baseline)
    assert passed
    assert lines[-1] == "bench: PASS"
    assert sum("PERF OK" in line for line in lines) == 2


def test_gate_fails_on_regression():
    baseline = perf.merge_into_baseline(_payload(a=2.0))
    current = _payload(a=1.5)  # 25% drop > 20% tolerance
    passed, lines = perf.compare_to_baseline(current, baseline)
    assert not passed
    assert lines[-1] == "bench: FAIL"
    assert any("PERF REGRESSION a" in line for line in lines)


def test_gate_skips_benches_not_run_in_this_mode():
    baseline = perf.merge_into_baseline(_payload(a=2.0, b=2.0))
    current = _payload(a=2.0)
    passed, lines = perf.compare_to_baseline(current, baseline)
    assert passed
    assert any("PERF SKIP b" in line for line in lines)


def test_gate_fails_when_baseline_lacks_mode():
    baseline = perf.merge_into_baseline(_payload(mode="full", a=2.0))
    passed, lines = perf.compare_to_baseline(_payload(mode="smoke", a=2.0), baseline)
    assert not passed
    assert lines[-1] == "bench: FAIL"


def test_gate_rejects_bad_tolerance():
    baseline = perf.merge_into_baseline(_payload(a=2.0))
    with pytest.raises(ValueError):
        perf.compare_to_baseline(_payload(a=2.0), baseline, tolerance=1.5)


def test_write_payload_merges_modes(tmp_path):
    path = str(tmp_path / "bench.json")
    perf.write_payload(_payload(mode="full", a=2.0), path)
    perf.write_payload(_payload(mode="smoke", a=2.5), path)
    doc = perf.load_baseline(path)
    assert doc["modes"]["full"]["a"]["speedup"] == 2.0
    assert doc["modes"]["smoke"]["a"]["speedup"] == 2.5


def test_load_baseline_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 99}))
    with pytest.raises(ValueError):
        perf.load_baseline(str(path))


def test_committed_baseline_meets_acceptance_floor():
    """The repo's committed BENCH_nerf.json must record the >=1.5x
    hash fwd+bwd speedup and an end-to-end train-iteration win."""
    doc = perf.load_baseline("BENCH_nerf.json")
    full = doc["modes"]["full"]
    assert full["hash_fwd_bwd"]["speedup"] >= 1.5
    assert full["train_iteration"]["speedup"] > 1.0


def test_runner_bench_check_gates(tmp_path, monkeypatch):
    """`runner bench --check` exits 0/1 off the baseline comparison."""
    from repro.experiments import runner

    fake = _payload(a=2.0)
    monkeypatch.setattr(perf, "run_benches", lambda **kw: fake)
    good = str(tmp_path / "good.json")
    perf.write_payload(_payload(a=2.0), good)
    assert runner.main(["bench", "--check", "--baseline", good, "--quiet"]) == 0
    bad = str(tmp_path / "bad.json")
    perf.write_payload(_payload(a=4.0), bad)
    assert runner.main(["bench", "--check", "--baseline", bad, "--quiet"]) == 1
    assert (
        runner.main(
            ["bench", "--check", "--baseline", str(tmp_path / "none.json"), "--quiet"]
        )
        == 1
    )


def test_runner_bench_out_appends_history(tmp_path, monkeypatch):
    """`runner bench --out FILE` logs the run to the history next to FILE,
    once per revision and bench set."""
    from repro.experiments import runner
    from repro.obs import bench_trends

    monkeypatch.setattr(perf, "run_benches", lambda **kw: _payload(a=2.0))
    monkeypatch.setattr(bench_trends, "git_rev", lambda: "abc1234")
    out = str(tmp_path / "BENCH_nerf.json")
    history = str(tmp_path / bench_trends.DEFAULT_HISTORY)
    assert runner.main(["bench", "--out", out, "--quiet"]) == 0
    (entry,) = bench_trends.load_history(history)
    assert entry["rev"] == "abc1234"
    assert entry["modes"] == {"smoke": {"a": 2.0}}
    assert runner.main(["bench", "--out", out, "--quiet"]) == 0
    assert len(bench_trends.load_history(history)) == 1
    monkeypatch.setattr(bench_trends, "git_rev", lambda: "def5678")
    assert runner.main(["bench", "--out", out, "--quiet"]) == 0
    assert [e["rev"] for e in bench_trends.load_history(history)] == [
        "abc1234",
        "def5678",
    ]
