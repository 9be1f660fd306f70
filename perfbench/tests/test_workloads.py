"""Exact per-layer figures the workloads derive from their outputs."""

import pytest

from workloads import _latency_over_target


def test_latency_over_target_pools_classes_by_their_targets():
    # Three classes with different targets: every request at half its target.
    latencies = [0.005, 0.02, 0.1] * 10
    targets = [0.01, 0.04, 0.2] * 10
    shares = _latency_over_target(latencies, targets)
    assert shares["serve.latency_p50_over_target"] == pytest.approx(0.5)
    assert shares["serve.latency_tail_over_target"] == pytest.approx(0.5)


def test_latency_tail_keeps_ten_samples_beyond():
    # 100 requests: the p90 has ten beyond it, the p95 only five.
    latencies = [float(i) for i in range(1, 101)]
    shares = _latency_over_target(latencies, [100.0] * 100)
    assert shares["serve.latency_tail_over_target"] == pytest.approx(0.901)


def test_latency_tail_falls_back_to_the_median_on_few_requests():
    shares = _latency_over_target([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
    assert shares["serve.latency_tail_over_target"] == shares["serve.latency_p50_over_target"] == 2.0


def test_no_completed_requests_gives_no_rows():
    assert _latency_over_target([], []) == {}
