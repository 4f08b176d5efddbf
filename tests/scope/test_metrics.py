"""SkelScope metrics registry: primitives, runtime counters, reset."""

from __future__ import annotations

import numpy as np
import pytest

import repro.skelcl as skelcl
from repro.scope import MetricsRegistry, derive_timeline_metrics


def test_counter_gauge_histogram_primitives():
    registry = MetricsRegistry()
    registry.counter("requests_total", route="a").inc()
    registry.counter("requests_total", route="a").inc(2)
    registry.counter("requests_total", route="b").inc()
    registry.gauge("depth").set(7)
    histogram = registry.histogram("latency_ns")
    for value in (10, 20, 30):
        histogram.observe(value)

    assert registry.value("requests_total", route="a") == 3
    assert registry.value("requests_total", route="b") == 1
    assert registry.value("depth") == 7
    snapshot = registry.snapshot()
    hist = snapshot["histograms"]["latency_ns"]["_"]
    assert hist["count"] == 3
    assert hist["sum"] == 60
    assert hist["min"] == 10 and hist["max"] == 30


def test_snapshot_roundtrips_to_json():
    import json

    registry = MetricsRegistry()
    registry.counter("c", k="v").inc(5)
    registry.gauge("g").set(1.5)
    registry.histogram("h").observe(2)
    assert json.loads(registry.to_json()) == registry.snapshot()


def test_runtime_populates_command_and_transfer_counters(runtime_2gpu):
    neg = skelcl.Map("float func(float x) { return -x; }")
    vector = skelcl.Vector(data=np.ones(512, dtype=np.float32))
    neg(vector).to_numpy()
    runtime_2gpu.finish_all()

    metrics = runtime_2gpu.context.metrics
    assert metrics.value("skelcl_commands_total", kind="ndrange_kernel") == 2
    # upload crosses PCIe once per device chunk, download comes back once.
    nbytes = 512 * 4
    assert metrics.value("skelcl_transfer_bytes_total", link="pcie", direction="h2d") == nbytes
    assert metrics.value("skelcl_transfer_bytes_total", link="pcie", direction="d2h") == nbytes
    assert metrics.value("skelcl_work_items_total") >= 512


def test_build_cache_metrics(runtime_1gpu, tmp_path, monkeypatch):
    # Pin the persistent cache to an empty directory so the first build
    # is deterministically a cold compile, not an on-disk hit.
    monkeypatch.setenv("SKELCL_DIR", str(tmp_path))
    metrics = runtime_1gpu.context.metrics
    # A source no other test uses: the process-wide build cache must
    # miss the first time and hit the second.
    source = "float func(float x) { return x * 31.4159f; }"
    vector = skelcl.Vector(data=np.ones(64, dtype=np.float32))
    skelcl.Map(source)(vector)
    runtime_1gpu.finish_all()  # raw build counters below: no SkelCL-level read
    compiled = metrics.value("skelcl_program_builds_total", result="compiled")
    assert compiled >= 1
    skelcl.Map(source)(vector)
    runtime_1gpu.finish_all()
    assert metrics.value("skelcl_program_builds_total", result="memory") >= 1
    assert metrics.value("skelcl_program_builds_total", result="compiled") == compiled


def test_reset_timelines_clears_metrics_and_byte_counters(runtime_2gpu):
    """Regression: reset_timelines() used to leave the transfer/PCIe byte
    counters and the metrics registry accumulating across iterations."""
    neg = skelcl.Map("float func(float x) { return -x; }")
    vector = skelcl.Vector(data=np.ones(256, dtype=np.float32))
    neg(vector).to_numpy()
    runtime_2gpu.finish_all()

    context = runtime_2gpu.context
    assert context.metrics.value("skelcl_commands_total", kind="ndrange_kernel") > 0
    assert any(queue.total_pcie_bytes > 0 for queue in context.queues)
    assert any(queue.total_transfer_bytes > 0 for queue in context.queues)

    context.reset_timelines()

    assert context.metrics.value("skelcl_commands_total", kind="ndrange_kernel") == 0
    assert context.metrics.value("skelcl_transfer_bytes_total",
                                 link="pcie", direction="h2d") == 0
    for queue in context.queues:
        assert queue.total_transfer_bytes == 0
        assert queue.total_pcie_bytes == 0
        assert queue.total_kernel_ns == 0
        assert not queue.events

    # The registry still works after the reset.
    fresh = skelcl.Vector(data=np.ones(256, dtype=np.float32))
    neg(fresh)
    runtime_2gpu.finish_all()
    assert context.metrics.value("skelcl_commands_total", kind="ndrange_kernel") == 2


def test_derive_timeline_metrics_gauges(runtime_2gpu):
    neg = skelcl.Map("float func(float x) { return -x; }")
    vector = skelcl.Vector(data=np.ones(1024, dtype=np.float32))
    neg(vector, label="neg-pass")
    elapsed = runtime_2gpu.finish_all()

    registry = derive_timeline_metrics(runtime_2gpu.context)
    assert registry.value("skelcl_critical_path_ns") == elapsed
    busy = registry.value("skelcl_engine_busy_ns", device="0", engine="compute")
    idle = registry.value("skelcl_engine_idle_ns", device="0", engine="compute")
    assert busy > 0
    assert idle >= 0
    assert busy + idle <= elapsed
    assert registry.value("skelcl_kernel_ns_by_skeleton", skeleton="neg-pass") > 0


def test_render_table_lists_metrics():
    registry = MetricsRegistry()
    registry.counter("skelcl_commands_total", kind="ndrange_kernel").inc(3)
    table = registry.render_table()
    assert "skelcl_commands_total" in table
    assert "ndrange_kernel" in table
