"""Timing model unit tests: the analytic properties the experiments rely on."""

import pytest

from repro.kernelc.execmodel import ExecutionCounters
from repro.ocl import DeviceSpec, TESLA_T10, kernel_time_ns, transfer_time_ns
from repro.ocl.timing import (
    compute_time_ns,
    copy_time_ns,
    global_memory_time_ns,
    local_memory_time_ns,
    simd_utilization,
)


def counters(ops=0, gloads=0, gstores=0, gbytes=0, lloads=0, lstores=0, lbytes=0):
    c = ExecutionCounters()
    c.ops = ops
    c.memory.global_loads = gloads
    c.memory.global_stores = gstores
    c.memory.global_bytes = gbytes
    c.memory.local_loads = lloads
    c.memory.local_stores = lstores
    c.memory.local_bytes = lbytes
    return c


class TestComputeTime:
    def test_scales_linearly_with_ops(self):
        spec = TESLA_T10
        assert compute_time_ns(spec, 2_000_000) == pytest.approx(2 * compute_time_ns(spec, 1_000_000))

    def test_scales_inversely_with_cores(self):
        slow = DeviceSpec(name="slow", processing_elements=100, clock_ghz=1.0)
        fast = DeviceSpec(name="fast", processing_elements=200, clock_ghz=1.0)
        assert compute_time_ns(slow, 10**6) == pytest.approx(2 * compute_time_ns(fast, 10**6))

    def test_efficiency_factor_speeds_up(self):
        base = DeviceSpec(name="base", efficiency=1.0)
        tuned = base.with_(efficiency=1.3)
        assert compute_time_ns(base, 10**6) == pytest.approx(1.3 * compute_time_ns(tuned, 10**6))

    def test_partial_simd_utilization_slows_down(self):
        spec = TESLA_T10
        full = compute_time_ns(spec, 10**6, simd_utilization=1.0)
        half = compute_time_ns(spec, 10**6, simd_utilization=0.5)
        assert half == pytest.approx(2 * full)


class TestMemoryTime:
    def test_bandwidth_term(self):
        spec = DeviceSpec(name="d", global_bandwidth_gbs=100.0, global_latency_ns=0.0)
        assert global_memory_time_ns(spec, 0, 100_000) == pytest.approx(1000.0)

    def test_latency_term_dominates_many_small_accesses(self):
        spec = DeviceSpec(name="d", global_bandwidth_gbs=100.0,
                          global_latency_ns=400.0, latency_hiding=40.0)
        # 1M accesses of 1 byte: bandwidth term 10us, latency term 10ms.
        time = global_memory_time_ns(spec, 1_000_000, 1_000_000)
        assert time > 9_000_000

    def test_local_memory_much_cheaper_than_global(self):
        spec = TESLA_T10
        nbytes = 10**6
        assert local_memory_time_ns(spec, nbytes) < global_memory_time_ns(spec, nbytes // 4, nbytes)


class TestKernelTime:
    def test_roofline_takes_max(self):
        spec = DeviceSpec(name="d", launch_overhead_us=0.0, processing_elements=1,
                          clock_ghz=1.0, global_bandwidth_gbs=1.0, global_latency_ns=0.0)
        compute_bound = kernel_time_ns(spec, counters(ops=10**6, gbytes=10))
        memory_bound = kernel_time_ns(spec, counters(ops=10, gbytes=10**7))
        assert compute_bound == pytest.approx(10**6, rel=0.01)
        assert memory_bound == pytest.approx(10**7, rel=0.01)

    def test_launch_overhead_is_floor(self):
        spec = TESLA_T10
        assert kernel_time_ns(spec, counters()) >= spec.launch_overhead_us * 1000

    def test_result_is_deterministic_integer(self):
        c = counters(ops=12345, gloads=10, gbytes=4000)
        assert kernel_time_ns(TESLA_T10, c) == kernel_time_ns(TESLA_T10, c)
        assert isinstance(kernel_time_ns(TESLA_T10, c), int)


class TestTransfers:
    def test_transfer_latency_floor(self):
        assert transfer_time_ns(TESLA_T10, 0) == int(TESLA_T10.pcie_latency_us * 1000)

    def test_transfer_scales_with_bytes(self):
        small = transfer_time_ns(TESLA_T10, 1 << 20)
        large = transfer_time_ns(TESLA_T10, 4 << 20)
        assert large > small * 2

    def test_device_copy_reads_and_writes_at_global_bandwidth(self):
        nbytes = 3 << 20
        assert copy_time_ns(TESLA_T10, nbytes) == \
            int(2 * nbytes / TESLA_T10.global_bandwidth_gbs + 1000)
        assert copy_time_ns(TESLA_T10, 0) == 1000
        assert copy_time_ns(TESLA_T10, nbytes) < transfer_time_ns(TESLA_T10, nbytes)


class TestSimdUtilization:
    def test_full_warps(self):
        assert simd_utilization(256, 32) == 1.0

    def test_partial_warp(self):
        assert simd_utilization(16, 32) == 0.5

    def test_mixed(self):
        # 48 items = 1 full warp + half warp -> 48/64
        assert simd_utilization(48, 32) == pytest.approx(0.75)

    def test_degenerate(self):
        assert simd_utilization(0) == 1.0
