"""Analytic device timing model.

Kernel time follows a roofline-style model over the statistics counted
during (simulated) execution:

``time = launch_overhead + max(compute_time, global_memory_time) + local_memory_time``

* ``compute_time``  — executed operations over peak throughput
  (``PEs × clock × ipc × efficiency``), corrected for partially filled
  work-groups (a 16-wide group on a 32-wide SIMD wastes half the lanes).
* ``global_memory_time`` — a bandwidth term (bytes over peak bandwidth)
  plus a latency term: each access pays ``latency / latency_hiding``,
  which is what makes many small uncoalesced accesses (the AMD Sobel
  kernel) slower than staging through local memory (NVIDIA/SkelCL).
* ``local_memory_time`` — local traffic over local bandwidth.

Host↔device transfers pay PCIe latency plus bytes over PCIe bandwidth; a
device-local copy reads and writes its bytes at global-memory bandwidth.

All results are in integer nanoseconds so event timestamps are exact and
reproducible.
"""

from __future__ import annotations

from ..kernelc.execmodel import ExecutionCounters
from .spec import DeviceSpec


def compute_time_ns(spec: DeviceSpec, ops: int, simd_utilization: float = 1.0) -> float:
    ops_per_ns = spec.processing_elements * spec.clock_ghz * spec.ipc * spec.efficiency
    utilization = max(min(simd_utilization, 1.0), 1e-3)
    return ops / (ops_per_ns * utilization)


def global_memory_time_ns(spec: DeviceSpec, accesses: int, nbytes: int) -> float:
    bandwidth_bytes_per_ns = spec.global_bandwidth_gbs  # GB/s == bytes/ns
    bandwidth_term = nbytes / bandwidth_bytes_per_ns
    latency_term = accesses * spec.global_latency_ns / spec.latency_hiding
    return bandwidth_term + latency_term


def local_memory_time_ns(spec: DeviceSpec, nbytes: int) -> float:
    return nbytes / spec.local_bandwidth_gbs


def kernel_time_ns(
    spec: DeviceSpec,
    counters: ExecutionCounters,
    simd_utilization: float = 1.0,
) -> int:
    """Simulated duration of one kernel execution.

    When the engine provides divergence-adjusted ``warp_ops`` they are
    used directly (they already include partial-warp and divergence
    effects); otherwise raw ops are corrected by ``simd_utilization``.
    """
    if counters.warp_ops > 0:
        compute = compute_time_ns(spec, counters.warp_ops, 1.0)
    else:
        compute = compute_time_ns(spec, counters.ops, simd_utilization)
    global_mem = global_memory_time_ns(
        spec,
        counters.memory.global_loads + counters.memory.global_stores,
        counters.memory.global_bytes,
    )
    local_mem = local_memory_time_ns(spec, counters.memory.local_bytes)
    overhead = spec.launch_overhead_us * 1000.0
    return int(overhead + max(compute, global_mem) + local_mem)


def transfer_time_ns(spec: DeviceSpec, nbytes: int) -> int:
    """Simulated duration of a host↔device copy of ``nbytes``."""
    if nbytes <= 0:
        return int(spec.pcie_latency_us * 1000.0)
    return int(spec.pcie_latency_us * 1000.0 + nbytes / spec.pcie_bandwidth_gbs)


def copy_time_ns(spec: DeviceSpec, nbytes: int) -> int:
    """Simulated duration of a device-local copy of ``nbytes``: read and
    written at global-memory bandwidth, plus 1 us of overhead."""
    return int(2 * nbytes / spec.global_bandwidth_gbs + 1000)


def simd_utilization(local_size: int, simd_width: int = 32) -> float:
    """Fraction of SIMD lanes a work-group of ``local_size`` items fills."""
    if local_size <= 0:
        return 1.0
    full_warps, remainder = divmod(local_size, simd_width)
    lanes = full_warps * simd_width + remainder
    warps = full_warps + (1 if remainder else 0)
    return lanes / (warps * simd_width)
