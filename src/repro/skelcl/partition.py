"""First-class partitions: weighted device splits and adaptive sizing.

SkelCL's original evaluation ran on a homogeneous Tesla S1070, so every
distribution split containers into near-equal chunks.  Real multi-device
systems are skewed — a CPU and a GPU in one pool differ by integer
factors — and compound computations want throughput-proportional splits
(see "Execution of Compound Multi-Kernel OpenCL Computations in
Multi-CPU/Multi-GPU Environments" and EngineCL in PAPERS.md).

This module is deliberately dependency-free within the package so the
distribution layer can build on it without cycles:

* :class:`Partition` — an immutable per-device weight vector that turns
  a container length into contiguous integer ranges (largest-remainder
  apportionment; zero-length ranges are legal).  ``Partition.even(n)``
  is the historic equal split: the first ``size % n`` devices get one
  extra element.
* :func:`modeled_throughput` — peak compute rate of a
  :class:`~repro.ocl.spec.DeviceSpec` in ops/ns, the prior used to seed
  proportional splits.
* :class:`AdaptivePartitioner` — the feedback loop: reads per-device
  ``skelcl_kernel_ns_total`` counters from the session's SkelScope
  metrics registry after each flush and re-partitions when the measured
  imbalance exceeds a threshold.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

#: Re-partition when max/mean measured kernel time across participating
#: devices exceeds ``1 + REBALANCE_THRESHOLD``.
REBALANCE_THRESHOLD = 0.10

#: Weights are quantized to this resolution before comparison so the
#: feedback loop reaches a fixed point instead of oscillating on noise.
WEIGHT_QUANTUM = 1e-4


@dataclass(frozen=True)
class Partition:
    """An immutable per-device weight vector.

    ``weights[i]`` is device *i*'s share of any container split with
    this partition; weights need not be normalized.  Zero weights are
    legal and yield zero-length ranges (the device holds no data and —
    because the runtime skips no-op commands — enqueues nothing).
    """

    weights: Tuple[float, ...]

    def __post_init__(self):
        if not self.weights:
            raise ValueError("a partition needs at least one device weight")
        if any(w < 0 for w in self.weights):
            raise ValueError(f"partition weights must be non-negative: {self.weights}")
        if not any(w > 0 for w in self.weights):
            raise ValueError("at least one partition weight must be positive")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def even(num_devices: int) -> "Partition":
        """The historic equal split: the first ``size % num_devices``
        ranges get one extra element."""
        if num_devices <= 0:
            raise ValueError("need at least one device")
        return Partition((1.0,) * num_devices)

    @staticmethod
    def of(*weights: float) -> "Partition":
        return Partition(tuple(float(w) for w in weights))

    @staticmethod
    def proportional(values: Sequence[float]) -> "Partition":
        """A partition proportional to ``values`` (e.g. device throughputs)."""
        return Partition(tuple(float(v) for v in values))

    @staticmethod
    def from_specs(specs: Sequence) -> "Partition":
        """Seed partition proportional to each spec's modeled peak
        throughput (see :func:`modeled_throughput`)."""
        return Partition.proportional([modeled_throughput(s) for s in specs])

    # -- derived views ---------------------------------------------------

    @property
    def num_devices(self) -> int:
        return len(self.weights)

    def normalized(self) -> Tuple[float, ...]:
        total = sum(self.weights)
        return tuple(w / total for w in self.weights)

    def share(self, device_index: int) -> float:
        return self.normalized()[device_index]

    # -- apportionment ---------------------------------------------------

    def counts(self, size: int) -> List[int]:
        """Apportion ``size`` units over the devices by largest
        remainder: every device gets ``floor(share * size)``, and the
        leftover units go to the largest fractional remainders (ties
        broken by device index).  For even weights this reproduces the
        historic split exactly — the first ``size % n`` devices get one
        extra unit."""
        return [end - start for start, end in self.ranges(size)]

    def ranges(self, size: int) -> List[Tuple[int, int]]:
        """Contiguous ``[start, end)`` ranges covering ``0..size``, one
        per device, sized by :meth:`counts`.  Zero-length ranges are
        produced for zero weights (or when devices outnumber units).
        Computed once per (weights, size): every staging asks."""
        return list(_ranges(self.weights, size))

    def quantized(self) -> "Partition":
        """Normalized weights rounded to ``WEIGHT_QUANTUM`` — the
        canonical form the adaptive loop compares for convergence."""
        digits = max(0, round(-math.log10(WEIGHT_QUANTUM)))
        return Partition(tuple(round(w, digits) for w in self.normalized()))

    def __repr__(self) -> str:
        shares = ", ".join(f"{w:.3f}" for w in self.normalized())
        return f"Partition([{shares}])"


@functools.lru_cache(maxsize=1024)
def _ranges(weights: Tuple[float, ...], size: int) -> Tuple[Tuple[int, int], ...]:
    """:meth:`Partition.ranges` of a partition of ``weights``."""
    if size < 0:
        raise ValueError(f"cannot partition a negative size ({size})")
    total = sum(weights)
    exact = [w / total * size for w in weights]
    counts = [int(math.floor(x)) for x in exact]
    remainder = size - sum(counts)
    order = sorted(range(len(counts)), key=lambda i: (-(exact[i] - counts[i]), i))
    for index in order[:remainder]:
        counts[index] += 1
    ends = list(itertools.accumulate(counts))
    return tuple(zip([0, *ends[:-1]], ends))


def modeled_throughput(spec) -> float:
    """Modeled peak compute rate of a device spec in ops/ns.

    Deliberately simple — processing elements × clock × IPC ×
    efficiency, the leading term of the analytic kernel-time model in
    :mod:`repro.ocl.timing`.  It ignores memory bandwidth and launch
    overhead; the adaptive feedback loop corrects for whatever the
    prior gets wrong.
    """
    return (
        spec.processing_elements * spec.clock_ghz * spec.ipc * spec.efficiency
    )


class AdaptivePartitioner:
    """Closed-loop partition sizing from measured per-device kernel time.

    The partitioner starts from a seed split (proportional to modeled
    peak throughput by default, or even/explicit), then after each
    flush reads the per-device ``skelcl_kernel_ns_total`` counters the
    queues maintain at enqueue time.  If the measured imbalance —
    ``max(t_i) / mean(t_i)`` over devices that held data — exceeds
    ``1 + threshold``, it re-sizes every weight proportional to the
    device's *measured* throughput ``w_i / t_i`` (units per nanosecond;
    the container size cancels, so no knowledge of the workload is
    needed).  Devices that held no data, or produced no signal, fall
    back to modeled throughput rescaled by the fleet's mean
    measured-to-modeled ratio, so a starved device can re-enter the
    pool.

    The new partition only takes effect on the *next* skeleton call:
    containers still distributed with the old split redistribute
    through the existing command-graph machinery (download + re-upload
    with full RAW/WAR ordering), so adaptation is race-free by
    construction.
    """

    def __init__(self, session, initial="throughput",
                 threshold: float = REBALANCE_THRESHOLD):
        self.session = session
        self.threshold = threshold
        self.modeled = [modeled_throughput(spec) for spec in session.specs]
        if isinstance(initial, Partition):
            seed = initial
        elif initial == "even":
            seed = Partition.even(session.num_devices)
        elif initial == "throughput":
            seed = Partition.proportional(self.modeled)
        else:
            raise ValueError(
                f"unknown initial partition policy {initial!r} "
                "(expected 'throughput', 'even', or a Partition)"
            )
        if seed.num_devices != session.num_devices:
            raise ValueError(
                f"partition has {seed.num_devices} weights for "
                f"{session.num_devices} device(s)"
            )
        self._partition = seed.quantized()
        self.repartitions = 0
        self.last_imbalance = 1.0
        self.history: List[Partition] = [self._partition]
        self._last_totals = [0.0] * session.num_devices

    @property
    def partition(self) -> Partition:
        return self._partition

    # -- the feedback loop ----------------------------------------------

    def _kernel_ns_totals(self) -> List[float]:
        metrics = self.session.metrics
        return [
            float(metrics.value("skelcl_kernel_ns_total", device=index))
            for index in range(self.session.num_devices)
        ]

    def observe(self, force: bool = False) -> bool:
        """Ingest the kernel time enqueued since the last observation
        and re-partition if the imbalance warrants it.  Returns True
        when the partition changed.  ``force`` re-sizes even below the
        imbalance threshold (used by ``session.rebalance()``)."""
        totals = self._kernel_ns_totals()
        deltas = [now - before for now, before in zip(totals, self._last_totals)]
        if any(delta < 0 for delta in deltas):
            # The registry was reset since we last looked; re-baseline.
            deltas = totals
        self._last_totals = totals

        weights = self._partition.normalized()
        active = [
            (w, t) for w, t in zip(weights, deltas) if w > 0 and t > 0
        ]
        metrics = self.session.metrics
        if not active:
            return False
        times = [t for _w, t in active]
        mean_ns = sum(times) / len(times)
        imbalance = max(times) / mean_ns if mean_ns else 1.0
        self.last_imbalance = imbalance
        metrics.gauge("skelcl_partition_imbalance").set(round(imbalance, 6))
        for index, share in enumerate(weights):
            metrics.gauge("skelcl_partition_share", device=index).set(round(share, 6))
        if not force and imbalance <= 1.0 + self.threshold:
            return False

        # Measured throughput in units/ns, up to the (irrelevant) common
        # container-size factor; fill gaps with the rescaled model.
        measured = [
            w / t if (w > 0 and t > 0) else None
            for w, t in zip(weights, deltas)
        ]
        ratios = [
            m / modeled
            for m, modeled in zip(measured, self.modeled)
            if m is not None and modeled > 0
        ]
        scale = sum(ratios) / len(ratios) if ratios else 1.0
        filled = [
            m if m is not None else modeled * scale
            for m, modeled in zip(measured, self.modeled)
        ]
        candidate = Partition.proportional(filled).quantized()
        if candidate == self._partition:
            return False
        self._partition = candidate
        self.repartitions += 1
        self.history.append(candidate)
        metrics.counter("skelcl_repartition_total").inc()
        for index, share in enumerate(candidate.normalized()):
            metrics.gauge("skelcl_partition_share", device=index).set(round(share, 6))
        return True
