"""Percentiles, run-to-run spread, and the host-speed correction.

The sandbox this benchmark runs in is a small virtual machine whose
effective CPU speed shifts by 20-40 % for seconds to minutes at a time
(neighbours on the same cores): a pure-Python loop of fixed work was
measured at 15.5, 18.1 and 23.0 ms within a few minutes.  CPU time
inflates with wall time, so it is not descheduling that could be
subtracted.  Uncorrected, ten identical 15 s runs of ``dispatch_small``
spread (IQR / median) by 17 % in throughput and 25 % in p90 — no
regression bound below that could be enforced.

So every run interleaves a fixed *calibration* kernel with its steps
(``calibrate``, ~0.45 ms before each step, outside the timed region),
cuts the run into ``SEGMENTS`` consecutive parts, and divides each
part's host times by that part's speed factor: its median calibration
time over ``REFERENCE_CALIBRATION_S``.  Host metrics are therefore
"seconds at reference speed"; on a quiet box the factor is ~1.0 and
they equal wall time.  The factor is reported as ``host_speed`` next to
the corrected numbers.  The same ten runs then spread by ~4 %.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Dict, List, Sequence

import numpy as np

#: What ``calibrate`` takes on this repo's reference box when it is quiet.
REFERENCE_CALIBRATION_S = 0.00045
#: Parts a run is cut into; each gets its own speed factor.
SEGMENTS = 10

_A = np.arange(1024, dtype=np.float64)
_B = _A + 1.0
_C = np.empty_like(_A)


class _Node:
    __slots__ = ("key", "payload")

    def __init__(self, key, payload):
        self.key = key
        self.payload = payload


def calibrate() -> float:
    """Seconds taken by a fixed mix of the three things the simulator's
    host time is made of: bytecode, small-array NumPy calls, and object
    allocation with attribute and dictionary traffic.  Of the mixes
    tried (also: large-array NumPy, pickling) this one left the least
    run-to-run spread on every workload."""
    started = time.perf_counter()
    total = 0
    for i in range(4000):
        total += i * i
    for _ in range(60):
        np.multiply(_A, _B, out=_C)
        np.add(_C, _A, out=_C)
    nodes = [_Node(i, (i, str(i))) for i in range(400)]
    index = {node.key: node for node in nodes}
    total += sum(node.payload[0] for node in index.values())
    return time.perf_counter() - started


def speed_factors(calibrations: Sequence[float], segments: int = SEGMENTS,
                  reference: float = REFERENCE_CALIBRATION_S) -> List[float]:
    """One factor per step (``calibrations[i]`` was taken just before
    step ``i``): the median calibration time of the step's segment over
    the reference.  Above 1 means the host was slower than reference."""
    count = len(calibrations)
    segments = max(1, min(segments, count))
    factors: List[float] = []
    for part in range(segments):
        chunk = calibrations[part * count // segments:(part + 1) * count // segments]
        factors.extend([statistics.median(chunk) / reference] * len(chunk))
    return factors


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``q`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_summary(latencies_s: Sequence[float]) -> Dict[str, float]:
    """Median and p90 in milliseconds with the sample count.  p90 is the
    highest percentile reported: it needs >= 100 samples to leave ten
    beyond it, which is what the workloads are sized for."""
    return {
        "samples": len(latencies_s),
        "p50_ms": percentile(latencies_s, 50) * 1e3,
        "p90_ms": percentile(latencies_s, 90) * 1e3,
        "beyond_p90": len(latencies_s) - math.ceil(0.9 * len(latencies_s)),
    }


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median — the steadiness
    figure the benchmark contract bounds."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
