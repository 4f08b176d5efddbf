"""NDRange execution on a simulated device.

One engine executes an NDRange: the lockstep numpy engine
(:mod:`repro.kernelc.vectorize`), generated from the one lowering of
:mod:`repro.kernelc.compiler`.  Every selected work-item advances
through the kernel simultaneously under active-lane masks.  A kernel the
engine cannot lower fails to build with a diagnostic; there is no second
engine to fall back on.  The per-item engine the same lowering spells
out, and the tree-walking interpreter, are the tests' oracles
(``tests/kernelc/peritem.py``, ``tests/kernelc/interp.py``).

For very large NDRanges the executor supports *sampled* execution: a
deterministic, evenly spread subset of work-groups is executed and the
cost statistics are scaled up by the sampling factor.  Outputs are then
only partially written, so sampling is reserved for timing runs; the
queue layer quarantines sampled buffers (see ``ocl.buffer``) so their
contents can never be read back as results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..kernelc import vectorize
from ..kernelc.compiler import CompiledKernel
from ..kernelc.execmodel import ExecutionCounters
from .ndrange import NDRange


@dataclass
class ExecutionResult:
    counters: ExecutionCounters
    groups_total: int
    groups_executed: int

    @property
    def sampled(self) -> bool:
        return self.groups_executed < self.groups_total


def select_sample_groups(groups: List[tuple], fraction: float) -> List[tuple]:
    """A deterministic, evenly spread subset of work-groups."""
    count = max(1, round(len(groups) * fraction))
    if count >= len(groups):
        return groups
    step = len(groups) / count
    return [groups[min(int(i * step), len(groups) - 1)] for i in range(count)]


def execute_ndrange(
    kernel: CompiledKernel,
    ndrange: NDRange,
    args: Sequence,
    sample_fraction: Optional[float] = None,
    counters: Optional[ExecutionCounters] = None,
    metrics=None,
) -> ExecutionResult:
    """Execute ``kernel`` over ``ndrange``; returns scaled cost counters.

    ``counters`` must be the same object the argument pointers report
    their memory traffic to (the queue wires this up), so that sampled
    execution scales operations and memory traffic consistently.
    ``metrics`` (a registry, or the queue's handles to one) is told how
    the kernel's lockstep plan came to be, the launch it is made on.
    """
    if counters is None:
        counters = ExecutionCounters()
    total = ndrange.total_groups
    selected = None  # every group
    if sample_fraction is not None and 0 < sample_fraction < 1:
        groups = list(ndrange.group_ids())
        selected = select_sample_groups(groups, sample_fraction)
        if selected is groups:
            selected = None
    executed = total if selected is None else len(selected)
    plan = vectorize.plan_for(kernel, metrics)
    vectorize.execute(kernel, plan, ndrange, selected, args, counters, metrics)
    if executed < total:
        counters = counters.scaled(total / executed)
    return ExecutionResult(counters, total, executed)
