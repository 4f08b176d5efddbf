"""NDRange execution on a simulated device.

Two engines execute an NDRange, both generated from the one lowering of
:mod:`repro.kernelc.compiler`:

``vector`` (the default)
    The lockstep numpy engine (:mod:`repro.kernelc.vectorize`): every
    selected work-item advances through the kernel simultaneously under
    active-lane masks.  Kernels using constructs with no lockstep
    lowering fall back transparently to the per-item engine.

``interp``
    The per-item compiled engine (:mod:`repro.kernelc.compiler`), whose
    module a program generates at its first per-item launch: every
    work-item runs the kernel's generated Python function to completion
    (or, for ``barrier()`` kernels, phase-by-phase as a generator with
    divergence detection).  The name is historical: the tree-walking
    interpreter lives with the tests (``tests/kernelc/interp.py``), their
    oracle, and no launch runs on it.

Both engines produce bit-identical buffers and identical
``ExecutionCounters``; ``tests/kernelc/test_vectorize_differential.py``
enforces this.  Select with the ``backend=`` argument (plumbed through
``Context``) or the ``SKELCL_BACKEND`` environment variable.

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

from .. import settings
from ..kernelc import vectorize
from ..kernelc.compiler import CompiledKernel
from ..kernelc.execmodel import (WARP_SIZE, ExecutionCounters, WorkItemContext,
                                 allocate_local_memory)
from ..kernelc.memory import KernelFault
from .errors import InvalidValue
from .ndrange import NDRange

BACKENDS = settings._BACKENDS  # the one tuple: the settings chain validates against it
DEFAULT_BACKEND = "vector"


def resolve_backend(backend: Optional[str]) -> str:
    """Normalize a backend selection (None defers to the configuration
    chain: ``skelcl.configure(backend=...)``, then ``SKELCL_BACKEND``,
    then the default), validated by :mod:`repro.settings`."""
    try:
        return settings.get("backend", backend)
    except ValueError as exc:
        raise InvalidValue(str(exc)) from None


@dataclass
class ExecutionResult:
    counters: ExecutionCounters
    groups_total: int
    groups_executed: int
    backend: str = "interp"  # the engine that ran the launch
    fallback_reason: Optional[str] = None  # why a vector launch ran per-item

    @property
    def sampled(self) -> bool:
        return self.groups_executed < self.groups_total

    @property
    def scale(self) -> float:
        return self.groups_total / max(self.groups_executed, 1)


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
    backend: Optional[str] = None,
    metrics=None,
) -> ExecutionResult:
    """Execute ``kernel`` over ``ndrange``; returns scaled cost counters.

    ``counters`` must be the same object the argument pointers report
    their memory traffic to (the queue wires this up), so that sampled
    execution scales operations and memory traffic consistently.
    ``metrics`` (a registry, or the queue's handles to one) is told how
    the kernel's lockstep plan or per-item module came to be, the launch
    it is made on.
    """
    if counters is None:
        counters = ExecutionCounters()
    backend = resolve_backend(backend)
    total = ndrange.total_groups
    selected = None  # every group
    if sample_fraction is not None and 0 < sample_fraction < 1:
        groups = list(ndrange.group_ids())
        selected = select_sample_groups(groups, sample_fraction)
        if selected is groups:
            selected = None
    executed = total if selected is None else len(selected)

    fallback_reason = None
    if backend == "vector":
        plan = vectorize.plan_for(kernel, metrics)
        if plan is not None:
            vectorize.execute(kernel, plan, ndrange, selected, args, counters, metrics)
            if executed < total:
                counters = counters.scaled(total / executed)
            return ExecutionResult(counters, total, executed, "vector")
        # Unsupported construct: fall through to the per-item path.
        fallback_reason = vectorize.reject_reason(kernel)

    if selected is None:
        selected = list(ndrange.group_ids())
    local_ids = list(ndrange.local_ids())
    local_size = ndrange.local_size
    global_size = ndrange.global_size
    func = kernel.per_item(metrics)
    has_locals = bool(kernel.local_decls)

    for group in selected:
        if has_locals:
            storage = allocate_local_memory(kernel.definition, counters)
            lmem = [storage[id(decl)] for decl in kernel.local_decls]
        else:
            lmem = ()
        base = tuple(g * l for g, l in zip(group, local_size))
        contexts = [
            WorkItemContext(
                tuple(b + l for b, l in zip(base, local_id)),
                local_id,
                group,
                global_size,
                local_size,
            )
            for local_id in local_ids
        ]
        if kernel.uses_barrier:
            _run_group_with_barriers(func, counters, contexts, lmem, args)
        else:
            # Warp-divergence accounting: a 32-lane warp runs as long as
            # its slowest lane.  Work-items enumerate in local linear
            # order (dimension 0 fastest), matching hardware warp packing.
            warp_max = 0
            lane = 0
            before = counters.ops
            for ctx in contexts:
                func(counters, ctx, lmem, *args)
                item_ops = counters.ops - before
                before = counters.ops
                if item_ops > warp_max:
                    warp_max = item_ops
                lane += 1
                if lane == WARP_SIZE:
                    counters.warp_ops += warp_max * WARP_SIZE
                    warp_max = 0
                    lane = 0
            if lane:
                counters.warp_ops += warp_max * WARP_SIZE

    if executed < total:
        counters = counters.scaled(total / executed)
    return ExecutionResult(counters, total, executed, fallback_reason=fallback_reason)


def _run_group_with_barriers(func, counters, contexts, lmem, args) -> None:
    generators = [func(counters, ctx, lmem, *args) for ctx in contexts]
    alive = generators
    while alive:
        yielded: List = []
        finished = 0
        for generator in alive:
            try:
                next(generator)
                yielded.append(generator)
            except StopIteration:
                finished += 1
        if yielded and finished:
            raise KernelFault(
                "barrier divergence: some work-items of a group reached a "
                "barrier other items skipped"
            )
        alive = yielded
