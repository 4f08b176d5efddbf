"""The per-item engine: the oracle the lockstep engine is held against
(``from tests.kernelc import peritem``).

:meth:`repro.kernelc.compiler._ProgramCompiler.lower` writes a program
as a per-item module — one Python function per C function, a generator
yielding at each ``barrier()`` for a kernel that calls it.  This module
compiles that module once per program and runs it one work-item at a
time (:func:`run_groups`, which drives the tests' interpreter too).
Buffers and every ``ExecutionCounters`` field must come out equal to the
lockstep engine's.

:func:`execute_ndrange` takes what :func:`repro.ocl.executor.execute_ndrange`
takes, so a test routes every launch of a session through it with
``monkeypatch.setattr(repro.ocl.queue, "execute_ndrange",
peritem.execute_ndrange)``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.kernelc.compiler import CompiledKernel, CompiledProgram, _ProgramCompiler
from repro.kernelc.execmodel import (WARP_SIZE, ExecutionCounters, WorkItemContext,
                                     allocate_local_memory)
from repro.kernelc.memory import KernelFault
from repro.ocl.executor import ExecutionResult, select_sample_groups
from repro.ocl.ndrange import NDRange


def source(program) -> str:
    """The per-item module of a checked program, as Python text."""
    return _ProgramCompiler(program).lower()


def functions(compiled: CompiledProgram) -> Dict[str, Callable]:
    """The per-item module's functions by C name, compiled at the first
    call for a program and kept on it."""
    found = compiled.__dict__.get("_per_item")
    if found is None:
        pc = _ProgramCompiler(compiled.program)
        module = pc.module(pc.lower(), "<kernelc-per-item>")
        namespace = _ProgramCompiler(compiled.program, module).namespace()
        exec(module.code, namespace)  # noqa: S102
        found = compiled._per_item = namespace["_FUNCTIONS"]
    return found


def execute_ndrange(kernel: CompiledKernel, ndrange: NDRange, args: Sequence,
                    sample_fraction: Optional[float] = None,
                    counters: Optional[ExecutionCounters] = None,
                    metrics=None) -> ExecutionResult:
    """Run ``kernel`` over ``ndrange`` one work-item at a time (a sampled
    launch over the same groups as the lockstep engine); returns the
    scaled cost counters.  ``metrics`` is accepted and not told anything."""
    if counters is None:
        counters = ExecutionCounters()
    groups = list(ndrange.group_ids())
    selected = groups
    if sample_fraction is not None and 0 < sample_fraction < 1:
        selected = select_sample_groups(groups, sample_fraction)
    func, decls = functions(kernel.owner)[kernel.name], kernel.local_decls
    run_groups(ndrange, selected, kernel.definition, counters, kernel.uses_barrier,
               lambda ctx, storage: func(counters, ctx, [storage[id(d)] for d in decls], *args))
    total, executed = len(groups), len(selected)
    if executed < total:
        counters = counters.scaled(total / executed)
    return ExecutionResult(counters, total, executed)


def run_groups(ndrange: NDRange, groups: Optional[List[tuple]], definition,
               counters: ExecutionCounters, barriers: bool,
               item: Callable[[WorkItemContext, dict], object]) -> None:
    """Run ``item(ctx, storage)`` for every work-item of ``groups`` (None:
    all of them), ``storage`` being its work-group's ``__local`` memory.
    With ``barriers`` an item is a generator yielding at each
    ``barrier()``, and a group runs round-robin from barrier to barrier —
    items that disagree on reaching one fault; without, item after item
    in local linear order (dimension 0 fastest, as hardware packs warps),
    each 32-lane warp charged 32 times its slowest item's ops."""
    local_ids = list(ndrange.local_ids())
    for group in ndrange.group_ids() if groups is None else groups:
        storage = allocate_local_memory(definition, counters)
        base = tuple(g * l for g, l in zip(group, ndrange.local_size))
        contexts = [WorkItemContext(tuple(b + l for b, l in zip(base, local_id)), local_id,
                                    group, ndrange.global_size, ndrange.local_size)
                    for local_id in local_ids]
        if barriers:
            _round_robin([item(ctx, storage) for ctx in contexts])
            continue
        for start in range(0, len(contexts), WARP_SIZE):
            warp_max = 0
            for ctx in contexts[start:start + WARP_SIZE]:
                before = counters.ops
                item(ctx, storage)
                warp_max = max(warp_max, counters.ops - before)
            counters.warp_ops += warp_max * WARP_SIZE


def _round_robin(alive: List) -> None:
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
