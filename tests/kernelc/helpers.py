"""Test helpers: run a kernel through either backend without the full
OpenCL runtime plumbing."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernelc import ExecutionCounters, WorkItemContext, compile_source
from repro.kernelc.compiler import compile_program
from repro.kernelc.ctypes_ import ctype_from_numpy
from repro.kernelc.execmodel import allocate_local_memory
from repro.kernelc.memory import Pointer

from .interp import Interpreter, Machine


def make_buffers(arrays: Dict[str, np.ndarray], counters: ExecutionCounters) -> Dict[str, Pointer]:
    pointers = {}
    for name, array in arrays.items():
        flat = np.ascontiguousarray(array).reshape(-1).copy()
        pointers[name] = Pointer(flat, ctype_from_numpy(flat.dtype), "global", 0, counters.memory)
    return pointers


def _contexts(global_size: Tuple[int, ...], local_size: Tuple[int, ...]):
    """All (group, [work-item contexts]) for a small NDRange."""
    dims = len(global_size)
    num_groups = tuple(g // l for g, l in zip(global_size, local_size))

    def iterate(shape):
        if len(shape) == 1:
            for i in range(shape[0]):
                yield (i,)
        elif len(shape) == 2:
            for j in range(shape[1]):
                for i in range(shape[0]):
                    yield (i, j)
        else:
            for k in range(shape[2]):
                for j in range(shape[1]):
                    for i in range(shape[0]):
                        yield (i, j, k)

    for group in iterate(num_groups):
        contexts = []
        for local in iterate(local_size):
            gid = tuple(g * l + x for g, l, x in zip(group, local_size, local))
            contexts.append(WorkItemContext(gid, local, group, global_size, local_size))
        yield group, contexts


def run_kernel(
    source: str,
    kernel_name: str,
    arrays: Dict[str, np.ndarray],
    args: Sequence,  # names (str, resolved to buffers) or scalar values
    global_size,
    local_size=None,
    backend: str = "compiler",
) -> Tuple[Dict[str, np.ndarray], ExecutionCounters]:
    """Execute a kernel over a small NDRange; returns final arrays + stats.

    ``args`` entries that are strings refer to entries of ``arrays``
    (passed as global buffers); anything else is a scalar argument.
    """
    if isinstance(global_size, int):
        global_size = (global_size,)
    if local_size is None:
        local_size = global_size
    elif isinstance(local_size, int):
        local_size = (local_size,)

    program = compile_source(source)
    counters = ExecutionCounters()
    pointers = make_buffers(arrays, counters)
    runtime_args = [pointers[a] if isinstance(a, str) else a for a in args]
    definition = program.function(kernel_name)
    # Marshal to the kernel's parameter types (as the runtime does).
    from repro.kernelc.execmodel import convert_value

    runtime_args = [
        convert_value(value, param.declared_type)
        for value, param in zip(runtime_args, definition.params)
    ]

    if backend == "compiler":
        compiled = compile_program(program).kernel(kernel_name)
        func = compiled.per_item()
        for group, contexts in _contexts(tuple(global_size), tuple(local_size)):
            storage = allocate_local_memory(definition, counters)
            lmem = [storage[id(d)] for d in compiled.local_decls]
            if compiled.uses_barrier:
                generators = [func(counters, ctx, lmem, *runtime_args) for ctx in contexts]
                alive = generators
                while alive:
                    next_alive = []
                    for gen in alive:
                        try:
                            next(gen)
                            next_alive.append(gen)
                        except StopIteration:
                            pass
                    alive = next_alive
            else:
                for ctx in contexts:
                    func(counters, ctx, lmem, *runtime_args)
    elif backend == "vector":
        from repro.kernelc import vectorize
        from repro.ocl.ndrange import NDRange

        compiled = compile_program(program).kernel(kernel_name)
        plan = vectorize.plan_for(compiled)
        if plan is None:
            raise ValueError(
                f"kernel {kernel_name!r} is not vectorizable: "
                f"{vectorize.reject_reason(compiled)}"
            )
        ndrange = NDRange.create(tuple(global_size), tuple(local_size))
        vectorize.execute(compiled, plan, ndrange, None, runtime_args, counters)
    elif backend == "interp":
        machine = Machine(program, counters)
        for group, contexts in _contexts(tuple(global_size), tuple(local_size)):
            storage = allocate_local_memory(definition, counters)
            generators = [
                Interpreter(machine, ctx, storage).run_kernel(definition, runtime_args)
                for ctx in contexts
            ]
            alive = generators
            while alive:
                next_alive = []
                for gen in alive:
                    try:
                        next(gen)
                        next_alive.append(gen)
                    except StopIteration:
                        pass
                alive = next_alive
    else:
        raise ValueError(f"unknown backend {backend!r}")

    results = {name: pointer.array for name, pointer in pointers.items()}
    return results, counters


def run_both(source, kernel_name, arrays, args, global_size, local_size=None):
    """Run on both backends (fresh input copies); returns both results."""
    compiled_result, compiled_counters = run_kernel(
        source, kernel_name, {k: v.copy() for k, v in arrays.items()}, args,
        global_size, local_size, backend="compiler",
    )
    interp_result, interp_counters = run_kernel(
        source, kernel_name, {k: v.copy() for k, v in arrays.items()}, args,
        global_size, local_size, backend="interp",
    )
    return (compiled_result, compiled_counters), (interp_result, interp_counters)
