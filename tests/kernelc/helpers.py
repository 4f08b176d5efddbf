"""Test helpers: run a kernel on the lockstep engine, the per-item oracle
or the tree-walking interpreter, without the full OpenCL runtime
plumbing."""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.kernelc import ExecutionCounters, compile_source
from repro.kernelc.compiler import compile_program
from repro.kernelc.ctypes_ import ctype_from_numpy
from repro.kernelc.memory import Pointer
from repro.ocl.queue import execute_ndrange
from repro.ocl.ndrange import NDRange

from . import peritem
from .interp import Interpreter, Machine


def make_buffers(arrays: Dict[str, np.ndarray], counters: ExecutionCounters) -> Dict[str, Pointer]:
    pointers = {}
    for name, array in arrays.items():
        flat = np.ascontiguousarray(array).reshape(-1).copy()
        pointers[name] = Pointer(flat, ctype_from_numpy(flat.dtype), "global", 0, counters.memory)
    return pointers


def interpret(program, definition, args: Sequence, counters: ExecutionCounters,
              global_size: Tuple[int, ...], local_size: Tuple[int, ...]) -> None:
    """Run kernel ``definition`` of ``program`` on the interpreter,
    work-group by work-group as the per-item oracle runs them."""
    machine = Machine(program, counters)
    peritem.run_groups(NDRange.create(global_size, local_size), None, definition, counters,
                       True, lambda ctx, storage: Interpreter(machine, ctx, storage)
                       .run_kernel(definition, args))


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
    ``backend``: ``"compiler"`` (the per-item oracle, :mod:`.peritem`),
    ``"vector"`` (the lockstep engine) or ``"interp"`` (the interpreter,
    round-robin at barriers whatever the kernel, so it does no warp
    accounting).
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

    if backend in ("compiler", "vector"):
        compiled = compile_program(program).kernel(kernel_name)
        ndrange = NDRange.create(tuple(global_size), tuple(local_size))
        run = peritem.execute_ndrange if backend == "compiler" else execute_ndrange
        (_result,) = run(compiled, ndrange, [runtime_args], None, [counters])
    elif backend == "interp":
        interpret(program, definition, runtime_args, counters, tuple(global_size),
                  tuple(local_size))
    else:
        raise ValueError(f"unknown backend {backend!r}")

    results = {name: pointer.array for name, pointer in pointers.items()}
    return results, counters


def run_both(source, kernel_name, arrays, args, global_size, local_size=None):
    """Run on the per-item oracle and the interpreter (fresh input
    copies); returns both results."""
    compiled_result, compiled_counters = run_kernel(
        source, kernel_name, {k: v.copy() for k, v in arrays.items()}, args,
        global_size, local_size, backend="compiler",
    )
    interp_result, interp_counters = run_kernel(
        source, kernel_name, {k: v.copy() for k, v in arrays.items()}, args,
        global_size, local_size, backend="interp",
    )
    return (compiled_result, compiled_counters), (interp_result, interp_counters)
