"""Execution-model pieces the engine and its oracles share — the
tree-walking interpreter calls them directly, the lowering binds them
into the modules it generates, the lockstep library falls back to them
for uniform (scalar) values:

* :class:`WorkItemContext` — work-item ids/sizes for the builtin queries,
* :class:`ExecutionCounters` — operation and memory traffic counters,
* C operator semantics (truncating division, masked shifts, wrapping),
* value conversion between arbitrary runtime values and C types,
* what a launch allocates around the kernel body: a work-group's
  ``__local`` storage and the program's ``__constant`` globals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from . import ast
from .ctypes_ import ArrayType, CType, ScalarType, VectorType, convert_scalar
from .memory import (ArrayRef, KernelFault, MemoryCounters, Pointer, allocate_array,
                     flatten_initializer)
from .values import VecValue

# SIMD width used for divergence accounting (NVIDIA warp).
WARP_SIZE = 32


@dataclass
class ExecutionCounters:
    """Everything the timing model charges for: ops + memory traffic.

    ``ops`` counts operations as executed per work-item; ``warp_ops``
    is the SIMD-divergence-adjusted count the executor fills in for
    barrier-free kernels (each 32-lane warp is charged 32× its slowest
    lane, as on real hardware).  The timing model prefers ``warp_ops``
    when present.
    """

    ops: int = 0
    memory: MemoryCounters = field(default_factory=MemoryCounters)
    barriers: int = 0
    warp_ops: int = 0

    def reset(self) -> None:
        self.ops = 0
        self.barriers = 0
        self.warp_ops = 0
        self.memory.reset()

    def merge(self, other: "ExecutionCounters") -> None:
        self.ops += other.ops
        self.barriers += other.barriers
        self.warp_ops += other.warp_ops
        self.memory.merge(other.memory)

    def scaled(self, factor: float) -> "ExecutionCounters":
        return ExecutionCounters(
            int(self.ops * factor),
            self.memory.scaled(factor),
            int(self.barriers * factor),
            int(self.warp_ops * factor),
        )


@dataclass(frozen=True)
class WorkItemContext:
    """Identity of one work-item within an NDRange execution.

    All tuples are padded to three entries at construction (ids with 0,
    sizes with 1) so compiled kernels can index them directly; the real
    dimensionality is preserved in ``work_dim``.
    """

    global_id: Tuple[int, ...]
    local_id: Tuple[int, ...]
    group_id: Tuple[int, ...]
    global_size: Tuple[int, ...]
    local_size: Tuple[int, ...]
    global_offset: Tuple[int, ...] = (0, 0, 0)
    work_dim: int = 0

    def __post_init__(self):
        dims = len(self.global_size)
        object.__setattr__(self, "work_dim", self.work_dim or dims)
        for name, fill in (
            ("global_id", 0),
            ("local_id", 0),
            ("group_id", 0),
            ("global_size", 1),
            ("local_size", 1),
            ("global_offset", 0),
        ):
            values = tuple(getattr(self, name))
            if len(values) < 3:
                object.__setattr__(self, name, values + (fill,) * (3 - len(values)))

    def get_global_id(self, dim: int) -> int:
        dim = int(dim)
        return self.global_id[dim] if 0 <= dim < 3 else 0

    def get_local_id(self, dim: int) -> int:
        dim = int(dim)
        return self.local_id[dim] if 0 <= dim < 3 else 0

    def get_group_id(self, dim: int) -> int:
        dim = int(dim)
        return self.group_id[dim] if 0 <= dim < 3 else 0

    def get_global_size(self, dim: int) -> int:
        dim = int(dim)
        return self.global_size[dim] if 0 <= dim < 3 else 1

    def get_local_size(self, dim: int) -> int:
        dim = int(dim)
        return self.local_size[dim] if 0 <= dim < 3 else 1

    def get_num_groups(self, dim: int) -> int:
        return self.get_global_size(dim) // self.get_local_size(dim)

    def get_global_offset(self, dim: int) -> int:
        dim = int(dim)
        return self.global_offset[dim] if 0 <= dim < 3 else 0

    def get_work_dim(self) -> int:
        return self.work_dim

    def query(self, name: str, *args) -> int:
        return getattr(self, name)(*args)


# -- C operator semantics ----------------------------------------------------


def c_idiv(a: int, b: int) -> int:
    """C integer division: truncation toward zero."""
    if b == 0:
        raise KernelFault("integer division by zero")
    quotient = abs(a) // abs(b)
    return quotient if (a >= 0) == (b >= 0) else -quotient


def c_imod(a: int, b: int) -> int:
    """C integer remainder: sign follows the dividend."""
    if b == 0:
        raise KernelFault("integer remainder by zero")
    return a - c_idiv(a, b) * b


def c_fdiv(a: float, b: float) -> float:
    """IEEE float division: inf/NaN instead of exceptions."""
    if b == 0.0:
        if a == 0.0 or a != a:
            return math.nan
        return math.inf if (a > 0) == (not math.copysign(1.0, b) < 0) else -math.inf
    return a / b


def scalar_binary(op: str, a, b, ctype: ScalarType):
    """Apply a C binary operator on scalars already converted to ``ctype``."""
    if op == "+":
        result = a + b
    elif op == "-":
        result = a - b
    elif op == "*":
        result = a * b
    elif op == "/":
        result = c_idiv(a, b) if ctype.is_integer() else c_fdiv(a, b)
    elif op == "%":
        result = c_imod(a, b)
    elif op == "<<":
        result = a << (b % ctype.bits)
    elif op == ">>":
        # OpenCL masks the shift count by the operand width.
        result = a >> (b % ctype.bits)
    elif op == "&":
        result = a & b
    elif op == "|":
        result = a | b
    elif op == "^":
        result = a ^ b
    else:  # pragma: no cover
        raise AssertionError(f"unhandled operator {op}")
    return convert_scalar(result, ctype)


def scalar_compare(op: str, a, b) -> int:
    if op == "<":
        return int(a < b)
    if op == ">":
        return int(a > b)
    if op == "<=":
        return int(a <= b)
    if op == ">=":
        return int(a >= b)
    if op == "==":
        return int(a == b)
    return int(a != b)


def binary_value(op: str, left, right, op_type: CType):
    """Apply a C binary arithmetic/bitwise operator with broadcasting."""
    if isinstance(op_type, VectorType):
        element = op_type.element
        left_components = left.components if isinstance(left, VecValue) else [left] * op_type.width
        right_components = right.components if isinstance(right, VecValue) else [right] * op_type.width
        out = [
            scalar_binary(op, convert_scalar(a, element), convert_scalar(b, element), element)
            for a, b in zip(left_components, right_components)
        ]
        return VecValue.of_converted(element, out)  # scalar_binary converts its result
    assert isinstance(op_type, ScalarType)
    return scalar_binary(op, convert_scalar(left, op_type), convert_scalar(right, op_type), op_type)


def compare_value(op: str, left, right, op_type: CType):
    """Apply a comparison; vectors yield -1/0 lanes, scalars 1/0."""
    if isinstance(op_type, VectorType):
        from .ctypes_ import INT, LONG

        element = op_type.element
        result_element = INT if element.sizeof() <= 4 else LONG
        left_components = left.components if isinstance(left, VecValue) else [left] * op_type.width
        right_components = right.components if isinstance(right, VecValue) else [right] * op_type.width
        out = [
            -scalar_compare(op, convert_scalar(a, element), convert_scalar(b, element))
            for a, b in zip(left_components, right_components)
        ]
        return VecValue(result_element, out)
    assert isinstance(op_type, ScalarType)
    return scalar_compare(op, convert_scalar(left, op_type), convert_scalar(right, op_type))


def convert_value(value, ctype: CType):
    """Convert a runtime value to C type ``ctype`` (scalars, vectors, pointers)."""
    if isinstance(ctype, VectorType):
        if isinstance(value, VecValue):
            if value.width != ctype.width:
                raise KernelFault(f"vector width mismatch: {value.width} vs {ctype.width}")
            return VecValue(ctype.element, value.components)
        return VecValue(ctype.element, [value] * ctype.width)
    if isinstance(value, Pointer):
        if not ctype.is_pointer():
            raise KernelFault(f"cannot convert pointer to {ctype}")
        if isinstance(ctype.pointee, (ScalarType, VectorType)) and ctype.pointee != value.element_type and not ctype.pointee.is_void():
            return value.retyped(ctype.pointee)
        return value
    if ctype.is_pointer():
        raise KernelFault(f"cannot convert {value!r} to pointer type {ctype}")
    if isinstance(value, VecValue):
        raise KernelFault(f"cannot convert vector to scalar {ctype}")
    assert isinstance(ctype, ScalarType)
    if ctype.is_void():
        return None
    return convert_scalar(value, ctype)


def truthy(value) -> bool:
    """C truth value of a scalar or pointer."""
    if isinstance(value, Pointer):
        return True
    return bool(value)


def copy_value(value):
    """Value-semantics copy (vectors are mutable containers)."""
    if isinstance(value, VecValue):
        return VecValue.of_converted(value.element_type, list(value.components))
    return value


# -- storage a launch sets up around the kernel body ---------------------------


def collect_local_decls(function: ast.FunctionDef) -> List[ast.VarDecl]:
    """All ``__local`` variable declarations in a kernel body, in source
    order.  Found by one walk per function and kept on its node (callers
    share the list; the program cache persists it with the AST)."""
    decls = function.__dict__.get("_local_decls")
    if decls is None:
        decls = function._local_decls = [
            node for node in ast.walk(function.body)
            if isinstance(node, ast.VarDecl) and node.address_space == "local"]
    return decls


def allocate_local_memory(function: ast.FunctionDef,
                          counters: Optional[ExecutionCounters] = None) -> Dict[int, ArrayRef]:
    """Group-shared storage for a kernel's ``__local`` variables, keyed
    by ``id`` of the declaration."""
    memory = counters.memory if counters is not None else None
    return {id(decl): allocate_array(decl.declared_type, None, "local", memory)
            for decl in collect_local_decls(function)}


def local_memory_bytes(function: ast.FunctionDef) -> int:
    """Total __local bytes a kernel declares (for occupancy modeling)."""
    return sum(decl.declared_type.sizeof() for decl in collect_local_decls(function))


def constant_globals(program: ast.Program, evaluate: Callable[[ast.Expr], object],
                     counters: Optional[MemoryCounters] = None) -> Iterator[Tuple[str, object]]:
    """``(name, value)`` of each file-scope ``__constant`` declaration,
    in source order.  Arrays are allocated and initialized here; a
    scalar or vector initializer is an expression, so the calling engine
    supplies ``evaluate`` (which may read the globals yielded so far)."""
    for global_decl in program.globals:
        decl = global_decl.decl
        ctype = decl.declared_type
        if isinstance(ctype, ArrayType):
            values = flatten_initializer(decl.init) if decl.init is not None else None
            yield decl.name, allocate_array(ctype, values, "constant", counters)
        elif decl.init is None:
            raise KernelFault(f"__constant variable {decl.name!r} has no initializer")
        else:
            yield decl.name, convert_value(evaluate(decl.init), ctype)
