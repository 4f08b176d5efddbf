"""The device memory model used when executing kernels.

A :class:`Pointer` is a typed view into a flat numpy array plus an
element offset.  Pointer arithmetic produces new pointers; loads and
stores convert between numpy storage and Python value semantics and
report traffic to a :class:`MemoryCounters` object so the simulated
device can charge time for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import ast
from .ctypes_ import ArrayType, CType, ScalarType, VectorType, convert_scalar, numpy_dtype
from .values import VecValue


class KernelFault(Exception):
    """An out-of-bounds access or similar runtime fault inside a kernel."""


@dataclass
class MemoryCounters:
    """Counts of memory traffic during a kernel execution.

    When ``trace`` is a list, every successful load/store additionally
    appends ``(array_id, address_space, byte_start, nbytes, 'r'|'w')``
    — the concrete memory trace the SkelAccess differential harness
    compares against the affine footprints (``None`` costs nothing)."""

    global_loads: int = 0
    global_stores: int = 0
    global_bytes: int = 0
    local_loads: int = 0
    local_stores: int = 0
    local_bytes: int = 0
    trace: Optional[list] = None

    def reset(self) -> None:
        self.global_loads = 0
        self.global_stores = 0
        self.global_bytes = 0
        self.local_loads = 0
        self.local_stores = 0
        self.local_bytes = 0

    def merge(self, other: "MemoryCounters") -> None:
        self.global_loads += other.global_loads
        self.global_stores += other.global_stores
        self.global_bytes += other.global_bytes
        self.local_loads += other.local_loads
        self.local_stores += other.local_stores
        self.local_bytes += other.local_bytes

    def scaled(self, factor: float) -> "MemoryCounters":
        return MemoryCounters(
            int(self.global_loads * factor),
            int(self.global_stores * factor),
            int(self.global_bytes * factor),
            int(self.local_loads * factor),
            int(self.local_stores * factor),
            int(self.local_bytes * factor),
        )


_NULL_COUNTERS = MemoryCounters()


class Pointer:
    """A typed pointer into device (or local/private) memory."""

    __slots__ = ("array", "offset", "element_type", "address_space", "counters", "length")

    def __init__(
        self,
        array: np.ndarray,
        element_type: CType,
        address_space: str = "global",
        offset: int = 0,
        counters: Optional[MemoryCounters] = None,
        length: Optional[int] = None,
    ):
        self.array = array
        self.element_type = element_type
        self.address_space = address_space
        self.offset = offset
        self.counters = counters if counters is not None else _NULL_COUNTERS
        # Number of addressable elements from index 0 of the array.
        self.length = length if length is not None else self._default_length()

    def _default_length(self) -> int:
        if isinstance(self.element_type, VectorType):
            stride = self.element_type.width
            return len(self.array) // stride
        return len(self.array)

    # -- pointer arithmetic ----------------------------------------------

    def add(self, delta: int) -> "Pointer":
        return Pointer(self.array, self.element_type, self.address_space, self.offset + int(delta), self.counters, self.length)

    def diff(self, other: "Pointer") -> int:
        if self.array is not other.array:
            raise KernelFault("subtracting pointers into different objects")
        return self.offset - other.offset

    def retyped(self, element_type: CType) -> "Pointer":
        """Reinterpret this pointer at a different element type (C cast).

        Supports scalar↔scalar and scalar↔vector reinterpretation; the
        backing storage is re-viewed at the new base dtype.  Vector
        elements are stored as ``width`` consecutive scalars, so a
        ``float*`` and a ``float4*`` see the same bytes.
        """
        if element_type == self.element_type:
            return self

        def stride_and_base(ctype: CType):
            if isinstance(ctype, VectorType):
                return ctype.width, ctype.element
            return 1, ctype

        old_stride, old_base = stride_and_base(self.element_type)
        new_stride, new_base = stride_and_base(element_type)
        byte_offset = self.offset * old_stride * old_base.sizeof()
        new_unit = new_stride * new_base.sizeof()
        if byte_offset % new_unit or self.array.nbytes % new_base.sizeof():
            raise KernelFault("misaligned pointer cast")
        new_array = self.array.view(numpy_dtype(new_base))
        return Pointer(
            new_array,
            element_type,
            self.address_space,
            byte_offset // new_unit,
            self.counters,
            len(new_array) // new_stride,
        )

    # -- access ------------------------------------------------------------

    def _element_index(self, index: int) -> int:
        where = self.offset + int(index)
        if where < 0 or where >= self.length:
            raise KernelFault(
                f"out-of-bounds {self.address_space} access: element {where} of {self.length}"
            )
        return where

    def _charge(self, is_store: bool) -> None:
        counters = self.counters
        nbytes = self.element_type.sizeof()
        if self.address_space in ("global", "constant"):
            if is_store:
                counters.global_stores += 1
            else:
                counters.global_loads += 1
            counters.global_bytes += nbytes
        elif self.address_space == "local":
            if is_store:
                counters.local_stores += 1
            else:
                counters.local_loads += 1
            counters.local_bytes += nbytes

    def _trace(self, where: int, is_store: bool) -> None:
        trace = self.counters.trace
        if trace is not None:
            nbytes = self.element_type.sizeof()
            trace.append((id(self.array), self.address_space,
                          where * nbytes, nbytes, "w" if is_store else "r"))

    def load(self, index: int = 0):
        where = self._element_index(index)
        self._charge(is_store=False)
        self._trace(where, is_store=False)
        if isinstance(self.element_type, VectorType):
            width = self.element_type.width
            chunk = self.array[where * width : where * width + width]
            return VecValue(self.element_type.element, [c.item() for c in chunk])
        return self.array[where].item()

    def store(self, index: int, value) -> None:
        where = self._element_index(index)
        self._charge(is_store=True)
        self._trace(where, is_store=True)
        if isinstance(self.element_type, VectorType):
            width = self.element_type.width
            if not isinstance(value, VecValue):
                raise KernelFault("storing a scalar through a vector pointer")
            self.array[where * width : where * width + width] = [
                convert_scalar(c, self.element_type.element) for c in value.components
            ]
            return
        assert isinstance(self.element_type, ScalarType)
        self.array[where] = convert_scalar(value, self.element_type)

    def __repr__(self) -> str:
        return f"<{self.address_space} {self.element_type}* +{self.offset} len={self.length}>"


class ArrayRef:
    """The runtime value of a C array variable (possibly multi-dimensional).

    Wraps a flat :class:`Pointer` to the base scalar elements together
    with this level's element type, so ``a[i]`` on a ``float[3][4]``
    yields an ``ArrayRef`` for the row and ``a[i][j]`` a scalar access.
    """

    __slots__ = ("pointer", "element")

    def __init__(self, pointer: Pointer, element: CType):
        self.pointer = pointer
        self.element = element

    def index(self, i: int):
        """Index one level: sub-array ``ArrayRef`` or scalar pointer slot."""
        if isinstance(self.element, ArrayType):
            return ArrayRef(self.pointer.add(int(i) * self.element.flat_length()), self.element.element)
        return self.pointer, int(i)

    def decayed(self) -> Pointer:
        """Array-to-pointer decay (points at this level's first element)."""
        if isinstance(self.element, ArrayType):
            raise KernelFault("cannot decay a multi-dimensional array to a flat pointer")
        return self.pointer

    def __repr__(self) -> str:
        return f"ArrayRef({self.pointer!r}, element={self.element})"


def allocate(element_type: CType, count: int, address_space: str, counters: Optional[MemoryCounters] = None) -> Pointer:
    """Allocate zero-initialized memory for ``count`` elements."""
    if isinstance(element_type, VectorType):
        array = np.zeros(count * element_type.width, dtype=numpy_dtype(element_type.element))
    else:
        array = np.zeros(count, dtype=numpy_dtype(element_type))
    return Pointer(array, element_type, address_space, 0, counters, count)


class NullPointer:
    """The value of a pointer variable declared without an initializer:
    truthy, equal to no real pointer, a fault on any use."""

    def __getattr__(self, name):
        raise KernelFault("use of an uninitialized (null) pointer")

    def __repr__(self) -> str:
        return "<null pointer>"


NULL_POINTER = NullPointer()


def same_pointer(a, b) -> bool:
    """C ``a == b`` on pointer values (the null pointer equals nothing)."""
    return isinstance(a, Pointer) and isinstance(b, Pointer) \
        and a.array is b.array and a.offset == b.offset


def flatten_initializer(init: ast.Expr) -> List:
    """The scalar values of a (nested) brace initializer, in order."""
    if isinstance(init, ast.VectorLiteral) and init.is_array_initializer:
        return [value for element in init.elements for value in flatten_initializer(element)]
    if isinstance(init, (ast.IntLiteral, ast.FloatLiteral, ast.CharLiteral)):
        return [init.value]
    if isinstance(init, ast.UnaryOp) and init.op == "-":
        return [-flatten_initializer(init.operand)[0]]
    raise KernelFault("unsupported constant initializer element")


def allocate_array(ctype: CType, values: Optional[Sequence] = None, address_space: str = "private",
                   counters: Optional[MemoryCounters] = None) -> ArrayRef:
    """The storage of one C array variable (a lone ``__local`` scalar is
    an array of one), its leading elements set to ``values``."""
    if not isinstance(ctype, ArrayType):
        return ArrayRef(allocate(ctype, 1, address_space, counters), ctype)
    element = ctype.base_element()
    pointer = allocate(element, ctype.flat_length(), address_space, counters)
    if values is not None:
        if len(values) > ctype.flat_length():
            raise KernelFault(f"too many initializers for {ctype}")
        pointer.array[: len(values)] = [convert_scalar(value, element) for value in values]
    return ArrayRef(pointer, ctype.element)
