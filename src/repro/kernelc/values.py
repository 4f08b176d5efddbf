"""Runtime value representation shared by the interpreter and the
per-item engine.

Scalars are plain Python ``int``/``float`` (converted to C semantics at
casts and stores).  Vectors are :class:`VecValue`, which carries the
vector operations that are not element-wise arithmetic (swizzle,
component store, literal, zero, unary; binary and comparison operators
are :func:`~repro.kernelc.execmodel.binary_value` / ``compare_value``).
Pointers are :class:`~repro.kernelc.memory.Pointer`.
"""

from __future__ import annotations

from typing import List, Sequence

from .ctypes_ import ScalarType, VectorType, convert_scalar

_COMPONENT_LETTERS = {"x": 0, "y": 1, "z": 2, "w": 3}


class VecValue:
    """An OpenCL vector value: fixed width, typed elements."""

    __slots__ = ("element_type", "components")

    def __init__(self, element_type: ScalarType, components: Sequence):
        self.element_type = element_type
        self.components = [convert_scalar(c, element_type) for c in components]

    @classmethod
    def of_converted(cls, element_type: ScalarType, components: List) -> "VecValue":
        """A vector over ``components`` as they are: a fresh list whose
        items already went through ``convert_scalar(_, element_type)``
        (it is idempotent, so the result equals the checked
        constructor's — minus one conversion per component)."""
        self = cls.__new__(cls)
        self.element_type = element_type
        self.components = components
        return self

    @property
    def width(self) -> int:
        return len(self.components)

    def ctype(self) -> VectorType:
        return VectorType(self.element_type, self.width)

    @classmethod
    def zero(cls, ctype: VectorType) -> "VecValue":
        return cls.of_converted(ctype.element, [convert_scalar(0, ctype.element)] * ctype.width)

    @classmethod
    def literal(cls, ctype: VectorType, parts: Sequence) -> "VecValue":
        """``(typeN)(parts...)``: vector parts are spliced in, a single
        scalar is broadcast."""
        components: List = []
        for part in parts:
            if isinstance(part, VecValue):
                components.extend(part.components)
            else:
                components.append(part)
        if len(components) == 1:
            components = components * ctype.width
        return cls(ctype.element, components)

    def swizzle(self, indices: Sequence[int]) -> "VecValue":
        return VecValue.of_converted(self.element_type, [self.components[i] for i in indices])

    def store_components(self, indices: Sequence[int], value) -> None:
        """``self.<indices> = value`` (in place)."""
        if len(indices) == 1:
            value = [value]
        elif isinstance(value, VecValue):
            value = value.components
        else:
            from .memory import KernelFault

            raise KernelFault("assigning a scalar to a multi-component swizzle")
        for index, component in zip(indices, value):
            self.components[index] = convert_scalar(component, self.element_type)

    def unary(self, op: str) -> "VecValue":
        """Component-wise ``-``, ``~`` or ``+``."""
        if op == "-":
            return self.map(lambda c: -c)
        if op == "~":
            return self.map(lambda c: ~int(c))
        return self.map(lambda c: c)

    def map(self, func) -> "VecValue":
        return VecValue(self.element_type, [func(c) for c in self.components])

    def zip_with(self, other, func) -> "VecValue":
        if isinstance(other, VecValue):
            if other.width != self.width:
                raise ValueError("vector width mismatch")
            pairs = zip(self.components, other.components)
        else:
            pairs = ((c, other) for c in self.components)
        return VecValue(self.element_type, [func(a, b) for a, b in pairs])

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, index: int):
        return self.components[index]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VecValue)
            and self.element_type == other.element_type
            and self.components == other.components
        )

    def __repr__(self) -> str:
        inner = ", ".join(repr(c) for c in self.components)
        return f"({self.element_type.name}{self.width})({inner})"


def component_indices(member: str, width: int) -> List[int]:
    """Decode a vector component selector into element indices.

    Supports ``.x/.y/.z/.w`` swizzles (``.xyz``, ``.wzyx`` ...), numeric
    selectors ``.s0``–``.sF``, and ``.lo``/``.hi``/``.even``/``.odd``.
    Raises ``ValueError`` for selectors invalid at this width.
    """
    if member in ("lo", "hi", "even", "odd"):
        if width % 2 != 0:
            raise ValueError(f"'.{member}' requires an even vector width, got {width}")
        if member == "lo":
            return list(range(0, width // 2))
        if member == "hi":
            return list(range(width // 2, width))
        if member == "even":
            return list(range(0, width, 2))
        return list(range(1, width, 2))
    if member.startswith("s") and len(member) > 1 and all(c in "0123456789abcdefABCDEF" for c in member[1:]):
        indices = [int(c, 16) for c in member[1:]]
    else:
        try:
            indices = [_COMPONENT_LETTERS[c] for c in member]
        except KeyError:
            raise ValueError(f"invalid vector component selector '.{member}'") from None
    for index in indices:
        if index >= width:
            raise ValueError(f"component selector '.{member}' out of range for width {width}")
    return indices
