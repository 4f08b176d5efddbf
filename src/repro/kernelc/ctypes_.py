"""The OpenCL-C type system used by the kernelc front-end.

Models scalar types (with C integer widths and signedness), OpenCL vector
types (``float4`` etc.), pointers with address spaces, fixed-size arrays
and function types.  Also implements the value-level conversion semantics
(integer wrap-around, float truncation) shared by the interpreter and the
generated code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

ADDRESS_SPACES = ("private", "global", "local", "constant")


class CType:
    """Base class for all kernelc types."""

    def is_void(self) -> bool:
        return False

    def is_scalar(self) -> bool:
        return False

    def is_integer(self) -> bool:
        return False

    def is_float(self) -> bool:
        return False

    def is_bool(self) -> bool:
        return False

    def is_arithmetic(self) -> bool:
        return self.is_integer() or self.is_float()

    def is_pointer(self) -> bool:
        return False

    def is_vector(self) -> bool:
        return False

    def is_array(self) -> bool:
        return False

    def sizeof(self) -> int:
        raise TypeError(f"type {self} has no size")


@dataclass(frozen=True)
class ScalarType(CType):
    name: str
    size: int  # in bytes; 0 for void
    signed: bool = False
    float_kind: bool = False

    def is_void(self) -> bool:
        return self.size == 0

    def is_scalar(self) -> bool:
        return self.size > 0

    def is_integer(self) -> bool:
        return self.size > 0 and not self.float_kind

    def is_float(self) -> bool:
        return self.float_kind

    def is_bool(self) -> bool:
        return self.name == "bool"

    def sizeof(self) -> int:
        if self.size == 0:
            raise TypeError("void has no size")
        return self.size

    @property
    def bits(self) -> int:
        return self.size * 8

    def min_value(self) -> int:
        if self.float_kind:
            raise TypeError("min_value on float type")
        return -(1 << (self.bits - 1)) if self.signed else 0

    def max_value(self) -> int:
        if self.float_kind:
            raise TypeError("max_value on float type")
        return (1 << (self.bits - 1)) - 1 if self.signed else (1 << self.bits) - 1

    def __str__(self) -> str:
        return self.name


VOID = ScalarType("void", 0)
BOOL = ScalarType("bool", 1)
CHAR = ScalarType("char", 1, signed=True)
UCHAR = ScalarType("uchar", 1)
SHORT = ScalarType("short", 2, signed=True)
USHORT = ScalarType("ushort", 2)
INT = ScalarType("int", 4, signed=True)
UINT = ScalarType("uint", 4)
LONG = ScalarType("long", 8, signed=True)
ULONG = ScalarType("ulong", 8)
FLOAT = ScalarType("float", 4, float_kind=True)
DOUBLE = ScalarType("double", 8, float_kind=True)
HALF = ScalarType("half", 2, float_kind=True)
SIZE_T = ScalarType("size_t", 8)

SCALAR_TYPES = {
    t.name: t
    for t in (VOID, BOOL, CHAR, UCHAR, SHORT, USHORT, INT, UINT, LONG, ULONG, FLOAT, DOUBLE, HALF, SIZE_T)
}

# Integer conversion rank, as in C11 6.3.1.1 (bool lowest).
_RANK = {"bool": 0, "char": 1, "uchar": 1, "short": 2, "ushort": 2, "int": 3, "uint": 3, "long": 4, "ulong": 4, "size_t": 4}


@dataclass(frozen=True)
class VectorType(CType):
    element: ScalarType
    width: int

    def is_vector(self) -> bool:
        return True

    def sizeof(self) -> int:
        # OpenCL vec3 occupies the storage of vec4.
        width = 4 if self.width == 3 else self.width
        return self.element.sizeof() * width

    @property
    def name(self) -> str:
        return f"{self.element.name}{self.width}"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class PointerType(CType):
    pointee: CType
    address_space: str = "private"
    is_const: bool = False

    def __post_init__(self):
        if self.address_space not in ADDRESS_SPACES:
            raise ValueError(f"unknown address space {self.address_space!r}")

    def is_pointer(self) -> bool:
        return True

    def sizeof(self) -> int:
        return 8

    def __str__(self) -> str:
        const = "const " if self.is_const else ""
        space = f"__{self.address_space} " if self.address_space != "private" else ""
        return f"{space}{const}{self.pointee}*"


@dataclass(frozen=True)
class ArrayType(CType):
    element: CType
    length: int

    def is_array(self) -> bool:
        return True

    def sizeof(self) -> int:
        return self.element.sizeof() * self.length

    def flat_length(self) -> int:
        """Total number of scalar elements, through nested arrays."""
        if isinstance(self.element, ArrayType):
            return self.length * self.element.flat_length()
        return self.length

    def base_element(self) -> CType:
        """The innermost non-array element type."""
        element = self.element
        while isinstance(element, ArrayType):
            element = element.element
        return element

    def __str__(self) -> str:
        return f"{self.element}[{self.length}]"


def make_vector_type(name: str) -> Optional[VectorType]:
    """Parse a vector type name like ``float4``; None if not one."""
    for base in ("uchar", "ushort", "uint", "ulong", "char", "short", "int", "long", "float", "double"):
        if name.startswith(base):
            rest = name[len(base):]
            if rest in ("2", "3", "4", "8", "16"):
                return VectorType(SCALAR_TYPES[base], int(rest))
    return None


# -- conversion semantics --------------------------------------------------


def integer_promote(ctype: ScalarType) -> ScalarType:
    """C integer promotion: small integer types promote to int."""
    if ctype.is_integer() and _RANK[ctype.name] < _RANK["int"]:
        return INT
    return ctype


def usual_arithmetic_conversions(left: ScalarType, right: ScalarType) -> ScalarType:
    """The common type of a binary arithmetic expression (C11 6.3.1.8)."""
    if left.is_float() or right.is_float():
        for candidate in (DOUBLE, FLOAT, HALF):
            if left == candidate or right == candidate:
                return candidate
        raise AssertionError("unreachable")
    left = integer_promote(left)
    right = integer_promote(right)
    if left == right:
        return left
    if left.signed == right.signed:
        return left if _RANK[left.name] >= _RANK[right.name] else right
    unsigned, signed = (left, right) if not left.signed else (right, left)
    if _RANK[unsigned.name] >= _RANK[signed.name]:
        return unsigned
    # signed type can represent all unsigned values only with greater rank
    if signed.size > unsigned.size:
        return signed
    return ScalarType(  # unsigned version of the signed type
        {"int": "uint", "long": "ulong"}.get(signed.name, signed.name), signed.size, signed=False
    )


def common_type(left: CType, right: CType) -> CType:
    """Common type for binary ops over scalars and vectors.

    Vector op scalar broadcasts the scalar; vector op vector requires the
    same width.
    """
    if isinstance(left, VectorType) and isinstance(right, VectorType):
        if left.width != right.width:
            raise TypeError(f"vector width mismatch: {left} vs {right}")
        return VectorType(usual_arithmetic_conversions(left.element, right.element), left.width)
    if isinstance(left, VectorType):
        return left
    if isinstance(right, VectorType):
        return right
    if isinstance(left, ScalarType) and isinstance(right, ScalarType):
        return usual_arithmetic_conversions(left, right)
    raise TypeError(f"no common type for {left} and {right}")


def wrap_int(value: int, ctype: ScalarType) -> int:
    """Wrap a Python int to the two's-complement range of ``ctype``."""
    bits = ctype.bits
    value &= (1 << bits) - 1
    if ctype.signed and value >= (1 << (bits - 1)):
        value -= 1 << bits
    return value


def round_float(value: float, ctype: ScalarType) -> float:
    """Round a Python float to the precision of ``ctype``."""
    # Dispatch on the name: the three float types are told apart by it,
    # and comparing frozen dataclasses field by field on every
    # conversion costs more than the rounding.
    name = ctype.name
    if name == "float":
        return float(np.float32(value))
    if name == "double":
        return float(value)
    if name == "half":
        return float(np.float16(value))
    raise TypeError(f"not a float type: {ctype}")


def convert_scalar(value, ctype: ScalarType):
    """Convert a Python number to ``ctype``'s value semantics."""
    if ctype.is_bool():
        return 1 if value else 0
    if ctype.is_integer():
        if isinstance(value, float):
            # C float→int conversion truncates toward zero.
            value = int(value)
        return wrap_int(int(value), ctype)
    if ctype.is_float():
        return round_float(float(value), ctype)
    raise TypeError(f"cannot convert value to {ctype}")


# The one dtype <-> C-type table: the numpy dtype that stores each scalar
# type.  ``bool`` and ``size_t`` are stored like ``uchar`` and ``ulong``,
# the types their dtypes map back to.
_NUMPY_DTYPES = {
    "bool": np.uint8,
    "char": np.int8,
    "uchar": np.uint8,
    "short": np.int16,
    "ushort": np.uint16,
    "int": np.int32,
    "uint": np.uint32,
    "long": np.int64,
    "ulong": np.uint64,
    "size_t": np.uint64,
    "float": np.float32,
    "double": np.float64,
    "half": np.float16,
}


def numpy_dtype(ctype: CType) -> np.dtype:
    """The numpy dtype used to store values of ``ctype`` in buffers."""
    if isinstance(ctype, ScalarType) and ctype.name in _NUMPY_DTYPES:
        return np.dtype(_NUMPY_DTYPES[ctype.name])
    if isinstance(ctype, VectorType):
        return np.dtype(_NUMPY_DTYPES[ctype.element.name])
    raise TypeError(f"no numpy dtype for {ctype}")


_CTYPE_OF_DTYPE = {np.dtype(dtype): SCALAR_TYPES[name]
                   for name, dtype in _NUMPY_DTYPES.items()
                   if name not in ("bool", "size_t")}


def ctype_from_numpy(dtype: np.dtype) -> ScalarType:
    """Inverse of :func:`numpy_dtype` for scalar dtypes."""
    dtype = np.dtype(dtype)
    if dtype not in _CTYPE_OF_DTYPE:
        raise TypeError(f"unsupported dtype {dtype}")
    return _CTYPE_OF_DTYPE[dtype]
