"""OpenCL-C builtin functions: work-item queries, math, common, integer,
geometric and relational functions, plus ``convert_*`` / ``as_*``.

The type checker and both execution backends resolve builtin calls via
:func:`resolve_builtin`, which returns the result type, the parameter
types the arguments convert to, a scalar-level Python implementation and
an operation-count cost used by the device timing model.
"""

from __future__ import annotations

import math
import pickle
import struct
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from .ctypes_ import (
    CType,
    DOUBLE,
    FLOAT,
    INT,
    SCALAR_TYPES,
    SIZE_T,
    ScalarType,
    UCHAR,
    UINT,
    ULONG,
    USHORT,
    VOID,
    VectorType,
    integer_promote,
    usual_arithmetic_conversions,
    wrap_int,
)
from .execmodel import convert_value
from .values import VecValue

# Memory-fence flag values for barrier()/mem_fence().
CLK_LOCAL_MEM_FENCE = 1
CLK_GLOBAL_MEM_FENCE = 2

BUILTIN_CONSTANTS = {
    "CLK_LOCAL_MEM_FENCE": CLK_LOCAL_MEM_FENCE,
    "CLK_GLOBAL_MEM_FENCE": CLK_GLOBAL_MEM_FENCE,
    "M_PI": math.pi,
    "M_PI_F": math.pi,
    "M_E": math.e,
    "M_E_F": math.e,
    "MAXFLOAT": 3.402823466e38,
    "INFINITY": math.inf,
    "NAN": math.nan,
    "FLT_MAX": 3.402823466e38,
    "FLT_MIN": 1.175494351e-38,
    "FLT_EPSILON": 1.192092896e-07,
    "INT_MAX": 2147483647,
    "INT_MIN": -2147483648,
    "UINT_MAX": 4294967295,
    "CHAR_MAX": 127,
    "CHAR_MIN": -128,
    "UCHAR_MAX": 255,
    "SHRT_MAX": 32767,
    "SHRT_MIN": -32768,
    "USHRT_MAX": 65535,
    "LONG_MAX": 9223372036854775807,
    "LONG_MIN": -9223372036854775808,
}

# Work-item query functions: name -> (takes_dim_argument, result type).
WORKITEM_FUNCTIONS = {
    "get_global_id": (True, SIZE_T),
    "get_local_id": (True, SIZE_T),
    "get_group_id": (True, SIZE_T),
    "get_global_size": (True, SIZE_T),
    "get_local_size": (True, SIZE_T),
    "get_num_groups": (True, SIZE_T),
    "get_global_offset": (True, SIZE_T),
    "get_work_dim": (False, UINT),
}


class BuiltinError(Exception):
    """A builtin call with arguments no overload accepts."""


@dataclass(frozen=True)
class ResolvedBuiltin:
    name: str
    result_type: CType
    param_types: Tuple[CType, ...]
    impl: Optional[Callable]
    cost: int
    # 'plain': impl over converted scalar args (vectors applied per lane)
    # 'whole': impl receives whole (possibly vector) values
    # 'workitem': backend supplies the value from the work-item context
    # 'barrier': synchronization point
    kind: str = "plain"

    def __reduce__(self):
        # ``impl`` is a closure: pickles as its name and exact parameter
        # types, resolved again on load (deterministic on those).
        return _resolve_again, (self.name, self.param_types)


def _resolve_again(name: str, param_types: Tuple[CType, ...]) -> ResolvedBuiltin:
    resolved = resolve_builtin(name, list(param_types))
    if resolved is None:
        raise pickle.UnpicklingError(f"builtin {name!r} no longer resolves")
    return resolved


def _trap(code: int):
    from .memory import KernelFault

    raise KernelFault(f"kernel trap: runtime check failed (code {code})")


def is_builtin_name(name: str) -> bool:
    return (
        name in WORKITEM_FUNCTIONS
        or name in ("barrier", "mem_fence", "read_mem_fence", "write_mem_fence", "__scl_trap")
        or _strip_prefix(name) in _FLOAT_UNARY
        or _strip_prefix(name) in _FLOAT_BINARY
        or name in _FLOAT_TERNARY
        or name in _COMMON
        or name in _INTEGER
        or name in _GEOMETRIC
        or name in ("select", "sign", "isnan", "isinf", "isfinite")
        or name.startswith("convert_")
        or name.startswith("as_")
        or name.startswith("vload")
        or name.startswith("vstore")
    )


def _strip_prefix(name: str) -> str:
    """``native_`` and ``half_`` variants behave like the plain function."""
    for prefix in ("native_", "half_"):
        if name.startswith(prefix):
            return name[len(prefix):]
    return name


# -- implementation helpers -------------------------------------------------


def _safe(func: Callable) -> Callable:
    """Wrap a math function to return NaN/inf instead of raising."""

    def wrapper(*args):
        try:
            return func(*args)
        except (ValueError, OverflowError):
            if any(isinstance(a, float) and math.isnan(a) for a in args):
                return math.nan
            return math.nan

    return wrapper


def _rsqrt(x: float) -> float:
    return 1.0 / math.sqrt(x) if x > 0 else math.inf


def _exp10(x: float) -> float:
    return 10.0 ** x


def _fract_trunc(x: float) -> float:
    return x - math.floor(x)


def _round_half_away(x: float) -> float:
    # OpenCL round(): round half away from zero
    return float(math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5))


# name -> (impl, cost)
_FLOAT_UNARY = {
    "sqrt": (_safe(math.sqrt), 4),
    "rsqrt": (_rsqrt, 4),
    "cbrt": (lambda x: math.copysign(abs(x) ** (1.0 / 3.0), x), 8),
    "sin": (math.sin, 8),
    "cos": (math.cos, 8),
    "tan": (_safe(math.tan), 12),
    "asin": (_safe(math.asin), 12),
    "acos": (_safe(math.acos), 12),
    "atan": (math.atan, 12),
    "sinh": (_safe(math.sinh), 12),
    "cosh": (_safe(math.cosh), 12),
    "tanh": (math.tanh, 12),
    "asinh": (_safe(math.asinh), 12),
    "acosh": (_safe(math.acosh), 12),
    "atanh": (_safe(math.atanh), 12),
    "exp": (_safe(math.exp), 8),
    "exp2": (_safe(lambda x: 2.0 ** x), 8),
    "exp10": (_safe(_exp10), 8),
    "expm1": (_safe(math.expm1), 8),
    "log": (_safe(math.log), 8),
    "log2": (_safe(math.log2), 8),
    "log10": (_safe(math.log10), 8),
    "log1p": (_safe(math.log1p), 8),
    "fabs": (abs, 1),
    # float results, as in C: an int 0 would lose its sign under unary minus
    # in the per-item engine, where lanes of the lockstep engine keep it.
    "floor": (lambda x: float(math.floor(x)), 1),
    "ceil": (lambda x: float(math.ceil(x)), 1),
    "trunc": (lambda x: float(math.trunc(x)), 1),
    "round": (_round_half_away, 1),
    "rint": (lambda x: float(np_rint(x)), 1),
    "degrees": (math.degrees, 2),
    "radians": (math.radians, 2),
    "erf": (math.erf, 16),
    "erfc": (math.erfc, 16),
    "tgamma": (_safe(math.gamma), 20),
    "lgamma": (_safe(math.lgamma), 20),
    "fract": (_fract_trunc, 2),
    "recip": (_safe(lambda x: 1.0 / x), 4),
}


def np_rint(x: float) -> float:
    """Round half to even (banker's rounding)."""
    floor_x = math.floor(x)
    diff = x - floor_x
    if diff > 0.5:
        return floor_x + 1.0
    if diff < 0.5:
        return floor_x
    return floor_x if floor_x % 2 == 0 else floor_x + 1.0


_FLOAT_BINARY = {
    "pow": (_safe(lambda x, y: math.pow(x, y)), 16),
    "powr": (_safe(lambda x, y: math.pow(x, y)), 16),
    "fmod": (_safe(math.fmod), 8),
    "remainder": (_safe(math.remainder), 8),
    "fmin": (lambda x, y: y if (x != x or y < x) and y == y else (x if x == x else y), 1),
    "fmax": (lambda x, y: y if (x != x or y > x) and y == y else (x if x == x else y), 1),
    "atan2": (_safe(math.atan2), 16),
    "hypot": (math.hypot, 8),
    "copysign": (math.copysign, 1),
    "fdim": (lambda x, y: max(x - y, 0.0), 2),
    "nextafter": (math.nextafter, 2),
    "maxmag": (lambda x, y: x if abs(x) > abs(y) else (y if abs(y) > abs(x) else max(x, y)), 2),
    "minmag": (lambda x, y: x if abs(x) < abs(y) else (y if abs(y) < abs(x) else min(x, y)), 2),
    "ldexp": (_safe(lambda x, n: math.ldexp(x, int(n))), 2),
    "pown": (_safe(lambda x, n: math.pow(x, n)), 16),
    "rootn": (_safe(lambda x, n: math.copysign(abs(x) ** (1.0 / n), x) if n % 2 else x ** (1.0 / n)), 16),
    "step": (lambda edge, x: 0.0 if x < edge else 1.0, 1),
}

_FLOAT_TERNARY = {
    "fma": (lambda a, b, c: a * b + c, 1),
    "mad": (lambda a, b, c: a * b + c, 1),
    "mix": (lambda x, y, a: x + (y - x) * a, 2),
    "smoothstep": (None, 6),  # handled explicitly below (needs clamping)
}


def _smoothstep(edge0: float, edge1: float, x: float) -> float:
    if edge1 == edge0:
        return 0.0 if x < edge0 else 1.0
    t = max(0.0, min(1.0, (x - edge0) / (edge1 - edge0)))
    return t * t * (3.0 - 2.0 * t)


_FLOAT_TERNARY["smoothstep"] = (_smoothstep, 6)

# Functions generic over both integers and floats.
_COMMON = {
    "min": (lambda x, y: y if y < x else x, 1),
    "max": (lambda x, y: y if y > x else x, 1),
    "clamp": (lambda x, lo, hi: min(max(x, lo), hi), 2),
}

_INTEGER = {
    "abs": (abs, 1),
    "abs_diff": (lambda x, y: abs(x - y), 2),
    "add_sat": (None, 2),  # resolved specially (needs the type bounds)
    "sub_sat": (None, 2),
    "mul24": (lambda x, y: x * y, 1),
    "mad24": (lambda x, y, z: x * y + z, 1),
    "mad_hi": (None, 2),
    "mul_hi": (None, 2),
    "popcount": (None, 2),
    "clz": (None, 2),
    "rotate": (None, 2),
    "hadd": (lambda x, y: (x + y) >> 1, 2),
    "rhadd": (lambda x, y: (x + y + 1) >> 1, 2),
}

_GEOMETRIC = {"dot", "length", "distance", "normalize", "cross", "fast_length", "fast_distance", "fast_normalize"}


def _float_kind(arg_types: Sequence[CType]) -> ScalarType:
    """The scalar float type a float builtin computes in."""
    for ctype in arg_types:
        element = ctype.element if isinstance(ctype, VectorType) else ctype
        if isinstance(element, ScalarType) and element == DOUBLE:
            return DOUBLE
    return FLOAT


def _broadcast_type(arg_types: Sequence[CType], scalar: ScalarType) -> CType:
    """Vector type if any argument is a vector, else ``scalar``."""
    width = None
    for ctype in arg_types:
        if isinstance(ctype, VectorType):
            if width is not None and width != ctype.width:
                raise BuiltinError("mixed vector widths in builtin call")
            width = ctype.width
    return VectorType(scalar, width) if width is not None else scalar


def _check_arity(name: str, arg_types: Sequence[CType], expected: int) -> None:
    if len(arg_types) != expected:
        raise BuiltinError(f"{name}() expects {expected} argument(s), got {len(arg_types)}")


def _require_arithmetic(name: str, arg_types: Sequence[CType]) -> None:
    for ctype in arg_types:
        element = ctype.element if isinstance(ctype, VectorType) else ctype
        if not (isinstance(element, ScalarType) and element.is_arithmetic()):
            raise BuiltinError(f"{name}() requires arithmetic arguments, got {ctype}")


def resolve_builtin(name: str, arg_types: Sequence[CType]) -> Optional[ResolvedBuiltin]:
    """Resolve a builtin call; ``None`` if ``name`` is not a builtin."""
    if name in WORKITEM_FUNCTIONS:
        takes_dim, result = WORKITEM_FUNCTIONS[name]
        expected = 1 if takes_dim else 0
        _check_arity(name, arg_types, expected)
        params = (UINT,) if takes_dim else ()
        return ResolvedBuiltin(name, result, params, None, 1, "workitem")

    if name in ("barrier", "mem_fence", "read_mem_fence", "write_mem_fence"):
        _check_arity(name, arg_types, 1)
        return ResolvedBuiltin(name, VOID, (UINT,), None, 1, "barrier" if name == "barrier" else "plain")

    if name == "__scl_trap":
        # Simulator intrinsic: abort the kernel with a runtime-check
        # failure (used by generated code, e.g. MapOverlap's get()).
        _check_arity(name, arg_types, 1)
        return ResolvedBuiltin(name, VOID, (INT,), _trap, 0)

    stripped = _strip_prefix(name)
    if stripped in _FLOAT_UNARY:
        _check_arity(name, arg_types, 1)
        _require_arithmetic(name, arg_types)
        scalar = _float_kind(arg_types)
        result = _broadcast_type(arg_types, scalar)
        impl, cost = _FLOAT_UNARY[stripped]
        params = (result,)
        return ResolvedBuiltin(name, result, params, impl, cost)

    if stripped in _FLOAT_BINARY:
        _check_arity(name, arg_types, 2)
        _require_arithmetic(name, arg_types)
        scalar = _float_kind(arg_types)
        result = _broadcast_type(arg_types, scalar)
        impl, cost = _FLOAT_BINARY[stripped]
        return ResolvedBuiltin(name, result, (result, result), impl, cost)

    if name in _FLOAT_TERNARY:
        _check_arity(name, arg_types, 3)
        _require_arithmetic(name, arg_types)
        scalar = _float_kind(arg_types)
        result = _broadcast_type(arg_types, scalar)
        impl, cost = _FLOAT_TERNARY[name]
        return ResolvedBuiltin(name, result, (result, result, result), impl, cost)

    if name in _COMMON:
        expected = 3 if name == "clamp" else 2
        _check_arity(name, arg_types, expected)
        _require_arithmetic(name, arg_types)
        elements = [t.element if isinstance(t, VectorType) else t for t in arg_types]
        scalar = elements[0]
        for other in elements[1:]:
            scalar = usual_arithmetic_conversions(scalar, other)
        result = _broadcast_type(arg_types, scalar)
        impl, cost = _COMMON[name]
        return ResolvedBuiltin(name, result, tuple([result] * expected), impl, cost)

    if name in _INTEGER:
        return _resolve_integer(name, arg_types)

    if name in _GEOMETRIC:
        return _resolve_geometric(name, arg_types)

    if name == "select":
        _check_arity(name, arg_types, 3)
        result = arg_types[0]
        return ResolvedBuiltin(name, result, (result, result, arg_types[2]), None, 1, "whole")

    if name == "sign":
        _check_arity(name, arg_types, 1)
        scalar = _float_kind(arg_types)
        result = _broadcast_type(arg_types, scalar)
        impl = lambda x: 0.0 if (x != x or x == 0.0) else math.copysign(1.0, x)  # noqa: E731
        return ResolvedBuiltin(name, result, (result,), impl, 1)

    if name in ("isnan", "isinf", "isfinite"):
        _check_arity(name, arg_types, 1)
        impls = {
            "isnan": lambda x: int(x != x),
            "isinf": lambda x: int(math.isinf(x)),
            "isfinite": lambda x: int(math.isfinite(x)),
        }
        scalar = _float_kind(arg_types)
        result = _broadcast_type(arg_types, INT)
        param = _broadcast_type(arg_types, scalar)
        return ResolvedBuiltin(name, result, (param,), impls[name], 1)

    if name.startswith("convert_"):
        return _resolve_convert(name, arg_types)
    if name.startswith("as_"):
        return _resolve_as_type(name, arg_types)
    if name.startswith("vload") or name.startswith("vstore"):
        return _resolve_vload_vstore(name, arg_types)
    return None


def _resolve_vload_vstore(name: str, arg_types: Sequence[CType]) -> Optional[ResolvedBuiltin]:
    is_load = name.startswith("vload")
    digits = name[len("vload"):] if is_load else name[len("vstore"):]
    if digits not in ("2", "3", "4", "8", "16"):
        return None
    width = int(digits)
    from .ctypes_ import PointerType, VectorType as _Vec

    pointer_index = 1 if is_load else 2
    _check_arity(name, arg_types, 2 if is_load else 3)
    pointer = arg_types[pointer_index]
    if not isinstance(pointer, PointerType) or not isinstance(pointer.pointee, ScalarType):
        raise BuiltinError(f"{name}() requires a scalar pointer argument")
    element = pointer.pointee
    vector = _Vec(element, width)

    if is_load:
        def impl(offset, ptr, _w=width, _e=element):
            base = int(offset) * _w
            return VecValue(_e, [ptr.load(base + i) for i in range(_w)])

        return ResolvedBuiltin(name, vector, (SIZE_T, pointer), impl, width, "whole")

    def impl(vec, offset, ptr, _w=width):
        base = int(offset) * _w
        for i, component in enumerate(vec.components):
            ptr.store(base + i, component)
        return None

    return ResolvedBuiltin(name, VOID, (vector, SIZE_T, pointer), impl, width, "whole")


def _resolve_integer(name: str, arg_types: Sequence[CType]) -> ResolvedBuiltin:
    arity = {"abs": 1, "popcount": 1, "clz": 1}.get(name, 3 if name in ("mad24", "mad_hi") else 2)
    _check_arity(name, arg_types, arity)
    elements = [t.element if isinstance(t, VectorType) else t for t in arg_types]
    for element in elements:
        if not (isinstance(element, ScalarType) and element.is_integer()):
            raise BuiltinError(f"{name}() requires integer arguments, got {arg_types}")
    scalar = elements[0]
    for other in elements[1:]:
        scalar = usual_arithmetic_conversions(integer_promote(scalar), integer_promote(other))
    if name in ("mul24", "mad24"):
        scalar = INT if scalar.signed else UINT

    impl, cost = _INTEGER[name]
    if name == "abs":
        unsigned = {"char": UCHAR, "short": USHORT, "int": UINT, "long": ULONG}
        result_scalar = unsigned.get(scalar.name, scalar)
        result = _broadcast_type(arg_types, result_scalar)
        return ResolvedBuiltin(name, result, ( _broadcast_type(arg_types, scalar),), abs, cost)

    if impl is None:
        bits = scalar.bits
        if name in ("add_sat", "sub_sat"):
            lo, hi = scalar.min_value(), scalar.max_value()
            op = (lambda x, y: x + y) if name == "add_sat" else (lambda x, y: x - y)
            impl = lambda x, y, _op=op, _lo=lo, _hi=hi: min(max(_op(x, y), _lo), _hi)  # noqa: E731
        elif name in ("mul_hi", "mad_hi"):
            if name == "mul_hi":
                impl = lambda x, y, _b=bits: (x * y) >> _b  # noqa: E731
            else:
                impl = lambda x, y, z, _b=bits: ((x * y) >> _b) + z  # noqa: E731
        elif name == "popcount":
            mask = (1 << bits) - 1
            impl = lambda x, _m=mask: bin(x & _m).count("1")  # noqa: E731
        elif name == "clz":
            impl = lambda x, _b=bits: _b - (x & ((1 << _b) - 1)).bit_length()  # noqa: E731
        elif name == "rotate":
            mask = (1 << bits) - 1
            impl = lambda x, n, _b=bits, _m=mask: (((x & _m) << (n % _b)) | ((x & _m) >> (_b - n % _b))) & _m  # noqa: E731
    result = _broadcast_type(arg_types, scalar)
    return ResolvedBuiltin(name, result, tuple([result] * arity), impl, cost)


def _resolve_geometric(name: str, arg_types: Sequence[CType]) -> ResolvedBuiltin:
    base = name[5:] if name.startswith("fast_") else name
    arity = 1 if base in ("length", "normalize") else 2
    _check_arity(name, arg_types, arity)
    scalar = _float_kind(arg_types)
    width = max((t.width for t in arg_types if isinstance(t, VectorType)), default=1)
    vec = VectorType(scalar, width) if width > 1 else scalar

    def as_list(v):
        return list(v.components) if hasattr(v, "components") else [v]

    if base == "dot":
        impl = lambda a, b: sum(x * y for x, y in zip(as_list(a), as_list(b)))  # noqa: E731
        return ResolvedBuiltin(name, scalar, (vec, vec), impl, 2 * width, "whole")
    if base == "length":
        impl = lambda a: math.sqrt(sum(x * x for x in as_list(a)))  # noqa: E731
        return ResolvedBuiltin(name, scalar, (vec,), impl, 2 * width + 4, "whole")
    if base == "distance":
        impl = lambda a, b: math.sqrt(sum((x - y) ** 2 for x, y in zip(as_list(a), as_list(b))))  # noqa: E731
        return ResolvedBuiltin(name, scalar, (vec, vec), impl, 3 * width + 4, "whole")
    if base == "normalize":
        def impl(a, _scalar=scalar):
            comps = as_list(a)
            norm = math.sqrt(sum(x * x for x in comps))
            if norm == 0.0:
                return a
            if hasattr(a, "components"):
                return VecValue(_scalar, [x / norm for x in comps])
            return comps[0] / norm

        return ResolvedBuiltin(name, vec, (vec,), impl, 3 * width + 8, "whole")
    if base == "cross":
        if width not in (3, 4):
            raise BuiltinError("cross() requires 3- or 4-component vectors")

        def impl(a, b, _scalar=scalar, _w=width):
            ax, ay, az = a.components[0], a.components[1], a.components[2]
            bx, by, bz = b.components[0], b.components[1], b.components[2]
            out = [ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx]
            if _w == 4:
                out.append(0.0)
            return VecValue(_scalar, out)

        return ResolvedBuiltin(name, vec, (vec, vec), impl, 9, "whole")
    raise BuiltinError(f"unknown geometric function {name!r}")  # pragma: no cover


def _resolve_convert(name: str, arg_types: Sequence[CType]) -> ResolvedBuiltin:
    _check_arity(name, arg_types, 1)
    spec = name[len("convert_"):]
    for mode in ("_sat_rte", "_sat_rtz", "_sat", "_rte", "_rtz", "_rtp", "_rtn"):
        if spec.endswith(mode):
            spec = spec[: -len(mode)]
            break
    from .ctypes_ import make_vector_type

    target: Optional[CType] = SCALAR_TYPES.get(spec) or make_vector_type(spec)
    if target is None:
        raise BuiltinError(f"unknown conversion target in {name!r}")
    return ResolvedBuiltin(name, target, (target,), lambda x: x, 1)


def _resolve_as_type(name: str, arg_types: Sequence[CType]) -> ResolvedBuiltin:
    _check_arity(name, arg_types, 1)
    spec = name[len("as_"):]
    target = SCALAR_TYPES.get(spec)
    if target is None or not isinstance(arg_types[0], ScalarType):
        raise BuiltinError(f"as_{spec} is only supported for scalar types")
    source = arg_types[0]
    if source.sizeof() != target.sizeof():
        raise BuiltinError(f"as_{spec} requires same-size source, got {source}")

    fmt = {("float", 4): "<f", ("double", 8): "<d"}
    int_fmt = {4: "<I", 8: "<Q"}

    def impl(x, _src=source, _dst=target):
        size = _src.sizeof()
        if _src.is_float():
            raw = struct.pack(fmt[(_src.name, size)], x)
        else:
            raw = struct.pack(int_fmt[size], x & ((1 << (size * 8)) - 1))
        if _dst.is_float():
            return struct.unpack(fmt[(_dst.name, size)], raw)[0]
        value = struct.unpack(int_fmt[size], raw)[0]
        return wrap_int(value, _dst)

    if source.sizeof() not in (4, 8):
        raise BuiltinError(f"as_{spec} supports only 4- and 8-byte types")
    return ResolvedBuiltin(name, target, (source,), impl, 0)


def apply_builtin(resolved: ResolvedBuiltin, args: Sequence):
    """Apply a resolved builtin to runtime argument values (scalars
    and/or :class:`VecValue`): arguments convert to the parameter types,
    a ``plain`` builtin over vectors applies per component."""
    converted = [convert_value(arg, param) for arg, param in zip(args, resolved.param_types)]
    if resolved.kind == "whole":
        if resolved.name == "select":
            a, b, c = converted
            if isinstance(c, VecValue):
                a_components = a.components if isinstance(a, VecValue) else [a] * c.width
                b_components = b.components if isinstance(b, VecValue) else [b] * c.width
                element = a.element_type if isinstance(a, VecValue) else resolved.result_type.element
                out = [bc if cc else ac for ac, bc, cc in zip(a_components, b_components, c.components)]
                return VecValue(element, out)
            return b if c else a
        result = resolved.impl(*converted)
    elif isinstance(resolved.result_type, VectorType) and any(isinstance(a, VecValue) for a in converted):
        width = resolved.result_type.width
        lanes = [arg.components if isinstance(arg, VecValue) else [arg] * width for arg in converted]
        return VecValue(resolved.result_type.element, [resolved.impl(*lane_args) for lane_args in zip(*lanes)])
    else:
        result = resolved.impl(*converted)
    return convert_value(result, resolved.result_type)
