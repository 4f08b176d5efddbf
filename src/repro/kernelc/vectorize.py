"""The lockstep NDRange engine, compiled once per kernel.

Runs a type-checked kernel over every selected work-item of an NDRange
at once with numpy array operations: one statement executes for all
active lanes under a boolean mask.  ``if``/``?:`` become masked selects,
loops iterate over a shrinking live-lane mask, buffer accesses become
gathers/scatters and ``barrier()`` a per-group all-or-none mask check.

:func:`plan_for` *compiles* the kernel the first time it is launched:
:class:`_LaneCompiler` walks the AST once and emits one straight-line
Python function per C function (``plan.source``), cached on the
:class:`~.compiler.CompiledKernel` and — as a code object, when the
program was built through it — in the program cache, where the first
launch in a later process finds it and generates nothing
(:func:`_generate` emits and compiles, :func:`_materialize` runs a
module, new or restored, in its namespace).  It re-decides nothing about C:
every expression lowers through the one lowering it inherits from
:class:`~.compiler._FunctionCompiler`; :class:`_LaneSpelling` overrides
only the leaf emitters (``.gather``/``.scatter``, an operator, a
conversion, ``_divide_l``, an assignment under a mask, …), and the
generator adds what is inherently masked — statement control flow,
``&&``/``||``/``?:``, uniformity, and the op charges and load-CSE
decisions the lowering recorded on the checked AST (``node.charge`` /
``node.cse_source``), which a program restored from the cache carries
too.  Everything static is decided there — constant folding, dispatch on
node type, ``op_type``, signedness and conversion pair, C variables as
Python locals, statically uniform subexpressions as scalar code, and the
*kind* of every emitted subexpression (:class:`_Code`: a uniform scalar
or lanes, and the dtype), so that an operation whose operands' kinds are
known is spelled in NumPy or Python directly (``(v_x * v_y)``,
``np.where(m, new, old)``) and a helper that decides a kind at run time
(``_f_mul``, ``_um64``, ``_truthy``, ``_merge``, ``_cast`` …) is called
only where a launch decides it; ``docs/kernelc.md`` has the kind rule,
the list and a reading guide.
:func:`execute` then only binds arguments, fetches the memoized launch
geometry, calls the function and does the warp accounting — for one
launch, or for the *sibling* launches of a skeleton call on several
devices at once: one run over the union of their lanes, each pointer
argument an arena of the siblings' storages, every charge split back
per sibling (``docs/kernelc.md``, "Sibling runs").

An idle lane costs as much as an active one, so a *compactable region* —
a branch of an ``if`` or a loop body under a lane-varying condition
(:meth:`_LaneCompiler.compactable`) — is bracketed by :func:`_region`
and :meth:`_Region.leave`: when few of many lanes are active it runs on
those alone, with a sub-run, a sliced context and sliced live-ins, and
everything it charged or wrote is put back where the full run would
have left it (``docs/kernelc.md``, "Compacted regions").

The helpers the generated code calls (the runtime library below) carry
the semantics, held to a *bit-exactness contract*: for any conforming
kernel, output buffers and every ``ExecutionCounters`` field equal those
of the per-item module the same lowering writes, run one work-item at a
time (the tests' oracle, ``tests/kernelc/peritem.py``).  That module
computes floats in double and signed ints at arbitrary precision,
masking unsigned ints at every op; here lane values live in
``float64``/``int64`` arrays (unsigned 8-byte values as 64-bit
patterns), *uniform* values stay exact Python scalars, and what an
inactive lane holds is unspecified.

Intentional differences (documented, all under undefined behaviour):

* Barrier divergence is checked per barrier *statement* (each work-group
  must have all or none of its items at that statement), stricter than
  the per-item round-robin check for kernels reaching *different*
  barrier statements in divergent branches.
* Assigning pointer values that diverge per-lane to different objects
  raises :class:`VectorizeError` (no numpy representation exists).
* With intra-group data races, lockstep statement order differs from
  the sequential per-item order.
* Two casts of one pointer to one type compare equal (one view of the
  storage, :meth:`VPtr.retyped`); per item, each cast is a view of its
  own.

Vector types (``floatN`` …) run on lanes too: a uniform vector is the
scalar :class:`~.values.VecValue`, a lane-varying one a ``(width,
lanes)`` array whose rows are its components, so a scalar lane array
broadcasts against it and ``_merge`` selects on it unchanged ("Vector
types" in ``docs/kernelc.md``).  So do pointer casts (a view of the
same storage at the new element type) and ``__local`` scalars (an array
of one, as the lowering spells them).  Every kernel the type checker
accepts has a plan; one whose control flow nests deeper than Python
allows blocks fails to build with a :class:`CompileError`.
"""

from __future__ import annotations

import math
import operator
import re
from collections import OrderedDict, namedtuple
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

import numpy as np

from . import ast, progcache
from .builtins import ResolvedBuiltin, _strip_prefix, apply_builtin
from .compiler import (_CMP_OPS, _FunctionCompiler, _ProgramCompiler, _Spelling, CompiledKernel,
                       GeneratedModule, _is_pointer, _is_unsigned)
from .ctypes_ import (
    ArrayType,
    CType,
    PointerType,
    ScalarType,
    VectorType,
    convert_scalar,
    numpy_dtype,
)
from .diagnostics import CompileError, Diagnostic, Severity
from .execmodel import (WARP_SIZE, binary_value, c_fdiv, c_idiv, c_imod, compare_value,
                        convert_value, copy_value)
from .memory import (NULL_POINTER, ArrayRef, KernelFault, MemoryCounters, NullPointer, Pointer,
                     allocate_array)
from .values import VecValue

_I64 = np.int64
_U64 = np.uint64
_TWO63 = 1 << 63
_TWO64 = 1 << 64
_ID_QUERIES = ("get_global_id", "get_local_id", "get_group_id")
_FENCES = ("mem_fence", "read_mem_fence", "write_mem_fence")
ndarray = np.ndarray


class VectorizeError(RuntimeError):
    """A kernel hit a runtime situation the lockstep engine cannot
    represent (currently: merging divergent pointer values)."""


# ---------------------------------------------------------------------------
# What the generator needs to know of each function, found in one walk.
# ---------------------------------------------------------------------------


class _FunctionFacts:
    """What one walk of a function body finds: the user functions it
    calls, the C names written anywhere but in the increment of a ``for``
    whose init declares them (only the others can be uniform) and its
    return statements."""

    def __init__(self, fn: ast.FunctionDef):
        self.callees: List[ast.FunctionDef] = []
        self.returns: List[ast.ReturnStmt] = []
        writes: Dict[str, int] = {}
        loops = []
        for node in ast.walk(fn.body):
            name = _written_name(node)
            if name is not None:
                writes[name] = writes.get(name, 0) + 1
            elif isinstance(node, ast.Call) and getattr(node, "kind", "") == "user":
                self.callees.append(node.callee_def)
            elif isinstance(node, ast.ReturnStmt):
                self.returns.append(node)
            elif isinstance(node, ast.ForStmt) and isinstance(node.init, ast.DeclStmt) \
                    and node.increment is not None:
                loops.append(node)
        for loop in loops:
            declared = {decl.name for decl in loop.init.decls}
            for node in ast.walk(loop.increment):
                if _written_name(node) in declared:
                    writes[_written_name(node)] -= 1
        self.written = {name for name, count in writes.items() if count > 0}


def _written_name(node) -> Optional[str]:
    target = ast.written_lvalue(node)
    return target.name if isinstance(target, ast.Identifier) else None


def _functions(kernel: CompiledKernel) -> List[tuple]:
    """``[(function, facts)]`` reachable from the kernel, every caller
    before its callees, so the kernel first (the type checker has made
    sure every callee is defined and none recurses)."""
    order: List[tuple] = []
    seen: set = set()

    def visit(fn: ast.FunctionDef) -> None:
        if id(fn) not in seen:
            seen.add(id(fn))
            facts = _FunctionFacts(fn)
            for target in facts.callees:
                visit(target)
            order.append((fn, facts))

    visit(kernel.definition)
    return order[::-1]


#: What :func:`plan_for` caches on a kernel: the generated function and its
#: source.
_KernelPlan = namedtuple("_KernelPlan", "run source")


def plan_for(kernel: CompiledKernel, metrics=None) -> _KernelPlan:
    """The compiled lockstep plan for ``kernel``: restored from the
    program cache or generated on first use, and cached on the kernel.
    ``metrics``: the registry to count that first use on."""
    plan = kernel.__dict__.get("_vector_plan")
    if plan is None:
        plan = _restored_plan(kernel, metrics)
        if metrics is not None:
            metrics.counter("skelcl_program_codegen_total", engine="lockstep",
                            result="restored" if plan else "generated").inc()
        kernel._vector_plan = plan = plan or _generated_plan(kernel, metrics)
    return plan


def _restored_plan(kernel: CompiledKernel, metrics) -> Optional[_KernelPlan]:
    """The plan an earlier process generated for this kernel, if the
    program cache has it and it still loads and runs; no generator does."""
    return kernel.plan_path and progcache.load_plan(
        kernel.plan_path, lambda module: _materialize(kernel, module), metrics)


def _generated_plan(kernel: CompiledKernel, metrics) -> _KernelPlan:
    try:
        module = _generate(kernel, _functions(kernel))
    except SyntaxError as exc:  # Python caps block nesting and indentation depth
        raise CompileError([Diagnostic(
            Severity.ERROR, f"kernel {kernel.name!r}: control flow nested too deeply "
            f"for the lockstep engine ({exc.msg})", kernel.definition.span)],
            getattr(kernel.program, "source", None)) from None
    if kernel.plan_path:
        progcache.store_plan(kernel.plan_path, module, metrics)
    return _materialize(kernel, module)


# ---------------------------------------------------------------------------
# Runtime values: lane-wise pointers and arrays.
# ---------------------------------------------------------------------------


class VPtr:
    """A (possibly lane-varying) pointer into one flat numpy storage.

    ``offset`` is the logical element offset (Python int when uniform,
    int64 lanes array otherwise); ``base`` adds a per-lane storage-row
    origin, in scalars of the storage, for group-local and private
    allocations and for the arenas of a sibling run (None for storage
    shared by all lanes, e.g. the global buffers of one launch).
    ``span``: for lane offsets, what :meth:`_rows` derives from them once
    for every access at a uniform index; ``memo``: the last lane index
    :meth:`_rows` found in range on every lane, and its rows."""

    __slots__ = ("array", "element_type", "space", "tally", "length", "offset", "base", "span",
                 "memo")

    def __init__(self, array, element_type: ScalarType, space: str, tally,
                 length: int, offset, base):
        self.array = array
        self.element_type = element_type
        self.space = space
        self.tally = tally
        self.length = length
        self.offset = offset
        self.base = base
        self.span = self.memo = None

    def add(self, delta) -> "VPtr":
        if isinstance(delta, ndarray) or isinstance(self.offset, ndarray):
            offset = _int_lanes_pair(self.offset, delta)
        else:
            offset = self.offset + int(delta)
        return VPtr(self.array, self.element_type, self.space, self.tally,
                    self.length, offset, self.base)

    def diff(self, other):
        if isinstance(other, NullPointer):
            other.offset  # faults
        if not isinstance(other, VPtr) or self.array is not other.array:
            raise KernelFault("subtracting pointers into different objects")
        if isinstance(self.offset, ndarray) or isinstance(other.offset, ndarray):
            return _int_lanes_pair(self.offset, -_as_int_operand(other.offset))
        return self.offset - other.offset

    # -- lane-wise memory access ------------------------------------------

    def _rows(self, index, mask):
        """Storage rows for ``index`` (of a vector element: of its first
        component), bounds-checked for active lanes; rows of inactive
        lanes are unspecified but in range.  A ``(width, lanes)`` index
        reports the first faulting lane, and in it the first faulting
        component, as one work-item at a time does.  Lane offsets at a
        uniform index take one scalar check against their span — the
        least and greatest offset of any lane, and the rows they start
        at — and the per-lane check only when it fails.  A lane index of
        fewer than ``_PROBE_MIN_LANES`` elements in range on every lane,
        idle ones too, is remembered with its rows (``memo``, which holds
        the index, so its identity is never reused): a later access at
        that same index object returns those rows unchecked, whatever its
        mask.  A ``(width, lanes)`` index is never remembered: ``vload``
        and ``vstore`` build a fresh one at every access, which no later
        access could hit."""
        memo = self.memo
        if memo is not None and memo[0] is index:
            return memo[1]
        offset, uniform = self.offset, not isinstance(index, ndarray)
        remember = False
        if not uniform or isinstance(offset, ndarray):
            if uniform and offset.size >= _PROBE_MIN_LANES:
                span, width = self.span, _width(self.element_type)
                if span is None:
                    origin = offset if width == 1 else offset * width
                    if self.base is not None:
                        origin = origin + self.base
                    span = self.span = (int(offset.min()), int(offset.max()), origin)
                low, high, origin = span
                index = int(index)
                if 0 <= low + index and high + index < self.length:
                    return origin + index * width
            where = _int_lanes_pair(offset, index) if isinstance(offset, ndarray) or offset \
                else index
            bad = where.view(_U64) >= self.length  # negative rows wrap to huge ones
            if _any(bad):
                bad &= mask
                if _any(bad):
                    raise KernelFault(f"out-of-bounds {self.space} access: element "
                                      f"{int(where.T.flat[np.argmax(bad.T)])} of {self.length}")
                where = np.where(mask, where, 0)
            else:
                remember = not uniform and index.ndim == 1 and index.size < _PROBE_MIN_LANES
        else:
            where = offset + int(index)
            if not 0 <= where < self.length:
                raise KernelFault(
                    f"out-of-bounds {self.space} access: element {where} of {self.length}")
        if isinstance(self.element_type, VectorType):
            where = where * self.element_type.width
        rows = where if self.base is None else where + self.base
        if remember:
            self.memo = (index, rows)
        return rows

    def _charge(self, mask, store: bool, count: Optional[int] = None, width: int = 1) -> None:
        """Tally the active lanes of ``mask`` (``count`` of them, when
        the caller knows) as ``width`` accesses each; a sibling run's
        tally (:class:`_Split`) counts them per lane."""
        tally = self.tally
        if tally is None:
            return
        if tally.__class__ is _Split:
            tally.charge(self, store, mask, width)
            return
        if count is None:
            count = int(np.count_nonzero(mask))
        if width != 1:
            count *= width
        size = self.element_type.sizeof()
        if self.space in ("global", "constant"):
            if store:
                tally.global_stores += count
            else:
                tally.global_loads += count
            tally.global_bytes += count * size
        elif self.space == "local":
            if store:
                tally.local_stores += count
            else:
                tally.local_loads += count
            tally.local_bytes += count * size

    def gather(self, index, mask):
        rows = self._rows(index, mask)
        self._charge(mask, False)
        etype = self.element_type
        if isinstance(etype, VectorType):
            return self._gather_components(rows, etype)
        lanes = np.float64 if etype.is_float() else _I64
        if not isinstance(rows, ndarray):  # a scalar's load is lanes at any address
            return np.full(mask.shape, self.array[rows], lanes)
        return self.array[rows].astype(lanes)

    def _gather_components(self, rows, etype: VectorType):
        """The vectors at ``rows``: a VecValue at one row, a ``(width,
        lanes)`` array at lane rows."""
        width = etype.width
        if not isinstance(rows, ndarray):
            return VecValue.of_converted(etype.element, self.array[rows:rows + width].tolist())
        return self.array[rows + _COMPONENTS[width]].astype(_lane_dtype(etype.element))

    def _vector_rows(self, width: int, offset, mask, store: bool):
        """Rows of ``vload``/``vstore{width}`` at ``offset``: ``width``
        consecutive elements from element ``offset * width``, per lane."""
        index = _as_int_operand(offset) * width + _COMPONENTS[width]
        rows = self._rows(np.broadcast_to(index, (width, mask.size)), mask)
        self._charge(mask, store, width=width)
        return rows

    def vload(self, width: int, offset, mask):
        rows = self._vector_rows(width, offset, mask, store=False)
        return self.array[rows].astype(_lane_dtype(self.element_type))

    def vstore(self, width: int, value, offset, mask) -> None:
        self._store_components(self._vector_rows(width, offset, mask, store=True), value, mask)

    def _store_components(self, addresses: ndarray, value, mask) -> None:
        """Store the vector lanes ``value`` at ``(width, lanes)`` element
        ``addresses``, active lanes only, in lane order (a later lane's
        store wins, as when work-items store one after another)."""
        active = addresses.T[mask]
        values = np.broadcast_to(_vec_operand(value), addresses.shape).T[mask]
        self.array[active.ravel()] = values.ravel().astype(self.array.dtype)

    def scatter(self, index, value, mask) -> None:
        count = int(np.count_nonzero(mask))
        rows = self._rows(index, mask)
        self._charge(mask, True, count)
        etype = self.element_type
        if isinstance(etype, VectorType):
            if not isinstance(rows, ndarray):
                rows = np.full(mask.shape, rows, dtype=_I64)
            self._store_components(rows + _COMPONENTS[etype.width], value, mask)
            return
        partial = count != mask.size
        if not isinstance(rows, ndarray):
            rows = np.full(count, rows, dtype=_I64)
        elif partial:
            rows = rows[mask]
        if isinstance(value, ndarray):
            active = value[mask] if partial else value
            etype = self.element_type
            if etype.is_bool():
                active = active != 0
            elif etype.is_integer() and active.dtype.kind == "f":
                active = _float_lanes_to_int(active, None)
            self.array[rows] = active.astype(self.array.dtype)
        else:
            self.array[rows] = convert_scalar(value, self.element_type)

    def retyped(self, element_type: CType, mask, views: dict) -> "VPtr":
        """This pointer cast to point at ``element_type``: the storage
        viewed at the new scalar type, the offset and row origins
        rescaled, as :meth:`memory.Pointer.retyped` does for one
        work-item — a cast misaligned on an active lane faults, as does
        one to a scalar that does not divide a row.  ``views`` (the
        run's) keeps one view of a storage per dtype and one rescaled
        copy of a row origin array per scalar size, each mapped back to
        what it was made from, so casts on different branches give
        pointers ``_merge`` can join."""
        if element_type == self.element_type:
            return self
        itemsize = self.array.itemsize
        origin, row = views.get(id(self.array), (self.array, None))  # row: bytes
        if row is None:
            row = self.array.nbytes if self.base is None \
                else self.length * _width(self.element_type) * itemsize
        dtype = numpy_dtype(element_type.element if isinstance(element_type, VectorType)
                            else element_type)
        unit = _width(element_type) * dtype.itemsize
        start = _mul_index(self.offset, _width(self.element_type) * itemsize)  # bytes
        misaligned = start % unit
        if isinstance(misaligned, ndarray):
            misaligned = ((misaligned != 0) & mask).any()
        if misaligned or row % dtype.itemsize:
            raise KernelFault("misaligned pointer cast")
        array = origin if origin.dtype == dtype else views.get((id(origin), dtype))
        if array is None:
            array = views[(id(origin), dtype)] = origin.view(dtype)
            views[id(array)] = (origin, row)
        base = self.base
        if base is not None and itemsize != dtype.itemsize:
            root, size = views.get(id(base), (base, itemsize))  # size: of a scalar
            key = (id(root), size, dtype.itemsize)
            base = root if size == dtype.itemsize else views.get(key)
            if base is None:
                base = views[key] = root * size // dtype.itemsize
                views[id(base)] = (root, size)
        return VPtr(array, element_type, self.space, self.tally, row // unit, start // unit,
                    base)


class _Split:
    """The memory traffic of a sibling run, tallied per sibling into
    ``memories`` (one scratch ``MemoryCounters`` per sibling, added to the
    siblings' counters when the run ends).  Lanes are sibling-major,
    ``per`` to a sibling.  An access on every lane of the run (its mask
    ``full``) is counted once (``uniform``); any other adds its mask to a
    per-lane count of its kind of access (``lanes``) — at the lanes
    ``ix`` of the run, on a compacted region's (:meth:`subset`) — and
    :meth:`flush` sums those per sibling in one NumPy call.  ``stored``
    collects the ids of the storages stored to."""

    __slots__ = ("memories", "per", "full", "ix", "lanes", "uniform", "stored", "_last")

    def __init__(self, memories: list, per: int, full: Optional[ndarray]):
        self.memories, self.per, self.full, self.ix = memories, per, full, None
        self.lanes: Dict[tuple, ndarray] = {}  # access kind -> accesses per lane
        self.uniform: Dict[tuple, int] = {}  # access kind -> accesses on every lane
        self.stored: set = set()
        self._last = None

    def charge(self, pointer: VPtr, store: bool, mask: ndarray, width: int) -> None:
        if store:
            self.stored.add(id(pointer.array))
        kind = (pointer.space, store, pointer.element_type.sizeof())
        if mask is self.full:
            self.uniform[kind] = self.uniform.get(kind, 0) + width
            return
        lanes = self.lanes.get(kind)
        if lanes is None:
            lanes = self.lanes[kind] = np.zeros(len(self.memories) * self.per, dtype=_I64)
        if self.ix is not None:
            lanes[self.ix[mask]] += width  # a region's lanes are distinct
        elif width == 1:
            lanes += mask
        else:
            lanes += mask * width

    def subset(self, ix: ndarray) -> "_Split":
        """The tally on the current lanes ``ix`` (one per region entry:
        the live-in pointers of an entry share it)."""
        last = self._last
        if last is None or last[0] is not ix:
            sub = _Split(self.memories, self.per, None)
            sub.lanes, sub.uniform, sub.stored = self.lanes, self.uniform, self.stored
            sub.ix = ix if self.ix is None else self.ix[ix]
            last = self._last = (ix, sub)
        return last[1]

    def flush(self) -> None:
        """Tally every access, per sibling."""
        copies, per, kinds = len(self.memories), self.per, list(self.lanes)
        if kinds:
            sums = np.concatenate(list(self.lanes.values())).reshape(
                len(kinds), copies, per).sum(axis=2).tolist()
            for kind, counts in zip(kinds, sums):
                self._add(kind, counts, 1)
        for kind, accesses in self.uniform.items():
            self._add(kind, [per] * copies, accesses)

    def _add(self, kind: tuple, counts, accesses: int) -> None:
        """``accesses`` of ``kind`` on ``counts`` lanes of each sibling,
        as :meth:`VPtr._charge` counts one launch's (private traffic is
        free)."""
        space, store, size = kind
        if space not in ("global", "constant", "local"):
            return
        prefix = "local_" if space == "local" else "global_"
        field = prefix + ("stores" if store else "loads")
        for memory, count in zip(self.memories, counts):
            count *= accesses
            setattr(memory, field, getattr(memory, field) + count)
            setattr(memory, prefix + "bytes", getattr(memory, prefix + "bytes") + count * size)



class VArray:
    """What :class:`memory.ArrayRef` is to ``Pointer``, over a :class:`VPtr`."""

    __slots__ = ("pointer", "element")

    def __init__(self, pointer: VPtr, element: CType):
        self.pointer = pointer
        self.element = element

    def index(self, i) -> "VArray":
        assert isinstance(self.element, ArrayType), "scalar rows are accessed via the flat pointer"
        stride = self.element.flat_length()
        return VArray(self.pointer.add(_mul_index(i, stride)), self.element.element)

    def decayed(self) -> VPtr:
        if isinstance(self.element, ArrayType):
            raise KernelFault("cannot decay a multi-dimensional array to a flat pointer")
        return self.pointer


_POINTERS = (VPtr, VArray, NullPointer)

#: Per vector width, the column of component offsets that turns lane
#: rows ``(lanes,)`` into element addresses ``(width, lanes)``.
_COMPONENTS = {width: np.arange(width, dtype=_I64)[:, None] for width in (2, 3, 4, 8, 16)}


def _lane_dtype(element: ScalarType):
    """What lanes of ``element`` values are stored in."""
    return np.float64 if element.is_float() else _I64


def _width(ctype) -> int:
    """Scalars of storage per element of type ``ctype``."""
    return ctype.width if isinstance(ctype, VectorType) else 1


def _mul_index(i, stride: int):
    if isinstance(i, ndarray):
        return i * stride
    return int(i) * stride


# ---------------------------------------------------------------------------
# Runtime library: scalar-domain helpers (uniform Python values <-> lanes).
# The generated code calls these by the names in ``_LIBRARY``.
# ---------------------------------------------------------------------------


def _wrap_to_i64(value: int) -> int:
    """Two's-complement 64-bit pattern of an arbitrary Python int."""
    return ((int(value) + _TWO63) % _TWO64) - _TWO63


def _as_int_operand(v):
    """Numpy-safe form of an integer operand (arrays pass through)."""
    if isinstance(v, ndarray):
        return v
    return _I64(_wrap_to_i64(v))


def _as_float_operand(v):
    if isinstance(v, ndarray):
        return v if v.dtype.kind == "f" else v.astype(np.float64)
    return float(v)


def _int_lanes_pair(a, b):
    return _as_int_operand(a) + _as_int_operand(b)


def _is_float_value(v) -> bool:
    if isinstance(v, ndarray):
        return v.dtype.kind == "f"
    return isinstance(v, float)


def _float_lanes_to_int(values: ndarray, mask) -> ndarray:
    """Per-lane ``int(v)`` (truncation) with CPython's error behaviour
    (``values``: lanes, or a vector's ``(width, lanes)``)."""
    active = values if mask is None else values[..., mask]
    if np.isnan(active).any():
        raise ValueError("cannot convert float NaN to integer")
    if np.isinf(active).any():
        raise OverflowError("cannot convert float infinity to integer")
    truncated = np.trunc(values if mask is None else np.where(mask, values, 0.0))
    huge = np.abs(truncated) >= float(_TWO63)
    if not huge.any():
        return truncated.astype(_I64)
    out = np.empty(values.shape, dtype=_I64)
    np.copyto(out, truncated.astype(_I64, casting="unsafe"), where=~huge)
    for where in zip(*np.nonzero(huge)):
        out[where] = _wrap_to_i64(int(truncated[where]))
    return out


def _sw(v, bits: int):
    """``_sw{bits}`` of the scalar spelling, valid on both domains."""
    if not isinstance(v, ndarray):
        half = 1 << (bits - 1)
        return ((int(v) + half) & ((1 << bits) - 1)) - half
    if bits >= 64:
        return v  # int64 lanes already are the 64-bit pattern
    half = _I64(1 << (bits - 1))
    return ((v + half) & _I64((1 << bits) - 1)) - half


def _um64(v):
    """Unsigned 64-bit masking: lanes already hold the 64-bit pattern."""
    return v if isinstance(v, ndarray) else v & (_TWO64 - 1)


def _any(m: ndarray) -> bool:
    """``m.any()`` in one C call (``flat``: a vector's ``(width, lanes)``
    masks too)."""
    return m.size != 0 and bool(m.flat[m.argmax()])


def _zeros(mask: ndarray) -> ndarray:
    return np.zeros(mask.shape, dtype=bool)


def _truthy(value, mask: ndarray) -> ndarray:
    """The lanes of ``mask`` on which ``value`` is true."""
    if isinstance(value, ndarray):
        return mask & (value if value.dtype.kind == "b" else value != 0)
    if isinstance(value, _POINTERS) or value:
        return mask
    return _zeros(mask)


def _to_bool(value):
    if isinstance(value, ndarray):
        return (value != 0).astype(_I64)
    return 1 if isinstance(value, _POINTERS) or value else 0


def _b2i(value):
    """A comparison result as a C value (lanes: 0/1 int64)."""
    return value.astype(_I64) if isinstance(value, ndarray) else value


def _merge(old, new, mask: ndarray):
    """Masked phi: ``new`` on active lanes, ``old`` elsewhere."""
    if old is new or bool(mask.all()):
        return new
    if isinstance(old, _POINTERS) or isinstance(new, _POINTERS):
        if isinstance(old, VPtr) and isinstance(new, VPtr) \
                and old.array is new.array and old.base is new.base:
            offset = np.where(mask, _as_int_operand(new.offset), _as_int_operand(old.offset))
            return VPtr(new.array, new.element_type, new.space, new.tally,
                        new.length, offset, new.base)
        if isinstance(old, NullPointer) and isinstance(new, (NullPointer, VArray)):
            # decl-default replaced by a binding: lanes outside the mask
            # could only observe this through UB.
            return new
        raise VectorizeError(
            "divergent pointer values cannot be merged on the lockstep "
            "engine (lanes would point into different objects)"
        )
    if isinstance(old, VecValue) or isinstance(new, VecValue):
        old, new = _vec_operand(old), _vec_operand(new)  # uniform vectors, as columns
    if not isinstance(old, ndarray) and not isinstance(new, ndarray):
        if isinstance(old, float) and isinstance(new, float):
            if (old == new and math.copysign(1.0, old) == math.copysign(1.0, new)) \
                    or (math.isnan(old) and math.isnan(new)):
                return new
        elif not isinstance(old, float) and not isinstance(new, float) and old == new:
            return new
    if _is_float_value(old) or _is_float_value(new):
        return np.where(mask, _as_float_operand(new), _as_float_operand(old))
    return np.where(mask, _as_int_operand(new), _as_int_operand(old))


def _ret(previous, value, mask: ndarray):
    """The return value after ``return value`` ran on ``mask``."""
    if previous is None:
        previous = 0.0 if _is_float_value(value) else 0
    return _merge(previous, value, mask)


def _lanewise(op, coerce):
    def apply(left, right):
        if isinstance(left, ndarray) or isinstance(right, ndarray):
            return op(coerce(left), coerce(right))
        return op(left, right)
    return apply


def _as_u64_operand(v):
    """Lanes as 64-bit patterns; a uniform operand stays a Python int,
    which NumPy (NEP 50) takes at the lanes' ``uint64``."""
    return v.view(_U64) if isinstance(v, ndarray) else int(v) & (_TWO64 - 1)


def _fdiv_l(left, right):
    if not isinstance(left, ndarray) and not isinstance(right, ndarray):
        return c_fdiv(left, right)
    la = _as_float_operand(left)
    ra = _as_float_operand(right)
    result = np.divide(la, ra)
    # c_fdiv returns the canonical positive quiet NaN for 0/0 and nan/0,
    # where numpy emits the hardware default (sign bit set on x86) —
    # canonicalize those lanes so buffers stay bit-exact.
    fresh_nan = (ra == 0.0) & ((la == 0.0) | np.isnan(la))
    if fresh_nan.any():
        result = np.where(fresh_nan, math.nan, result)
    return result


def _divide_l(left, right, mask, u64: bool, remainder: bool):
    """C integer ``/`` (truncating) or ``%`` (sign of the dividend)."""
    if not isinstance(left, ndarray) and not isinstance(right, ndarray):
        return c_imod(left, right) if remainder else c_idiv(left, right)
    la, ra = _as_int_operand(left), _as_int_operand(right)
    zero = ra == 0
    if zero.any():
        if (mask & zero).any():
            raise KernelFault(f"integer {'remainder' if remainder else 'division'} by zero")
        ra = np.where(zero, _I64(1), ra)
    if u64:
        quotient = (la.view(_U64) // ra.view(_U64)).view(_I64)
    else:
        # magnitudes as uint64: abs(-2**63) overflows int64 but is its pattern
        quotient = (np.abs(la).view(_U64) // np.abs(ra).view(_U64)).view(_I64)
        quotient = np.where((la < 0) ^ (ra < 0), -quotient, quotient)
    return la - quotient * ra if remainder else quotient


def _shift_l(left, right, bits: int, mode: str):
    """``mode``: ``"<<"``, ``">>"`` or ``"u>>"`` (logical, 64-bit)."""
    if not isinstance(left, ndarray) and not isinstance(right, ndarray):
        return left << right % bits if mode == "<<" else left >> right % bits
    la = _as_int_operand(left)
    amount = _as_int_operand(right) % _I64(bits)
    if mode == "<<":
        return la << amount
    if mode == "u>>":
        return (la.view(_U64) >> amount.view(_U64)).view(_I64)
    return la >> amount


def _ptr_eq_l(left, right):
    if not isinstance(left, VPtr) or not isinstance(right, VPtr) \
            or left.array is not right.array:
        return 0
    lo, ro = left.offset, right.offset
    if isinstance(lo, ndarray) or isinstance(ro, ndarray):
        return (_as_int_operand(lo) == _as_int_operand(ro)).astype(_I64)
    return 1 if lo == ro else 0


def _ptr_cmp(op, left, right):
    return _b2i(_lanewise(op, _as_int_operand)(left.offset, right.offset))


# -- conversions ---------------------------------------------------------------


def _i2f(value, u64: bool = False):
    """int→float; ``u64`` lanes hold 64-bit unsigned values as patterns."""
    if not isinstance(value, ndarray):
        return float(value)
    return (value.view(_U64) if u64 else value).astype(np.float64)


def _f2i(value, mask):
    return _float_lanes_to_int(value, mask) if isinstance(value, ndarray) else int(value)


def _cast(value, target: ScalarType, source_u64: bool, mask):
    """Mirror of ``convert_scalar`` (explicit casts, exact)."""
    if not isinstance(value, ndarray):
        if isinstance(value, _POINTERS):
            raise KernelFault("cannot convert a pointer value to a scalar")
        return convert_scalar(value, target)
    if target.is_bool():
        return (value != 0).astype(_I64)
    if target.is_integer():
        if value.dtype.kind == "f":
            value = _float_lanes_to_int(value, mask)
        if target.signed:
            return _sw(value, target.bits)
        return value if target.size == 8 else value & _I64((1 << target.bits) - 1)
    # Float target: round through the declared width.
    if value.dtype.kind != "f":
        value = _i2f(value, source_u64)
    if target.size == 8:
        return value
    return value.astype(np.float32 if target.size == 4 else np.float16).astype(np.float64)


# -- vectors -------------------------------------------------------------------
# A uniform vector is a VecValue, as in scalar code; lanes of one are a
# ``(width, lanes)`` array of its element's lane dtype, a row per
# component.  Each operation below computes a VecValue with the scalar
# runtime's own function when no operand is lanes, else a full
# ``(width, lanes)`` array; none changes an operand in place, so a copy
# (``_copyv``) is the value itself.


def _vec_operand(v):
    """``v`` as a numpy operand: a VecValue becomes a ``(width, 1)``
    column that broadcasts against lanes; lanes and scalars pass."""
    if not isinstance(v, VecValue):
        return v
    if v.element_type.is_float():
        return np.array(v.components, dtype=np.float64)[:, None]
    return np.array([_wrap_to_i64(c) for c in v.components], dtype=_I64)[:, None]


def _elements(v, element: ScalarType, mask):
    """``convert_scalar(_, element)`` of every component of ``v`` (a
    vector or a scalar, uniform or lanes), as a numpy operand."""
    if isinstance(v, VecValue):
        return _vec_operand(VecValue(element, v.components))
    return _cast(v, element, False, mask)


def _u2f(v):
    """Lanes of 64-bit unsigned values (held as patterns) as the floats
    a vector operation converting them starts from; uniform values are
    exact already."""
    return v.view(_U64).astype(np.float64) if isinstance(v, ndarray) else v


def _vecnew(ctype: VectorType, parts, mask):
    """``(typeN)(parts...)``: vector parts spliced, one scalar broadcast."""
    if not any(isinstance(part, ndarray) for part in parts):
        return VecValue.literal(ctype, parts)
    rows: list = []
    for part in parts:
        if isinstance(part, VecValue) or isinstance(part, ndarray) and part.ndim == 2:
            rows.extend(part)
        else:
            rows.append(part)
    if len(rows) == 1:
        rows *= ctype.width
    out = np.empty((ctype.width, mask.size), _lane_dtype(ctype.element))
    for index, row in enumerate(rows):
        out[index] = _cast(row, ctype.element, False, mask)
    return out


def _vswiz(v, indices):
    return v[list(indices)] if isinstance(v, ndarray) else v.swizzle(indices)


def _vset(vector, indices, value, element: ScalarType, mask):
    """``vector`` with its components ``indices`` set to ``value`` on
    the lanes of ``mask``."""
    if not isinstance(vector, ndarray) and not isinstance(value, ndarray) and bool(mask.all()):
        vector = copy_value(vector)
        vector.store_components(indices, value)
        return vector
    column = _vec_operand(vector)
    out = np.empty((column.shape[0], mask.size), _lane_dtype(element))
    out[...] = column
    for index, part in zip(indices, [value] if len(indices) == 1 else value):
        out[index] = np.where(mask, _cast(part, element, False, mask), out[index])
    return out


_VECTOR_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "&": operator.and_, "|": operator.or_, "^": operator.xor}


def _binv(op: str, left, right, op_type: VectorType, mask):
    """``binary_value``: both operands and the result in the element type."""
    if not isinstance(left, ndarray) and not isinstance(right, ndarray):
        return binary_value(op, left, right, op_type)
    element = op_type.element
    a, b = _elements(left, element, mask), _elements(right, element, mask)
    if op in ("/", "%"):
        value = _fdiv_l(a, b) if element.is_float() \
            else _divide_l(a, b, mask, _is_u64(element), op == "%")
    elif op in ("<<", ">>"):
        value = _shift_l(a, b, element.bits, "u>>" if op == ">>" and _is_u64(element) else op)
    else:
        value = _VECTOR_OPS[op](a, b)
    return _cast(value, element, False, mask)


def _cmpv(op: str, left, right, op_type: VectorType, mask):
    """``compare_value``: -1 where ``op`` holds, else 0."""
    if not isinstance(left, ndarray) and not isinstance(right, ndarray):
        return compare_value(op, left, right, op_type)
    element = op_type.element
    a, b = _elements(left, element, mask), _elements(right, element, mask)
    if _is_u64(element):
        a, b = _as_u64_operand(a), _as_u64_operand(b)
    return -getattr(operator, _ARITH[op])(a, b).astype(_I64)


def _unaryv(ctype: VectorType, op: str, operand, mask):
    if not isinstance(operand, ndarray):
        return operand.unary(op)
    value = -operand if op == "-" else ~operand if op == "~" else operand
    return _cast(value, ctype.element, False, mask)


def _cvv(value, ctype: VectorType, mask):
    """``convert_value`` to a vector type: a scalar is broadcast."""
    if not isinstance(value, ndarray):
        return convert_value(value, ctype)
    converted = _cast(value, ctype.element, False, mask)
    return np.repeat(converted[None], ctype.width, axis=0) if converted.ndim == 1 else converted


# -- builtins ------------------------------------------------------------------


def _np_fmin(x, y):
    return np.where(((x != x) | (y < x)) & (y == y), y, np.where(x == x, x, y))


def _np_fmax(x, y):
    return np.where(((x != x) | (y > x)) & (y == y), y, np.where(x == x, x, y))


def _np_clamp(x, lo, hi):
    t = np.where(lo > x, lo, x)
    return np.where(hi < t, hi, t)


def _np_rsqrt(x):
    positive = x > 0
    return np.where(positive, 1.0 / np.sqrt(np.where(positive, x, 1.0)), np.inf)


_FAST_BUILTINS = {
    "sqrt": np.sqrt,
    "fabs": np.abs,
    "fmin": _np_fmin,
    "fmax": _np_fmax,
    "min": lambda x, y: np.where(y < x, y, x),
    "max": lambda x, y: np.where(y > x, y, x),
    "clamp": _np_clamp,
    "fma": lambda a, b, c: a * b + c,
    "mad": lambda a, b, c: a * b + c,
    "step": lambda edge, x: np.where(x < edge, 0.0, 1.0),
    "copysign": np.copysign,
    "isnan": lambda x: np.isnan(x).astype(_I64),
    "isinf": lambda x: np.isinf(x).astype(_I64),
    "isfinite": lambda x: np.isfinite(x).astype(_I64),
    "sign": lambda x: np.where((x != x) | (x == 0.0), 0.0 * x, np.copysign(1.0, x)),
    "abs": np.abs,
    "rsqrt": _np_rsqrt,
    "mix": lambda x, y, a: x + (y - x) * a,
    "fdim": lambda x, y: np.where(0.0 > x - y, 0.0, x - y),
}


def _np_dot(a, b):
    """``dot`` as one work-item sums it: from 0, left to right."""
    total = 0.0
    for x, y in zip(_component_rows(a), _component_rows(b)):
        total = total + x * y
    return total


def _component_rows(v):
    return v if isinstance(v, ndarray) and v.ndim == 2 else (v,)


_FAST_WHOLE = {"dot": _np_dot, "length": lambda a: np.sqrt(_np_dot(a, a))}


class _Builtin:
    """One call site's builtin with its static decisions taken: the
    numpy fast path (or None), argument domains and result conversion.
    A builtin over vectors converts its result to the result element
    type, as ``apply_builtin`` does."""

    __slots__ = ("resolved", "fast", "memory", "vector", "elements", "float_params",
                 "unsigned_params", "result_element", "result_float", "result_mask")

    def __init__(self, resolved: ResolvedBuiltin):
        self.resolved = resolved
        params, result = resolved.param_types, resolved.result_type
        name = _strip_prefix(resolved.name)
        if resolved.kind == "plain":
            self.fast = _FAST_BUILTINS.get(name) or (
                _identity if name.startswith("convert_") else None)
        else:
            self.fast = _FAST_WHOLE.get(name)
        self.memory = next((kind for kind in ("vload", "vstore") if name.startswith(kind)), None)
        self.vector = any(isinstance(t, VectorType) for t in (result, *params))
        self.elements = [p.element if isinstance(p, VectorType) else p for p in params]
        if name in ("min", "max", "clamp", "abs") and _is_u64(self.elements[0]):
            # 64-bit unsigned values are stored as bit patterns, unsafe
            # in the int64 domain: those take the per-lane path.
            self.fast = None
        self.float_params = [isinstance(e, ScalarType) and e.is_float() for e in self.elements]
        self.unsigned_params = [_is_u64(e) for e in self.elements]
        element = self.result_element = result.element if isinstance(result, VectorType) \
            else result
        scalar = isinstance(result, ScalarType)
        self.result_float = element.is_float()
        self.result_mask = (1 << result.bits) - 1 if scalar and result.is_integer() \
            and not result.signed and resolved.name != "abs" else 0

    def __reduce__(self):
        return _Builtin, (self.resolved,)

    def one(self, args):
        resolved = self.resolved
        value = resolved.impl(*args) if resolved.kind == "plain" and not self.vector \
            else apply_builtin(resolved, tuple(args))
        return value & self.result_mask if self.result_mask else value

    def __call__(self, args, mask):
        if self.memory == "vload" and isinstance(args[1], VPtr):
            return args[1].vload(self.resolved.result_type.width, args[0], mask)
        if self.memory == "vstore" and isinstance(args[2], VPtr):
            return args[2].vstore(self.resolved.param_types[0].width, args[0], args[1], mask)
        if not any(isinstance(a, ndarray) for a in args):
            return self.one(args)  # uniform: computed once
        if self.fast is not None:
            result = self.fast(*[
                _as_float_operand(a) if is_float or _is_float_value(a) else _as_int_operand(a)
                for a, is_float in zip(map(_vec_operand, args), self.float_params)])
            if self.vector:
                return _cast(result, self.result_element, False, mask)
            if self.result_mask and self.resolved.result_type.size < 8:
                result = result & _I64(self.result_mask)
            return result
        result_type = self.resolved.result_type
        width = result_type.width if isinstance(result_type, VectorType) else 0
        out = np.zeros((width, mask.size) if width else mask.shape,
                       dtype=np.float64 if self.result_float else _I64)
        for lane in np.nonzero(mask)[0]:
            value = self.one([self._lane_arg(a, lane, element, unsigned) for a, element, unsigned
                              in zip(args, self.elements, self.unsigned_params)])
            if width:
                out[:, lane] = [self._lane_value(c) for c in value.components]
            else:
                out[lane] = self._lane_value(value)
        return out

    @staticmethod
    def _lane_arg(a, lane, element, unsigned):
        """Argument ``a`` as scalar code holds it on ``lane``."""
        if not isinstance(a, ndarray):
            return a
        if a.ndim == 2:
            return VecValue.of_converted(element, [
                c + _TWO64 if unsigned and c < 0 else c for c in a[:, lane].tolist()])
        a = a[lane].item()
        return a + _TWO64 if unsigned and a < 0 else a  # 64-bit pattern -> exact value

    def _lane_value(self, value):
        return float(value) if self.result_float else _wrap_to_i64(value)


def _identity(x):
    return x


def _workitem(ctx, name: str, dim):
    """A work-item query whose dimension is not a literal."""
    if not isinstance(dim, ndarray):
        return ctx.query(name, int(dim))
    result = np.full(dim.shape, ctx.query(name, -1), dtype=_I64)
    for d in (0, 1, 2):
        result = np.where(dim == d, _as_int_operand(ctx.query(name, d)), result)
    return result


def _switch_start(mask, subject, cases, default_index: int, num_cases: int):
    """Entry point per lane: the first matching case in case order, else
    the default, else past the end (no case runs)."""
    def pattern(value):  # as an int64 bit pattern, like 64-bit integer lanes
        if isinstance(value, ndarray):
            return value
        return _I64(int(value) - _TWO64 if int(value) >= _TWO63 else int(value))

    start = np.full(mask.shape, num_cases, dtype=_I64)
    unmatched = mask
    for index, value in cases:
        eq = unmatched & np.equal(pattern(subject), pattern(value))
        start[eq] = index
        unmatched = unmatched & ~eq
    if default_index < num_cases:
        start[unmatched] = default_index
    return start


class _Run:
    """Per-run state the generated code charges into (:meth:`ops`).
    ``barriers`` counts the lanes of barriers every lane reached
    (``R.barriers += ctx.n``, equal shares of each sibling), ``masked``
    those of the others, per sibling (:meth:`barrier`)."""

    __slots__ = ("lane_ops", "folds", "total", "base", "barriers", "masked", "lanes", "lmem",
                 "regions", "views")

    def __init__(self, lanes: "_LaneLayout", within: Optional["_Run"] = None,
                 counted: bool = False):
        """A run over ``lanes``; ``within`` a run, its compacted region's
        sub-run, which shares all but the lanes and their op charges (and
        is counted when that run is)."""
        if within is not None:
            counted = within.lane_ops is None
        self.lane_ops = None if counted else np.zeros(lanes.n, dtype=_I64)
        self.folds = lanes.n >= _PROBE_MIN_LANES
        self.total = self.base = 0
        self.lanes = lanes
        self.lmem: List[VArray] = []
        self.barriers, self.masked = 0, None  # a region holds no barrier
        if within is None:
            self.regions = [0, 0]  # compactable region entries: compacted, full
            self.views: dict = {}  # what pointer casts made (VPtr.retyped)
        else:
            self.regions, self.views = within.regions, within.views

    def ops(self, k: int, m: ndarray) -> None:
        """Charge ``k`` ops to each lane of ``m``: a *counted* run (one
        launch of a kernel with a barrier, whose ops are only ever read
        as one total) adds them to ``total``; any other to its per-lane
        ``lane_ops`` or — from ``_PROBE_MIN_LANES`` lanes on, when ``m``
        holds every lane — to ``base``, the ops charged to every lane
        (``R.base += k`` on a statically full chain; exact for warps too,
        a warp's max of ops + base being max(ops) + base)."""
        if self.lane_ops is None:
            self.total += k * int(np.count_nonzero(m))
        elif self.folds and m.all():
            self.base += k
        else:
            self.lane_ops += m if k == 1 else k * m

    def barrier(self, mask: ndarray) -> None:
        lanes = self.lanes
        counts = mask.reshape(lanes.num_groups, lanes.group_size).sum(axis=1)
        if ((counts != 0) & (counts != lanes.group_size)).any():
            raise KernelFault("barrier divergence: some work-items of a group reached a "
                              "barrier other items skipped")
        per_sibling = counts.reshape(lanes.copies, -1).sum(axis=1)
        self.masked = per_sibling if self.masked is None else self.masked + per_sibling

    def private_array(self, ctype: ArrayType, row) -> VArray:
        """Every lane's copy of a private array (``row``: one initialized
        copy, None for all zeros)."""
        lanes, flat, element = self.lanes, ctype.flat_length(), ctype.base_element()
        storage = np.zeros(lanes.n * flat * _width(element), dtype=numpy_dtype(element))
        if row is not None:
            storage.reshape(lanes.n, -1)[:, :] = row
        vptr = VPtr(storage, element, "private", None, flat, 0,
                    np.arange(lanes.n, dtype=_I64) * (flat * _width(element)))
        return VArray(vptr, ctype.element)


#: A compactable region runs on its active lanes alone when at most this
#: share of the current lanes is active, and there are at least
#: ``_COMPACT_MIN_LANES`` of those per sibling: entering and leaving costs
#: ~10 us whatever the size, which fewer idle lanes do not pay back.
#: Measured per launch, compacted / full host time: Reduce 0.56x at
#: 16,384 lanes, 0.79x at 4,096, 0.94x at 1,024, 1.04x at 256
#: (docs/kernelc.md, "Lane floors"); per two-sibling run of 2 x 512
#: lanes, where the region must also slice every arena pointer's row
#: bases, 1.06x for Reduce and 1.12x for Scan's block kernel.
_COMPACT_DENSITY = 0.5
_COMPACT_MIN_LANES = 1024

#: A run tests a charge's mask for all-true (:meth:`_Run.ops`), and a
#: lane-varying pointer its offsets' span (:meth:`VPtr._rows`), only
#: from this many lanes on.  Measured per run, with / without the tests:
#: Map 0.88x at 16,384 lanes, 0.93x at 4,096; a two-sibling run of 2 x
#: 512 lanes: Reduce 1.04x, Scan's block kernel 1.07x; a ``dispatch_small``
#: step (runs of 256-1,024 lanes) 1.02x with no floor.
_PROBE_MIN_LANES = 4096

#: Sibling launches share a run (``ocl.SiblingPlan``) up to
#: this many lanes in all: past it a run's lane temporaries outgrow any
#: one launch's and its fixed cost no longer shows.  Measured per pair
#: of siblings, one call's host time with one run / two launches: Map
#: 0.90x at 1,024 lanes each, 1.00x at 4,096, 1.09x at 8,192; Reduce
#: 0.87x, 0.96x, 1.08x; Scan's block kernel 0.83x, 0.91x, 1.01x; and
#: 4 x 16,384 lanes of ``stencil_frames`` raised its peak RSS 7.5 %.
RUN_MAX_LANES = 8192


def _sub(value, ix: ndarray):
    """A live-in of a compacted region on its lanes ``ix`` alone."""
    if isinstance(value, ndarray):
        return value[ix] if value.ndim == 1 else value[:, ix]  # a vector's lanes: columns
    if isinstance(value, VPtr):
        if value.base is None and not isinstance(value.offset, ndarray):
            return value  # the same address on every lane
        tally = value.tally
        if tally.__class__ is _Split:
            tally = tally.subset(ix)
        return VPtr(value.array, value.element_type, value.space, tally, value.length,
                    _sub(value.offset, ix), _sub(value.base, ix))
    if isinstance(value, VArray):
        return VArray(_sub(value.pointer, ix), value.element)
    if isinstance(value, list):  # the kernel's __local arrays
        return [_sub(item, ix) for item in value]
    return value


def _widen(old, new, ix: ndarray, chain: ndarray):
    """An outer variable a compacted region wrote (``new``, on ``ix``)
    back on every lane: what ``_merge`` leaves had the region run on
    ``chain`` — the same values, in the same int/float domain."""
    if not isinstance(new, ndarray):
        return _merge(old, new, chain)
    at = ix if new.ndim == 1 else (slice(None), ix)  # a vector's lanes: columns
    if isinstance(old, ndarray) and old.dtype == new.dtype:
        lanes = old.copy()  # what np.where gives when no operand is coerced
        lanes[at] = new
        return lanes
    lanes = np.zeros(new.shape[:-1] + chain.shape, new.dtype)
    lanes[at] = new
    return _merge(old, lanes, chain)


def _region(R, chain: ndarray, values: tuple) -> Optional["_Region"]:
    """Entry of a compactable region on ``chain`` with live-ins
    ``values``: None when it runs on every lane, else the region that
    runs on the active ones alone."""
    if chain.size < _COMPACT_MIN_LANES * R.lanes.copies \
            or np.count_nonzero(chain) > chain.size * _COMPACT_DENSITY:
        R.regions[1] += 1
        return None
    R.regions[0] += 1
    return _Region(R, chain, values, chain.nonzero()[0])


class _Region:
    """A region running on the lanes ``ix`` (sorted, so lanes keep their
    order and the first faulting lane stays the first).  ``inner`` is
    what the generated code runs it on: a sub-run whose op charges are
    the region's, the work-item context of ``ix``, the sub-run's charge
    method and the live-ins on ``ix`` (under them the region's own
    chain, now all true)."""

    __slots__ = ("run", "chain", "outer", "ix", "inner")

    def __init__(self, run: _Run, chain: ndarray, values: tuple, ix: ndarray):
        self.run, self.chain, self.outer, self.ix = run, chain, values, ix
        sub = _Run(run.lanes.subset(ix), run)
        self.inner = (sub, sub.lanes, sub.ops, tuple([_sub(value, ix) for value in values]))

    def leave(self, *written):
        """Back on every lane: the region's op charges folded into the
        run, its live-ins restored and the ``written`` ones — the last
        of them — widened (:func:`_widen`)."""
        run, ix, sub = self.run, self.ix, self.inner[0]
        if run.lane_ops is None:
            run.total += sub.total  # no base: R.base is charged outside regions only
        else:
            run.lane_ops[ix] += sub.lane_ops + sub.base if sub.base else sub.lane_ops
        values = self.outer
        if written:
            values, inner = list(values), self.inner[3]
            for position, new in enumerate(written, len(values) - len(written)):
                if new is not inner[position]:
                    values[position] = _widen(values[position], new, ix, self.chain)
        return run, run.lanes, run.ops, tuple(values)


_ARITH = {"+": "add", "-": "sub", "*": "mul", "&": "and_", "|": "or_", "^": "xor",
          "<": "lt", ">": "gt", "<=": "le", ">=": "ge", "==": "eq", "!=": "ne"}

_LIBRARY = {
    "_merge": _merge, "_ret": _ret, "_truthy": _truthy, "_zeros": _zeros,
    "_to_bool": _to_bool, "_b2i": _b2i, "_sw": _sw, "_um64": _um64, "_i2f": _i2f,
    "_f2i": _f2i, "_cast": _cast, "_fdiv_l": _fdiv_l, "_divide_l": _divide_l,
    "_shift_l": _shift_l, "_ptr_eq_l": _ptr_eq_l, "_ptr_cmp": _ptr_cmp,
    "_workitem": _workitem, "_U64": _U64,
    "_switch_start": _switch_start, "_region": _region, "_VNULL": NULL_POINTER, "_op": operator,
    "_vecnew": _vecnew, "_vswiz": _vswiz, "_vset": _vset, "_binv": _binv, "_cmpv": _cmpv,
    "_unaryv": _unaryv, "_cvv": _cvv, "_u2f": _u2f, "_float_lanes_to_int": _float_lanes_to_int,
    "_wrap_to_i64": _wrap_to_i64, "_as_int_operand": _as_int_operand, "np": np, "_I64": _I64,
}
for _symbol, _name in _ARITH.items():
    for _domain, _coerce in (("i", _as_int_operand), ("f", _as_float_operand),
                             ("u", _as_u64_operand)):
        _LIBRARY[f"_{_domain}_{_name}"] = _lanewise(getattr(operator, _name), _coerce)


# ---------------------------------------------------------------------------
# The generator: kernel AST -> Python source over the runtime library.
# ---------------------------------------------------------------------------

_SAME, _NARROWED, _DEAD = "same", "narrowed", "dead"  # a statement's effect on its mask

_ASSIGNED = re.compile(r" *(?:else: )?(\w+) [|+]?=(?!=)")  # the local a generated line binds
_NAMES = re.compile(r"(?<![\w.])[A-Za-z_]\w*")  # the names a generated line mentions
_RUN_LOCALS = {"R", "ctx", "ops"}  # what a compacted region swaps for its own


def _is_u64(ctype) -> bool:
    return _is_unsigned(ctype) and ctype.size == 8


def _kind_of(ctype, lanes: bool) -> Optional[str]:
    """The kind of a value of type ``ctype`` (None for no scalar type):
    lanes, or a uniform one — unsigned values narrower than 64 bits are
    masked at every operation, signed ones are exact Python ints."""
    if isinstance(ctype, ScalarType) and not ctype.is_void():
        narrow = ctype.is_bool() or _is_unsigned(ctype) and ctype.size < 8
        return ("F" if lanes else "f") if ctype.is_float() else "I" if lanes else \
            "i" if narrow else "j"
    return None  # no scalar type


_NONE, _WORK = frozenset(), frozenset(["work"])
_BARRIER, _POINTER = frozenset(["barrier"]), frozenset(["pointer"])


def _traits(node) -> frozenset:
    """What ``node`` itself tells about a body holding it: "barrier",
    "pointer" (a pointer variable is assigned) or "work" (memory is
    touched, a function called, or control flow of its own runs)."""
    if isinstance(node, ast.Call):
        if node.kind == "builtin" and node.resolved.kind == "barrier":
            return _BARRIER
        return _WORK if node.kind == "user" or node.resolved.kind != "workitem" else _NONE
    target = ast.written_lvalue(node)
    if isinstance(target, ast.Identifier):
        return _POINTER if isinstance(target.ctype, PointerType) else _NONE
    if isinstance(node, (ast.Index, ast.IfStmt, ast.SwitchStmt, ast.ForStmt, ast.WhileStmt,
                         ast.DoStmt)) or isinstance(node, ast.UnaryOp) and node.op == "*":
        return _WORK
    return _NONE


class _Code(str):
    """Generated Python whose value has a *kind* known when it is generated
    (``kind``): a uniform Python int known to be in int64 range ("i") or
    of any size ("j"), a uniform float ("f"), int64 or float64 lanes
    ("I", "F") or a boolean lane mask ("B").  Where no kind is known
    (None, or a plain ``str``) only a launch knows: a helper decides."""

    def __new__(cls, code: str, kind: Optional[str]):
        self = super().__new__(cls, code)
        self.kind = kind
        return self


def _kind(code) -> Optional[str]:
    return getattr(code, "kind", None)


def _spelled(code, lanes, uniform, helper, kinds="Ii"):
    """``code`` through one of three templates (``{}``: ``code``): for
    lanes or a uniform value (of result kind ``kinds[0]`` or
    ``kinds[1]``), or a helper's call where only a launch knows."""
    kind = _kind(code)
    if kind is None:
        return helper.format(code)
    return _Code((lanes if kind in "IFB" else uniform).format(code), kinds[kind not in "IFB"])


def _result(code, ctype, *operands):
    """``code``, a helper's call over ``operands``: lanes of ``ctype`` when
    an operand is lanes, a uniform value when none is."""
    kinds = {_kind(operand) for operand in operands}
    kind = None if None in kinds else _kind_of(ctype, bool(kinds & {"I", "F"}))
    return _Code(code, "j" if kind == "i" else kind)


def _fit(code, kind):
    """``code`` as an operand beside lanes of ``kind``."""
    return f"_as_int_operand({code})" if kind == "I" and _kind(code) in ("j", None) else code


class _LaneSpelling(_Spelling):
    """The leaf emitters over the lane library: a value may be lanes (an
    array) or a uniform Python scalar, memory is gathered and scattered
    under the generator's current chain mask ``g.m``.  Where the kinds of
    the operands are known (:class:`_Code`) an operation is spelled in
    NumPy or Python directly; else a helper decides at run time."""

    null = "_VNULL"
    void = "0"
    vectors_by_reference = False  # no lane value is changed in place

    def atom(self, code):
        return code

    def load(self, pointer, index):
        return f"{pointer}.gather({index}, {self.g.m})"

    def store(self, pointer, index, value):
        return f"{pointer}.scatter({index}, {value}, {self.g.m})"

    def _operation(self, op, left, right, domain):
        """``left op right`` in ``domain`` ("i": int64, "u": uint64, "f":
        float64): Python's or NumPy's operator where both kinds are known,
        else the helper ``_{domain}_{op}``.  A uniform operand beside lanes
        is taken as NumPy takes a Python scalar: an int must fit int64
        (unsigned ones were masked to 64 bits by the lowering)."""
        kinds = _kind(left), _kind(right)
        if None in kinds:
            return f"_{domain}_{_ARITH[op]}({left}, {right})"
        lanes = not {"I", "F"}.isdisjoint(kinds)
        if lanes:
            left, right = (f"{code}.view(_U64)" if kind == "I" and domain == "u" else
                           f"_wrap_to_i64({code})" if kind == "j" and domain == "i" else code
                           for code, kind in zip((left, right), kinds))
        kinds = "BIF" if lanes else "ijf"  # of a comparison, an int and a float result
        return _Code(f"({left} {op} {right})",
                     kinds[0 if op in _CMP_OPS else 2 if domain == "f" else 1])

    def arith(self, op, left, right, op_type):
        return self._operation(op, left, right, "f" if op_type.is_float() else "i")

    def compare(self, op, left, right, op_type):
        return self._operation(op, left, right,
                               "f" if op_type.is_float() else "u" if _is_u64(op_type) else "i")

    def truth_value(self, code):
        return _spelled(code, "{}.astype(_I64)", "{}", "_b2i({})")

    def vector(self, helper, *args):
        if helper == "_copyv":
            return args[0]  # lane values are never changed in place
        return f"{helper}({', '.join(args + (self.g.m,))})"

    def operand(self, code, source, element):
        source = source.element if isinstance(source, VectorType) else source
        return _spelled(code, "{}.view(_U64).astype(np.float64)", "{}", "_u2f({})", "Fj") \
            if _is_u64(source) and element.is_float() else code

    def unary(self, op, code):
        return _Code(f"({op}{code})", "j" if _kind(code) == "i" else _kind(code))

    def component(self, code, index):
        return f"{code}[{index}]"

    def divide(self, op, left, right, op_type):
        return _result(f"_fdiv_l({left}, {right})" if op_type.is_float() else
                       f"_divide_l({left}, {right}, {self.g.m}, {_is_u64(op_type)}, {op == '%'})",
                       op_type, left, right)

    def shift(self, op, left, right, op_type):
        mode = "u>>" if op == ">>" and _is_u64(op_type) else op
        return _result(f"_shift_l({left}, {right}, {op_type.bits}, {mode!r})", op_type, left, right)

    def mask(self, code, ctype):
        masked = super().mask("{}", ctype)  # int64 lanes already are 64-bit patterns
        return _spelled(code, masked, masked, masked) if ctype.size < 8 \
            else _spelled(code, "{}", masked, "_um64({})", "Ij")

    def sign_wrap(self, code, bits):
        half = 1 << (bits - 1)
        wrapped = f"(((({{}}) + {half}) & {(1 << bits) - 1}) - {half})"  # scalars and lanes
        return _spelled(code, wrapped, wrapped, wrapped) if bits < 64 else \
            _spelled(code, "{}", "_wrap_to_i64({})", "_sw({}, 64)")  # lanes: 64-bit patterns

    def to_bool(self, code):
        return _spelled(code, "({} != 0).astype(_I64)", super().to_bool("{}"), "_to_bool({})")

    def int_to_float(self, code, source):
        u64 = _is_u64(source)
        return _spelled(code, f"{{}}{'.view(_U64)' * u64}.astype(np.float64)", "float({})",
                        f"_i2f({{}}{', True' * u64})", "Ff")

    def logical_not(self, code):
        return f"(1 - _to_bool({code}))"

    def float_to_int(self, code):
        return _spelled(code, f"_float_lanes_to_int({{}}, {self.g.m})", "int({})",
                        f"_f2i({{}}, {self.g.m})", "Ij")

    def cast(self, code, target, source):
        if isinstance(target, VectorType):
            return self.vector("_cvv", self.operand(code, source, target.element),
                               self.g.pc.constant(target))
        kind = _kind(code)
        if kind not in ("I", "F"):
            return f"_cast({code}, {self.g.pc.constant(target)}, {_is_u64(source)}, {self.g.m})"
        if target.is_bool():
            return self.to_bool(code)
        if target.is_integer():
            code = self.float_to_int(code) if kind == "F" else code
            return self.sign_wrap(code, target.bits) if target.signed else self.mask(code, target)
        code = self.int_to_float(code, source) if kind == "I" else code
        return code if target.size == 8 else \
            _Code(f"{code}.astype(np.float{target.size * 8}).astype(np.float64)", "F")

    def step(self, code, delta, ctype):
        return self.arith("+", code, _Code(repr(delta), "i"), ctype)

    def scale_index(self, code, stride):
        return self._operation("*", code, _Code(repr(stride), "i"), "i")

    def add_index(self, left, right):
        return self._operation("+", left, right, "i")

    def pointer_equal(self, left, right, negated):
        equal = f"_ptr_eq_l({left}, {right})"
        return f"(1 - {equal})" if negated else equal

    def pointer_compare(self, op, left, right):
        return f"_ptr_cmp(_op.{_ARITH[op]}, {left}, {right})"

    def retype(self, pointer, pointee):
        return f"{pointer}.retyped({pointee}, {self.g.m}, R.views)"

    def workitem(self, name, dim):
        return f"_workitem(ctx, {name!r}, {dim})"

    def private_array(self, ctype, values):
        row = allocate_array(ctype, values).pointer.array if values is not None else None
        return f"R.private_array(*{self.g.pc.constant((ctype, row))})"

    def call(self, symbol, args):
        """A user function returns lanes of a scalar type and takes the
        kinds its every call site agrees on."""
        entry, kinds = self.g.calls[symbol], [_kind(arg) for arg in args]
        entry[1] = [k if k == j else None for k, j in zip(kinds, entry[1] or kinds)]
        return _Code(f"{symbol}({', '.join(['R', 'ctx', self.g.m] + args)})", entry[0])

    def builtin(self, resolved, args):
        """Lanes when an argument is, uniform when all are (:class:`_Builtin`)."""
        call = f"{self.g.pc.constant(_Builtin(resolved))}(({', '.join(args)},), {self.g.m})"
        return _result(call, resolved.result_type, *args)

    def lanes(self, code, kind):
        """``code`` as lanes of ``kind``: what a variable that is not
        uniform holds, and what a user function returns."""
        return code if kind not in ("I", "F") or _kind(code) == kind else _Code(
            f"np.full(ctx.n, {_fit(code, kind)}, {'_I64' if kind == 'I' else 'np.float64'})", kind)

    def assign(self, name, code, value_needed=True, declared=None):
        g = self.g
        if value_needed:
            code = g.temp("t", code)
        if declared is not None:  # not uniform: a uniform initial value becomes lanes
            g.typed[name] = _Code(name, _kind(code) and _kind_of(declared, True))
        want = _kind(g.typed.get(name))
        # Only the lanes of the chain change; on the chain the variable
        # was declared on those are all that can see it.
        g.emit(f"{name} = " + (self.lanes(code, want) if g.var_chain.get(name) == g.m else
                               f"np.where({g.m}, {_fit(code, want)}, {name})"
                               if want in ("I", "F") else f"_merge({name}, {code}, {g.m})"))
        return code

    def discard(self, code):
        self.g.effect(code)
        return self.void


class _LaneCompiler(_FunctionCompiler):
    """Emits the lockstep Python function of one C function.

    Every lowering decision is the inherited one; this class adds what is
    inherently masked.  A *chain* is one Python variable holding the
    active-lane mask of a statement list; it is reassigned (never
    mutated) as lanes leave.  Statements (``lane_*``) are compiled on an
    explicit chain; expressions are compiled by the inherited lowering
    on the *current* chain ``self.m``, spelled by ``self.e``: the lane
    spelling, or — for statically uniform subtrees, variables and
    declarations, whose values are Python scalars — the scalar one.
    ``&&``/``||``/``?:`` split their chain (``_lane_*`` methods, looked
    up before the inherited ``_expr_*``), charges and load CSE are what
    ``compile_program`` recorded on the nodes.
    """

    def __init__(self, program_compiler, function, facts: _FunctionFacts,
                 kernel: CompiledKernel, calls: Dict[str, list]):
        super().__init__(program_compiler, function)
        self.calls = calls  # function symbol -> [kind returned, kinds its call sites pass]
        self.typed: Dict[str, _Code] = {}  # Python local -> its name with the kind it holds
        self.scalar_spelling, self.e = self.e, _LaneSpelling(self)
        self.m = "m"
        self.facts, self.kernel = facts, kernel
        self.load_vars: Dict[int, str] = {}  # id(source Index) -> local holding it
        self.written = facts.written
        self.uniform_names: set = set()  # Python locals that always hold scalars
        self.var_chain: Dict[str, str] = {}  # Python local -> chain it was declared on
        self.full = function.is_kernel  # chain "m" still holds every lane
        self.loops: List[tuple] = []  # ("loop", done, cont) / ("switch", brk)
        self._escape_memo: Dict[int, frozenset] = {}
        self._trait_memo: Dict[int, frozenset] = {}
        self.made = {"m", "lmem"}  # the locals bound so far that are no C variables
        self._slot = None  # (chain, line index, ops) of the open charge line
        self._blocks: List[int] = []

    @contextmanager
    def _state(self, **state):
        """Compile with the current chain ``m`` and/or spelling ``e`` set."""
        saved = {name: getattr(self, name) for name in state}
        self.__dict__.update(state)
        try:
            yield
        finally:
            self.__dict__.update(saved)

    def _spelled_for(self, uniform: bool):
        return self._state(e=self.scalar_spelling if uniform else self.e)

    # -- emission ------------------------------------------------------------

    def open(self, header: str) -> None:
        self.emit(header)
        self.indent += 1
        self._blocks.append(len(self.lines))
        self._slot = None

    def close(self) -> None:
        if self._blocks.pop() == len(self.lines):
            self.emit("pass")
        self.indent -= 1
        self._slot = None

    def is_full(self, m: str) -> bool:
        return self.full and m == "m"

    def narrow(self, m: str, code: str) -> str:
        self.emit(f"{m} = {code}")
        self._slot = None
        if m == "m":
            self.full = False
        return _NARROWED

    def charge_lanes(self, m: str, node) -> None:
        """Add the recorded cost of ``node`` to the lanes of ``m``
        (:meth:`_Run.ops`); charges of one straight-line block are summed
        into one line."""
        cost = node.charge
        if not cost:
            return
        if self._slot is not None and self._slot[0] == m:
            _, index, total = self._slot
            cost += total
            self.lines.pop(index)
        line = f"R.base += {cost}" if self.is_full(m) else f"ops({cost}, {m})"
        self._slot = (m, len(self.lines), cost)
        self.emit(line)

    def begin_charge(self, node) -> None:
        self.charge_lanes(self.m, node)  # the final cost is on record

    def end_charge(self, token, extra: int = 0) -> None:
        pass

    def declare_name(self, c_name: str) -> str:
        name = super().declare_name(c_name)
        self.var_chain[name] = self.m
        return name

    def fresh(self, hint: str = "t") -> str:
        name = super().fresh(hint)
        self.made.add(name)
        return name

    def default_value_code(self, ctype) -> str:
        return _Code(super().default_value_code(ctype), _kind_of(ctype, False))

    def temp(self, hint: str, code: str) -> str:
        return _Code(super().temp(hint, code), _kind(code))

    def lookup_name(self, c_name: str) -> Optional[str]:
        name = super().lookup_name(c_name)
        return self.typed.get(name, name)

    def escapes(self, node) -> frozenset:
        """Which of return/break/continue can carry lanes out of ``node``."""
        found = self._escape_memo.get(id(node))
        if found is None:
            kind = {ast.ReturnStmt: "return", ast.BreakStmt: "break",
                    ast.ContinueStmt: "continue"}.get(type(node))
            found = frozenset([kind] if kind else ()).union(*[
                self.escapes(child) for child in ast.children(node)
                if not isinstance(child, ast.Expr)])
            if isinstance(node, (ast.ForStmt, ast.WhileStmt, ast.DoStmt)):
                found -= {"break", "continue"}
            elif isinstance(node, ast.SwitchStmt):
                found -= {"break"}
            self._escape_memo[id(node)] = found
        return found

    def compactable(self, body) -> bool:
        """Whether a branch or loop body may run compacted: nothing
        escapes it, it holds no barrier, assigns no pointer variable (a
        divergent pointer merge must fail where it fails on every lane)
        and does more than charge and merge — it touches memory, calls a
        function or has control flow of its own, or compaction would
        cost more than it saves."""
        traits = self.traits(body)
        return "work" in traits and not traits & (_BARRIER | _POINTER) \
            and not self.escapes(body)

    def traits(self, node) -> frozenset:
        """The :func:`_traits` of ``node`` and everything under it."""
        found = self._trait_memo.get(id(node))
        if found is None:
            found = self._trait_memo[id(node)] = \
                _traits(node).union(*map(self.traits, ast.children(node)))
        return found

    # -- function body ---------------------------------------------------------

    def compile(self) -> str:
        fn = self.function
        params = [self.declare_name(param.name) for param in fn.params]
        symbol = self.pc.function_symbol(fn.name)
        passed = self.calls[symbol][1] or [None] * len(params)  # a kernel: called by none
        for param, name, kind in zip(fn.params, params, passed):
            ctype, written = param.declared_type, param.name in self.written
            if fn.is_kernel and isinstance(ctype, ScalarType) and not written:
                self.uniform_names.add(name)  # in range of its type: the launch converted it
                kind = "i" if ctype.is_integer() and not _is_u64(ctype) else _kind_of(ctype, False)
            self.typed[name] = _Code(name, None if written and kind not in ("I", "F") else kind)
        self.lines.append(f"def {symbol}(R, ctx, m{''.join(', ' + p for p in params)}):")
        self.emit("ops = R.ops")
        if fn.is_kernel and self.kernel.local_decls:
            self.emit("lmem = R.lmem")
        returns, statements = self.facts.returns, fn.body.statements
        self.tail_return = returns[0] if len(returns) == 1 and statements \
            and statements[-1] is returns[0] else None
        valued = not fn.is_kernel and not fn.return_type.is_void()
        if valued and self.tail_return is None:
            self.emit("_rv = None")
        status = self.lane_list(statements, "m")
        if valued and self.tail_return is None:
            if status is not _DEAD:
                self.emit(f"if m[m.argmax()]: raise _KernelFault('function {fn.name} finished "
                          "without returning a value')")
            self.emit(f"return {self.e.lanes('_rv', _kind_of(fn.return_type, True))}")
        return "\n".join(self.lines)

    # -- statements ------------------------------------------------------------

    def lane_list(self, statements, m: str) -> str:
        """Compile ``statements`` on chain ``m`` (which holds a lane on
        entry); what follows a narrowing runs only while a lane is left."""
        status, guarded = _SAME, False
        for position, stmt in enumerate(statements):
            effect = self.lane_stmt(stmt, m)
            if effect is _DEAD:
                status = _DEAD
                break
            if effect is _NARROWED:
                status = _NARROWED
                if guarded:
                    self.close()
                guarded = position + 1 < len(statements)
                if guarded:
                    self.open(f"if {m}[{m}.argmax()]:")
        if guarded:
            self.close()
        return status

    def lane_scope(self, stmt, m: str) -> str:
        self.scope_stack.append({})
        status = self.lane_stmt(stmt, m)
        self.scope_stack.pop()
        return status

    def lane_region(self, body, m: str) -> str:
        """``lane_scope`` for a branch or loop body on the lane-varying
        chain ``m``.  A compactable body (:meth:`compactable`) is emitted
        once, between an entry that may swap the run, context, op array
        and every live-in for their values on the active lanes
        (``_region``) and an exit that swaps them back.  The live-ins are
        the locals bound before the body that it mentions; those it binds
        are widened on the way out."""
        if not self.compactable(body):
            return self.lane_scope(body, m)
        before, start = self.used_names | self.made, len(self.lines)
        effect = self.lane_scope(body, m)
        self._slot = None  # the body's charges are the region run's
        inside = self.lines[start:]
        bound = {match.group(1) for match in map(_ASSIGNED.match, inside) if match}
        written = sorted(bound & before - _RUN_LOCALS)
        mentioned = {name for line in inside for name in _NAMES.findall(line)}
        read = sorted(mentioned & before - _RUN_LOCALS - self.uniform_names - set(written))
        names = ", ".join(read + written)
        values = f"({names}{',' if len(read + written) == 1 else ''})"
        region, pad = self.fresh("rg"), "    " * self.indent
        self.lines[start:start] = [
            f"{pad}{region} = _region(R, {m}, {values})",
            f"{pad}if {region} is not None: R, ctx, ops, {values} = {region}.inner"]
        self.emit(f"if {region} is not None: "
                  f"R, ctx, ops, {values} = {region}.leave({', '.join(written)})")
        return effect

    def lane_stmt(self, stmt, m: str) -> str:
        if isinstance(stmt, ast.CompoundStmt):
            self.scope_stack.append({})
            status = self.lane_list(stmt.statements, m)
            self.scope_stack.pop()
            return status
        if isinstance(stmt, ast.DeclStmt):
            with self._state(m=m):
                for decl in stmt.decls:
                    self.compile_decl(decl)
            return _SAME
        if isinstance(stmt, ast.ExprStmt):
            return self.lane_expr_stmt(stmt.expr, m)
        if isinstance(stmt, ast.IfStmt):
            return self.lane_if(stmt, m)
        if isinstance(stmt, (ast.ForStmt, ast.WhileStmt, ast.DoStmt)):
            return self.lane_loop(stmt, m)
        if isinstance(stmt, ast.SwitchStmt):
            return self.lane_switch(stmt, m)
        if isinstance(stmt, ast.ReturnStmt):
            return self.lane_return(stmt, m)
        for kind, *targets in reversed(self.loops):
            if isinstance(stmt, ast.BreakStmt) or kind == "loop":
                # break binds to the innermost loop or switch, continue
                # to the innermost loop: record where the lanes rejoin.
                target = targets[0 if isinstance(stmt, ast.BreakStmt) else 1]
                if target is not None:
                    self.emit(f"{target} |= {m}")
                return _DEAD
        raise AssertionError(f"unhandled statement {type(stmt).__name__}")  # pragma: no cover

    def compile_decl(self, decl: ast.VarDecl) -> None:
        """A scalar that is initialized uniformly and never written again
        is a uniform name: its declaration is scalar code."""
        uniform = isinstance(decl.declared_type, ScalarType) and decl.init is not None \
            and decl.name not in self.written and self.uniform(decl.init)
        with self._spelled_for(uniform):
            super().compile_decl(decl)
        if uniform:
            name = self.lookup_name(decl.name)
            self.uniform_names.add(name)
            self.typed[name] = _Code(name, _kind_of(decl.declared_type, False))

    def lane_expr_stmt(self, expr, m: str) -> str:
        if expr is None:
            return _SAME
        if isinstance(expr, ast.Call) and getattr(expr, "kind", "") == "builtin" \
                and expr.resolved.kind == "barrier":
            self.effect(self.lane_expr(expr.args[0], m))
            # With every lane active no group can diverge.
            self.emit("R.barriers += ctx.n" if self.is_full(m) else f"R.barrier({m})")
            return _SAME
        self.charge_lanes(m, expr)
        self.effect(self.lane_expr(expr, m))
        return _SAME

    def lane_if(self, stmt: ast.IfStmt, m: str) -> str:
        self.charge_lanes(m, stmt.condition)
        if self.uniform(stmt.condition):
            # Every active lane takes the same branch: stay on chain m.
            effects = []
            for header, branch in ((f"if {self.scalar(stmt.condition)}:",
                                    stmt.then_branch), ("else:", stmt.else_branch)):
                if branch is None:
                    effects.append(_SAME)
                    continue
                self.open(header)
                effects.append(self.lane_scope(branch, m))
                if effects[-1] is _DEAD:
                    self.narrow(m, f"_zeros({m})")
                self.close()
            if effects == [_SAME, _SAME]:
                return _SAME
            return _DEAD if effects == [_DEAD, _DEAD] else _NARROWED
        then_m = self.temp("m", self.condition(stmt.condition, m))
        need_else = stmt.else_branch is not None or bool(self.escapes(stmt.then_branch))
        else_m = self.temp("m", f"{m} & ~{then_m}") if need_else else None
        self.open(f"if {then_m}[{then_m}.argmax()]:")
        then_effect = self.lane_region(stmt.then_branch, then_m)
        self.close()
        else_effect = _SAME
        if stmt.else_branch is not None:
            self.open(f"if {else_m}[{else_m}.argmax()]:")
            else_effect = self.lane_region(stmt.else_branch, else_m)
            self.close()
        if then_effect is _SAME and else_effect is _SAME:
            return _SAME
        left = [chain for chain, effect in ((then_m, then_effect), (else_m, else_effect))
                if effect is not _DEAD]
        return self.narrow(m, " | ".join(left)) if left else _DEAD

    def lane_loop(self, stmt, m: str) -> str:
        is_for, is_do = isinstance(stmt, ast.ForStmt), isinstance(stmt, ast.DoStmt)
        self.scope_stack.append({})
        counters: set = set()
        if is_for and stmt.init is not None:
            self.lane_stmt(stmt.init, m)
            counters = set(self.scope_stack[-1].values())
            self.check_counters(counters, stmt.increment)
        condition = stmt.condition
        escapes = self.escapes(stmt.body)
        uniform = condition is None or self.uniform(condition)
        increment = stmt.increment if is_for else None

        def step(chain):
            if increment is not None:
                # The lanes stepping are all that can still see the loop's
                # own counters: on this chain they need no merge.
                self.var_chain.update(dict.fromkeys(counters, chain))
                self.charge_lanes(chain, increment)
                self.effect(self.lane_expr(increment, chain))
                self.var_chain.update(dict.fromkeys(counters, m))

        def check(chain, done):
            """Charge and test the condition: lanes failing it leave."""
            if condition is None:
                return
            self.charge_lanes(chain, condition)
            if uniform:
                self.open(f"if not {self.scalar(condition)}:")
                if done:
                    self.emit(f"{done} |= {chain}")
                self.emit("break")
                self.close()
                return
            passed = self.temp("m", self.condition(condition, chain))
            if done:
                self.emit(f"{done} |= {chain} & ~{passed}")
            self.narrow(chain, passed)
            self.emit(f"if not {chain}[{chain}.argmax()]: break")

        if uniform and not escapes:
            # All lanes of m iterate together: a plain loop on chain m.
            self.open("while True:")
            if not is_do:
                check(m, None)
            self.lane_scope(stmt.body, m)
            step(m)
            if is_do:
                check(m, None)
            self.close()
            self.scope_stack.pop()
            return _SAME
        live = self.temp("m", m)
        done = self.temp("m", f"_zeros({m})") if "return" in escapes else None
        self.open("while True:")
        if not is_do:
            check(live, done)
        cont = self.temp("m", f"_zeros({m})") if "continue" in escapes else None
        self.loops.append(("loop", done, cont))
        # (a uniform condition comes here only with an escaping body,
        # which lane_region leaves as it is)
        effect = self.lane_region(stmt.body, live)
        self.loops.pop()
        if effect is _DEAD and cont is None:
            self.emit("break")
        else:
            if cont is not None:
                self.narrow(live, cont if effect is _DEAD else f"{live} | {cont}")
            if effect is not _SAME or cont is not None:
                self.emit(f"if not {live}[{live}.argmax()]: break")
            step(live)
            if is_do:
                check(live, done)
        self.close()
        self.scope_stack.pop()
        # Without a return inside, every lane of m comes out of the loop.
        return self.narrow(m, done) if done else _SAME

    def check_counters(self, counters: set, increment) -> None:
        """A ``for`` counter registered uniform by its declaration stays
        uniform only if the increment steps it unconditionally (as a
        top-level part of the expression) and by a uniform amount."""
        if increment is None:
            return
        parts = increment.parts if isinstance(increment, ast.CommaExpr) else [increment]
        for node in ast.walk(increment):
            name = self.lookup_name(_written_name(node) or "")
            if name in counters and name in self.uniform_names and not (
                    any(node is part for part in parts)
                    and (not isinstance(node, ast.Assignment) or self.uniform(node.value))):
                self.uniform_names.discard(name)
                self.typed.pop(name)  # declared uniform, stepped by lanes: no kind

    def lane_switch(self, stmt: ast.SwitchStmt, m: str) -> str:
        # The lowering charges subject cost + one comparison per case
        # upfront, recorded on the switch statement.
        self.charge_lanes(m, stmt)
        subject = self.lane_expr(stmt.subject, m)
        num_cases = len(stmt.cases)
        default_index = num_cases
        cases = []
        for index, case in enumerate(stmt.cases):
            if case.value is None:
                default_index = index
            else:
                cases.append(f"({index}, {self.lane_expr(case.value, m)})")
        start = self.temp("st", f"_switch_start({m}, {subject}, ({', '.join(cases)}"
                                f"{',' if cases else ''}), {default_index}, {num_cases})")
        brk = self.temp("m", f"_zeros({m})")
        current = self.temp("m", f"_zeros({m})")
        self.loops.append(("switch", brk, None))
        # Masked fallthrough: each case body runs with the union of lanes
        # that entered at or before it and haven't broken out.
        for index, case in enumerate(stmt.cases):
            self.narrow(current, f"{current} | ({m} & ({start} == {index}))")
            self.open(f"if {current}[{current}.argmax()]:")
            self.scope_stack.append({})
            if self.lane_list(case.body, current) is _DEAD:
                self.narrow(current, f"_zeros({m})")
            self.scope_stack.pop()
            self.close()
        self.loops.pop()
        if not self.escapes(stmt):
            return _SAME
        # Lanes that matched nothing (no default) pass straight through.
        return self.narrow(m, f"{current} | {brk} | ({m} & ({start} == {num_cases}))")

    def lane_return(self, stmt: ast.ReturnStmt, m: str) -> str:
        if self.function.is_kernel or stmt.value is None:
            return _DEAD
        self.charge_lanes(m, stmt.value)
        with self._state(m=m):
            value = self.compile_converted(stmt.value, self.function.return_type)
        if stmt is self.tail_return:
            self.emit(f"return {self.e.lanes(value, _kind_of(self.function.return_type, True))}")
        else:
            self.emit(f"_rv = _ret(_rv, {value}, {m})")
        return _DEAD

    # -- expressions -----------------------------------------------------------

    def uniform(self, expr) -> bool:
        """True when ``expr`` is a Python scalar on every launch, so the
        scalar spelling can emit it."""
        if isinstance(expr, (ast.IntLiteral, ast.FloatLiteral, ast.CharLiteral, ast.SizeofExpr)) \
                or self.fold(expr) is not None:
            return True
        if isinstance(expr, ast.Identifier):
            return getattr(expr, "constant_value", None) is not None \
                or self.lookup_name(expr.name) in self.uniform_names
        if not isinstance(expr.ctype, ScalarType) or expr.ctype.is_void():
            return False
        if isinstance(expr, ast.UnaryOp):
            return expr.op in ("-", "+", "~", "!") and self.uniform(expr.operand)
        if isinstance(expr, ast.BinaryOp):
            return self.uniform(expr.left) and self.uniform(expr.right)
        if isinstance(expr, ast.Cast):
            return isinstance(expr.operand.ctype, ScalarType) and self.uniform(expr.operand)
        if isinstance(expr, ast.Conditional):
            return all(self.uniform(e) for e in (expr.condition, expr.then_expr, expr.else_expr))
        if isinstance(expr, ast.Call) and getattr(expr, "kind", "") == "builtin":
            resolved = expr.resolved
            if resolved.kind == "workitem":
                ok = resolved.name not in _ID_QUERIES
            else:
                ok = resolved.kind == "plain" and resolved.name not in _FENCES
            return ok and all(self.uniform(arg) for arg in expr.args)
        return False

    def _compile_workitem(self, expr, resolved) -> str:
        code = super()._compile_workitem(expr, resolved)  # ids of a literal dimension: lanes
        return _Code(code, "I" if resolved.name in _ID_QUERIES and code[:4] == "ctx." else None)

    def _uniform_target(self, target) -> bool:
        return isinstance(target, ast.Identifier) \
            and self.lookup_name(target.name) in self.uniform_names

    def compile_expr(self, expr) -> str:
        if self.e is self.scalar_spelling:  # inside a uniform subtree
            return super().compile_expr(expr)
        if self.uniform(expr):
            with self._spelled_for(True):
                code = super().compile_expr(expr)
            bounded = isinstance(expr, ast.Call) and expr.resolved.kind == "workitem" \
                or code.lstrip("-").isdigit() and -_TWO63 <= int(code) < _TWO63  # a literal
            return _Code(code, _kind(code) or ("i" if bounded else _kind_of(expr.ctype, False)))
        name = type(expr).__name__
        return (getattr(self, f"_lane_{name}", None) or getattr(self, f"_expr_{name}"))(expr)

    def _expr_Assignment(self, expr) -> str:
        with self._spelled_for(self._uniform_target(expr.target)):
            return super()._expr_Assignment(expr)

    def _compile_incdec(self, target, op, prefix) -> str:
        with self._spelled_for(self._uniform_target(target)):
            return super()._compile_incdec(target, op, prefix)

    def scalar(self, expr) -> str:
        """The scalar Python expression of a uniform ``expr``."""
        mark = len(self.lines)
        code = self.compile_expr(expr)
        assert len(self.lines) == mark, "uniform expressions have no side effects"
        return code

    def lane_expr(self, expr, m: str) -> str:
        """Emit what evaluating ``expr`` on chain ``m`` needs and return
        the Python expression of its value (scalar or lanes)."""
        with self._state(m=m):
            return self.compile_expr(expr)

    def condition(self, expr, m: str) -> str:
        """The mask expression of the lanes of ``m`` where ``expr`` holds."""
        if isinstance(expr, ast.BinaryOp) and expr.op in ("&&", "||"):
            return self._lane_logical(expr, m, as_mask=True)
        with self._state(m=m):
            if isinstance(expr, ast.BinaryOp) and expr.op in _CMP_OPS \
                    and not _is_pointer(expr.left) and not _is_pointer(expr.right):
                # the truth value itself, not the C int made from it
                value = self._compare(expr.op, *self._operands(
                    self.compile_expr(expr.left), self.compile_expr(expr.right), expr.left,
                    expr.right, expr.op_type), expr.op_type)
            else:
                value = self.compile_expr(expr)
        return f"({m} & {value})" if _kind(value) == "B" else _spelled(
            value, f"({m} & ({{}} != 0))", f"({m} if {{}} else _zeros({m}))", f"_truthy({{}}, {m})")

    def reuse_load(self, expr, load: str, pure: bool) -> str:
        load = _Code(load, _kind_of(expr.ctype, True))  # every load is lanes
        if expr.cse_origin:
            load = self.load_vars[id(expr)] = self.temp("ld", load)
        return load

    def _lane_Index(self, expr):
        source = expr.cse_source
        if source is not None:
            return self.load_vars[id(source)]  # the lowering elided this load
        return self._expr_Index(expr)

    def _lane_Conditional(self, expr):
        def arm(branch, chain):
            with self._state(m=chain):
                return self.compile_converted(branch, expr.ctype)

        m = self.m
        result = self.fresh("sel")
        then_m = self.temp("m", self.condition(expr.condition, m))
        else_m = self.temp("m", f"{m} & ~{then_m}")
        then_any = self.temp("t", f"{then_m}[{then_m}.argmax()]")
        self.open(f"if {then_any}:")
        chosen = arm(expr.then_expr, then_m)
        self.emit(f"{result} = {chosen}")
        result = _Code(result, _kind(chosen))
        self.close()
        self.open(f"if {else_m}[{else_m}.argmax()]:")
        other = self.temp("sel", arm(expr.else_expr, else_m))
        want = _kind(result) and _kind(other) and _kind_of(expr.ctype, True)
        merged = f"np.where({then_m}, {_fit(result, want)}, {_fit(other, want)})" if want \
            else f"_merge({other}, {result}, {then_m})"
        self.emit(f"{result} = {merged} if {then_any} else {other}")
        self.close()
        return _Code(result, _kind(other) if _kind(other) == _kind(result) in ("I", "F") else None)

    def _lane_BinaryOp(self, expr):
        if expr.op in ("&&", "||"):
            return self._lane_logical(expr, self.m, as_mask=False)
        return self._expr_BinaryOp(expr)

    def _lane_logical(self, expr, m, as_mask: bool):
        """Short-circuit ``&&``/``||``: the right side runs on the lanes
        the left side leaves undecided."""
        is_and = expr.op == "&&"
        left = self.temp("m", self.condition(expr.left, m))
        sub = left if is_and else self.temp("m", f"{m} & ~{left}")
        right = self.fresh("m")
        self.open(f"if {sub}[{sub}.argmax()]:")
        self.emit(f"{right} = {self.condition(expr.right, sub)}")
        self.close()
        self.emit(f"else: {right} = {sub}")
        mask = right if is_and else f"({left} | {right})"
        return mask if as_mask else self.e.truth_value(_Code(mask, "B"))


def _generate(kernel: CompiledKernel, functions) -> GeneratedModule:
    """Emit ``kernel`` and the helpers it reaches as one module, every
    caller before its callees (which take the kinds their calls pass)."""
    pc = _ProgramCompiler(kernel.program)
    calls = {pc.function_symbol(fn.name): [_kind_of(fn.return_type, True), None]
             for fn, _ in functions}
    source = "\n\n".join(_LaneCompiler(pc, fn, facts, kernel, calls).compile()
                         for fn, facts in functions) + "\n"
    return pc.module(source, f"<kernelc-lockstep:{kernel.name}>")


def _materialize(kernel: CompiledKernel, module: GeneratedModule) -> _KernelPlan:
    """Run ``module`` — just generated, or restored from the program
    cache — in its namespace: the scalar one over the lane library,
    ``__constant`` arrays as lane-wise arrays."""
    program = kernel.program
    pc = _ProgramCompiler(program, module)
    namespace = pc.namespace()
    namespace.update(_LIBRARY)
    for global_decl in program.globals:
        symbol = pc.global_symbol(global_decl.decl.name)
        value = namespace[symbol]
        if isinstance(value, ArrayRef):
            ptr = value.pointer
            namespace[symbol] = VArray(VPtr(ptr.array, ptr.element_type, ptr.address_space,
                                            None, ptr.length, ptr.offset, None), value.element)
    exec(module.code, namespace)  # noqa: S102
    return _KernelPlan(namespace[pc.function_symbol(kernel.name)], module.source)


# ---------------------------------------------------------------------------
# Lane layout: the work-item context of every lane, vectorized.
# ---------------------------------------------------------------------------


class _LaneLayout:
    """Per-lane work-item identities for ``copies x selected groups x
    local ids``, lanes ordered sibling-major, then group-major, as
    work-items are enumerated: one NDRange once per sibling launch of a
    run.  Doubles as the ``ctx`` of the scalar spelling's code.
    Shared between launches through :func:`_layout`: read-only — which
    is why it also carries what :func:`execute` would otherwise rebuild
    per launch from the geometry alone (:meth:`row_bases`,
    :meth:`copy_bases`, :meth:`warp_max`)."""

    def __init__(self, global_size, local_size, selected, copies: int = 1):
        dims = len(global_size)
        self.work_dim = dims
        self.global_size = tuple(global_size) + (1,) * (3 - dims)
        self.local_size = tuple(local_size) + (1,) * (3 - dims)
        self.global_offset = (0, 0, 0)
        groups_per_dim = [g // l for g, l in zip(self.global_size, self.local_size)]
        self.group_size = int(np.prod(self.local_size))
        local_linear = np.arange(self.group_size, dtype=_I64)
        if selected is None:  # every group, dimension 0 fastest
            group_linear = np.arange(int(np.prod(groups_per_dim)), dtype=_I64)
        else:
            group_linear = np.asarray(selected, dtype=_I64).reshape(len(selected), dims) \
                @ np.cumprod([1] + groups_per_dim[:dims - 1]).astype(_I64)
        if copies > 1:
            group_linear = np.tile(group_linear, copies)
        self.copies = copies
        self.num_groups = len(group_linear)
        self.n = self.group_size * self.num_groups
        self.local_id: List[ndarray] = []
        self.group_id: List[ndarray] = []
        self.global_id: List[ndarray] = []
        zeros = np.zeros(self.n, dtype=_I64)
        for d in range(3):
            if d < dims:
                local_d = np.tile(local_linear % self.local_size[d], self.num_groups)
                group_d = np.repeat(group_linear % groups_per_dim[d], self.group_size)
                local_linear = local_linear // self.local_size[d]
                group_linear = group_linear // groups_per_dim[d]
                ids = (local_d, group_d, group_d * self.local_size[d] + local_d)
            else:
                ids = (zeros, zeros, zeros)
            for store, value in zip((self.local_id, self.group_id, self.global_id), ids):
                value.flags.writeable = False
                store.append(value)
        self.full = np.ones(self.n, dtype=bool)
        self.full.flags.writeable = False
        self._row_bases: Dict[tuple, ndarray] = {}

    def row_bases(self, flat: int) -> ndarray:
        """Per lane, the storage row origin of its group's copy of a
        ``__local`` allocation of ``flat`` scalars."""
        return self._bases(self.num_groups, flat)

    def copy_bases(self, row: int) -> ndarray:
        """Per lane, the storage row origin of its sibling's row of an
        arena of ``row`` scalars per sibling."""
        return self._bases(self.copies, row)

    def _bases(self, rows: int, row: int) -> ndarray:
        """``rows`` storage rows of ``row`` scalars over the lanes, in
        order, the same number of lanes on each."""
        bases = self._row_bases.get((rows, row))
        if bases is None:
            bases = self._row_bases[rows, row] = np.repeat(
                np.arange(rows, dtype=_I64) * row, self.n // rows)
            bases.flags.writeable = False
        return bases

    def warp_max(self, ops: ndarray) -> ndarray:
        """Per 32-lane warp of every group, the largest of the per-lane
        ``ops``; a partial trailing warp is padded with idle lanes."""
        chunks = -(-self.group_size // WARP_SIZE)
        if chunks * WARP_SIZE != self.group_size:
            padded = np.zeros((self.num_groups, chunks * WARP_SIZE), dtype=_I64)
            padded[:, : self.group_size] = ops.reshape(self.num_groups, self.group_size)
            ops = padded
        return ops.reshape(self.num_groups, chunks, WARP_SIZE).max(axis=2)

    def query(self, name: str, dim: int):
        """Mirror of the ``WorkItemContext`` accessors (ids default to 0
        outside 0..2, sizes to 1)."""
        if name == "get_work_dim":
            return self.work_dim
        if name == "get_num_groups":
            return self.query("get_global_size", dim) // self.query("get_local_size", dim)
        if 0 <= dim < 3:
            return getattr(self, name[4:])[dim]
        return 1 if name in ("get_global_size", "get_local_size") else 0

    def __getattr__(self, name: str):
        if name.startswith("get_"):  # ctx.get_global_size(dim) of scalar code
            return lambda dim=0: self.query(name, int(dim))
        raise AttributeError(name)

    def subset(self, ix: ndarray) -> "_LaneLayout":
        """The context of the lanes ``ix`` (a compacted region's)."""
        return _LaneSubset(self, ix)


class _LaneSubset(_LaneLayout):
    """The lanes ``ix`` of ``layout``: work-item ids are sliced when first
    read, sizes and everything else are the layout's."""

    def __init__(self, layout: _LaneLayout, ix: ndarray):
        self.layout, self.ix, self.n = layout, ix, len(ix)

    def subset(self, ix: ndarray) -> "_LaneLayout":
        return _LaneSubset(self.layout, self.ix[ix])

    def __getattr__(self, name: str):
        if name in ("local_id", "group_id", "global_id"):
            ids = [v[self.ix] for v in getattr(self.layout, name)]
            setattr(self, name, ids)
            return ids
        return getattr(self.layout, name)


_LAYOUT_LANES = 1 << 19  # lanes the layout memo may hold (a few MiB per 64 Ki)
_layouts: "OrderedDict[tuple, _LaneLayout]" = OrderedDict()


def _layout(global_size, local_size, selected, copies: int = 1) -> _LaneLayout:
    """The memoized layout of a run shape; least recently used shapes
    are dropped once the memo holds more than ``_LAYOUT_LANES`` lanes."""
    key = (global_size, local_size, selected, copies)
    layout = _layouts.get(key)
    if layout is None:
        layout = _layouts[key] = _LaneLayout(global_size, local_size, selected, copies)
        total = sum(entry.n for entry in _layouts.values())
        while total > _LAYOUT_LANES and len(_layouts) > 1:
            total -= _layouts.popitem(last=False)[1].n
    else:
        _layouts.move_to_end(key)
    return layout


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def execute(kernel: CompiledKernel, plan: _KernelPlan, ndrange, selected, args,
            counters, metrics=None) -> Optional[Callable[[int], None]]:
    """Run ``kernel`` in lockstep over the ``selected`` work-groups of
    ``ndrange`` (a tuple of group ids; None = all of them) once per
    *sibling*: ``args`` and ``counters`` hold one argument list and one
    ``ExecutionCounters`` per sibling launch, the siblings' scalar
    arguments equal and their pointer arguments of equal lengths, each
    pointing at storage of its own.  Each sibling's buffers and counters
    end up exactly as running its work-items one at a time would leave
    them.  ``metrics``: the registry to count the run's compactable
    region entries on.

    One sibling runs on its buffers.  Several run as one: over the union
    of their lanes, sibling-major, each pointer argument one pointer over
    an *arena* — the siblings' storages concatenated, reached through a
    per-lane row base — and every charge split back per sibling (ops and
    warps by lane, barriers and memory traffic by :class:`_Split`).  The
    buffers are not touched: the returned ``write_back(i)`` copies
    sibling ``i``'s rows of every arena the run stored to into its
    storage (None when there is nothing to copy, as for one sibling),
    and a run of several that raised has changed no buffer and no
    counter."""
    copies = len(args)
    lanes = _layout(ndrange.global_size, ndrange.local_size, selected, copies)
    # Warps are accounted without barriers only, and siblings split ops
    # by lane: a lone launch of a barrier kernel needs its total alone.
    run = _Run(lanes, counted=copies == 1 and kernel.uses_barrier)
    tally = counters[0].memory if copies == 1 else \
        _Split([MemoryCounters() for _ in counters], lanes.n // copies, lanes.full)
    # Group-local allocations: one row of storage per selected group (a
    # __local scalar is an array of one).
    for decl in kernel.local_decls:
        ctype = decl.declared_type
        if not isinstance(ctype, ArrayType):
            ctype = ArrayType(ctype, 1)
        flat = ctype.flat_length()
        element = ctype.base_element()
        storage = np.zeros(lanes.num_groups * flat * _width(element), dtype=numpy_dtype(element))
        vptr = VPtr(storage, element, "local", tally, flat, 0,
                    lanes.row_bases(flat * _width(element)))
        run.lmem.append(VArray(vptr, ctype.element))
    arenas = []  # (arena, the siblings' storages)
    values = list(args[0])
    for position, arg in enumerate(values):
        if not isinstance(arg, Pointer):
            continue
        if copies == 1:
            values[position] = VPtr(arg.array, arg.element_type, arg.address_space,
                                    arg.counters, arg.length, arg.offset, None)
            continue
        rows = [sibling[position].array for sibling in args]
        arena = np.concatenate(rows)
        run.views[id(arena)] = (arena, arg.array.nbytes)  # a row, for VPtr.retyped
        arenas.append((arena, rows))
        values[position] = VPtr(arena, arg.element_type, arg.address_space, tally,
                                arg.length, arg.offset, lanes.copy_bases(arg.array.size))
    with np.errstate(all="ignore"):
        plan.run(run, lanes, lanes.full, *values)
    if metrics is not None:
        for path, entries in zip(("compacted", "full"), run.regions):
            if entries:
                metrics.counter("skelcl_lockstep_regions_total", path=path).inc(entries)

    per = lanes.n // copies
    ops = [run.total] if run.lane_ops is None \
        else np.add.reduce(run.lane_ops.reshape(copies, per), axis=1).tolist()
    masked = [0] * copies if run.masked is None else run.masked.tolist()
    for counter, lane_ops, barriers in zip(counters, ops, masked):
        counter.ops += lane_ops + run.base * per
        counter.barriers += run.barriers // copies + barriers
    if not kernel.uses_barrier:
        # Warp-divergence accounting: a 32-lane warp runs as long as its
        # slowest lane; partial trailing chunks still pay for a full warp.
        warps = lanes.warp_max(run.lane_ops).reshape(copies, -1)
        for counter, warp_ops in zip(counters, np.add.reduce(warps, axis=1).tolist()):
            counter.warp_ops += (warp_ops + run.base * warps.shape[1]) * WARP_SIZE
    if copies == 1:
        return None
    tally.flush()
    for counter, memory in zip(counters, tally.memories):
        counter.memory.merge(memory)
    # Only arenas stored to (directly or through a cast's view) go back.
    stored = {id(run.views[ident][0]) for ident in tally.stored if ident in run.views}
    arenas = [(arena, rows) for arena, rows in arenas if id(arena) in stored]

    def write_back(sibling: int) -> None:
        for arena, rows in arenas:
            row = rows[sibling]
            row[...] = arena[sibling * row.size:(sibling + 1) * row.size]
    return write_back if arenas else None
