"""Buffer access sets: which byte ranges a command reads and writes.

Transfers declare their ranges directly (offset + length).  Kernel
launches derive theirs from static analysis of the kernel AST, at two
levels of precision:

* the *mode* level (:func:`pointer_param_modes`): for every
  ``__global``/``__constant`` pointer parameter, may the kernel read
  and/or write through it?  ``const``-qualified pointers are read-only
  by declaration; the analysis walks every store target and propagates
  through user-function calls.
* the *footprint* level (:mod:`repro.analysis.affine`): the affine
  access summary, evaluated against the concrete NDRange and scalar
  arguments, yields per-access-site byte ranges with a stride — so two
  kernels writing ``out[2*i]`` and ``out[2*i+1]`` produce provably
  disjoint access sets.

Anything either analysis cannot prove falls back to the whole-chunk
read+write range — both over-approximate, so the race detector never
misses a conflict because of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..kernelc import ast
from ..kernelc.ctypes_ import PointerType
from . import affine

READ = "r"
WRITE = "w"
READ_WRITE = "rw"

#: Above this many resolved ranges per parameter the per-site set is
#: collapsed to its dense hull, keeping race checks O(small).
_MAX_RANGES_PER_PARAM = 8


@dataclass(frozen=True)
class BufferAccess:
    """One command's access to a byte range of one buffer.

    ``stride == 0`` means the range is dense: every byte in
    ``[start, stop)`` may be touched.  ``stride > 0`` means only the
    arithmetic progression ``start + k*stride .. +width`` is touched —
    the footprint of a strided kernel access like ``out[2*gid]``.
    ``provenance`` names the originating kernel argument and index
    expression for race reports."""

    buffer_uid: int
    buffer_name: str
    start: int
    stop: int  # half-open [start, stop)
    mode: str  # READ, WRITE or READ_WRITE
    stride: int = 0
    width: int = 0
    provenance: str = ""

    @staticmethod
    def read(buffer, offset: int, nbytes: int) -> "BufferAccess":
        return BufferAccess(buffer.uid, buffer.name or "buffer",
                            int(offset), int(offset) + int(nbytes), READ)

    @staticmethod
    def write(buffer, offset: int, nbytes: int) -> "BufferAccess":
        return BufferAccess(buffer.uid, buffer.name or "buffer",
                            int(offset), int(offset) + int(nbytes), WRITE)

    @property
    def reads(self) -> bool:
        return READ in self.mode

    @property
    def writes(self) -> bool:
        return WRITE in self.mode

    def conflicts_with(self, other: "BufferAccess") -> bool:
        """True when the two accesses touch the same buffer, their byte
        ranges overlap, and at least one of them writes.  Strided
        accesses additionally compare residue classes: interleaved
        progressions that never share a byte do not conflict."""
        if self.buffer_uid != other.buffer_uid:
            return False
        if not (self.writes or other.writes):
            return False
        if not (self.start < other.stop and other.start < self.stop):
            return False
        return not _residue_disjoint(self, other)

    def describe(self) -> str:
        verb = {READ: "reads", WRITE: "writes", READ_WRITE: "reads+writes"}[self.mode]
        shape = f"[{self.start}:{self.stop}]"
        if self.stride:
            shape = f"[{self.start}:{self.stop}:{self.stride}]"
        text = f"{verb} {self.buffer_name}#{self.buffer_uid}{shape}"
        if self.provenance:
            text += f" ({self.provenance})"
        return text


def _residue_disjoint(a: BufferAccess, b: BufferAccess) -> bool:
    """True when two *overlapping* ranges provably share no byte
    because their strided progressions live in different residue
    classes (e.g. ``out[2*i]`` vs ``out[2*i+1]``)."""
    if not a.stride or not b.stride:
        return False  # a dense range meets everything in its span
    g = math.gcd(a.stride, b.stride)
    if g <= 1:
        return False
    # a touches [a.start + i*a.stride, +a.width); b likewise.  Modulo g
    # both progressions are fixed windows; they share a byte iff
    # a.start+u ≡ b.start+v (mod g) for some u in [0, a.width) and
    # v in [0, b.width), i.e. some delta ≡ (a.start - b.start) (mod g)
    # equals v-u and so lies in (-a.width, b.width).
    d0 = (a.start - b.start) % g
    lo = -a.width + 1
    delta = lo + ((d0 - lo) % g)
    return delta >= b.width


# -- kernel pointer-parameter access modes ----------------------------------


def _is_pointer_expr(expr: ast.Expr) -> bool:
    ctype = getattr(expr, "ctype", None)
    return isinstance(ctype, PointerType)


def _root_names(expr: ast.Expr) -> Set[str]:
    """Identifier names a store through ``expr`` as an lvalue may hit.

    Peels ``Index``/``Member``/``Cast``/unary-deref wrappers; for
    pointer arithmetic (``*(p + i)``) it keeps the side that is a
    pointer when types are known and both sides otherwise."""
    if isinstance(expr, ast.Identifier):
        return {expr.name}
    if isinstance(expr, ast.Index):
        return _root_names(expr.base)
    if isinstance(expr, ast.Member):
        return _root_names(expr.base)
    if isinstance(expr, ast.Cast):
        return _root_names(expr.operand)
    if isinstance(expr, ast.UnaryOp) and expr.op in ("*", "+", "-"):
        return _root_names(expr.operand)
    if isinstance(expr, ast.BinaryOp):
        left, right = expr.left, expr.right
        if _is_pointer_expr(left) and not _is_pointer_expr(right):
            return _root_names(left)
        if _is_pointer_expr(right) and not _is_pointer_expr(left):
            return _root_names(right)
        return _root_names(left) | _root_names(right)
    if isinstance(expr, ast.Conditional):
        return _root_names(expr.then_expr) | _root_names(expr.else_expr)
    return set()


def _identifiers(expr: Optional[ast.Expr]) -> Set[str]:
    if expr is None:
        return set()
    return {n.name for n in ast.walk(expr) if isinstance(n, ast.Identifier)}


class _ModeAnalysis:
    """Interprocedural read/write analysis over pointer parameters."""

    def __init__(self, program: ast.Program):
        self.functions: Dict[str, ast.FunctionDef] = {
            fn.name: fn for fn in program.functions
        }
        # Declared access intents (jit ``/*@intent:func.param=rw*/``
        # markers) override the derived modes verbatim — the analysis
        # must not second-guess a declaration, so a declared ``rw`` on
        # a read-only body still reports ``rw``.
        source = getattr(program, "source", None)
        self._declared: Dict[Tuple[str, str], str] = (
            getattr(source, "declared_intents", None) or {}
        )
        self._cache: Dict[str, Dict[str, Set[str]]] = {}
        self._in_progress: Set[str] = set()

    def modes(self, fn: ast.FunctionDef) -> Dict[str, Set[str]]:
        """``param name -> subset of {'r', 'w'}`` for pointer params."""
        cached = self._cache.get(fn.name)
        if cached is not None:
            return cached
        pointer_params = {
            p.name: p.declared_type
            for p in fn.params
            if isinstance(p.declared_type, PointerType)
        }
        result: Dict[str, Set[str]] = {name: set() for name in pointer_params}
        if fn.name in self._in_progress:
            # Recursion: give up on precision for this cycle.
            return {name: {"r", "w"} for name in pointer_params}
        self._in_progress.add(fn.name)
        try:
            if fn.body is not None:
                self._scan_stmt(fn.body, result)
            for name, ctype in pointer_params.items():
                if ctype.is_const:
                    result[name] = {"r"} if result[name] else {"r"}
            for name in pointer_params:
                intent = self._declared.get((fn.name, name))
                if intent is not None:
                    result[name] = set(intent)
        finally:
            self._in_progress.discard(fn.name)
        self._cache[fn.name] = result
        return result

    # -- walking ---------------------------------------------------------

    def _mark(self, result: Dict[str, Set[str]], names: Set[str], flag: str) -> None:
        for name in names:
            if name in result:
                result[name].add(flag)

    def _scan_stmt(self, stmt: ast.Stmt, result: Dict[str, Set[str]]) -> None:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Expr):
                self._scan_expr_node(node, result)
            elif isinstance(node, ast.VarDecl) and node.init is not None:
                # A pointer parameter flowing into a local pointer
                # variable aliases it: assume the worst through the copy.
                if isinstance(node.declared_type, PointerType):
                    self._mark(result, _identifiers(node.init), "r")
                    self._mark(result, _identifiers(node.init), "w")

    def _scan_expr_node(self, node: ast.Expr, result: Dict[str, Set[str]]) -> None:
        if isinstance(node, ast.Assignment):
            roots = _root_names(node.target)
            if not isinstance(node.target, ast.Identifier):
                # Store through a deref/index: the pointee is written;
                # compound assignments (+= etc.) also read it.
                self._mark(result, roots, "w")
                if node.op != "=":
                    self._mark(result, roots, "r")
            elif _is_pointer_expr(node.value) or _identifiers(node.value) & set(result):
                # Re-seating a pointer variable from a parameter: alias.
                self._mark(result, _identifiers(node.value) & set(result), "r")
                self._mark(result, _identifiers(node.value) & set(result), "w")
        elif isinstance(node, (ast.UnaryOp, ast.PostfixOp)) and node.op in ("++", "--"):
            if not isinstance(node.operand, ast.Identifier):
                roots = _root_names(node.operand)
                self._mark(result, roots, "r")
                self._mark(result, roots, "w")
        elif isinstance(node, ast.Index):
            # Reads through an index are marked here; stores were already
            # handled above, and the spurious extra "r" they pick up is a
            # harmless over-approximation only when the same pointer is
            # genuinely read elsewhere.
            if not self._is_store_target(node):
                self._mark(result, _root_names(node.base), "r")
        elif isinstance(node, ast.UnaryOp) and node.op == "*":
            if not self._is_store_target(node):
                self._mark(result, _root_names(node.operand), "r")
        elif isinstance(node, ast.Call):
            self._scan_call(node, result)

    def _is_store_target(self, node: ast.Expr) -> bool:
        # Pre-order walk visits the Assignment before its target, so the
        # flag is set by the time the Index/deref node is reached.
        return getattr(node, "_skelsan_store_target", False)

    def _scan_call(self, node: ast.Call, result: Dict[str, Set[str]]) -> None:
        callee = self.functions.get(node.callee)
        if callee is not None:
            callee_modes = self.modes(callee)
            for arg, param in zip(node.args, callee.params):
                names = _identifiers(arg) & set(result)
                if not names:
                    continue
                flags = callee_modes.get(param.name)
                if flags is None:
                    # Pointer passed as a non-pointer argument: ignore.
                    if isinstance(param.declared_type, PointerType):
                        self._mark(result, names, "r")
                        self._mark(result, names, "w")
                    continue
                for flag in flags or {"r"}:
                    self._mark(result, names, flag)
        else:
            # Builtin or unknown callee: passing a pointer to an unknown
            # function could do anything — stay conservative.
            for arg in node.args:
                if _is_pointer_expr(arg) or _identifiers(arg) & set(result):
                    names = _identifiers(arg) & set(result)
                    self._mark(result, names, "r")
                    self._mark(result, names, "w")


def _tag_store_targets(body: ast.Stmt) -> None:
    """Mark the outermost Index/deref node of every plain-assignment
    target so the read scan can skip it."""
    for node in ast.walk(body):
        if isinstance(node, ast.Assignment) and node.op == "=":
            target = node.target
            if isinstance(target, (ast.Index, ast.UnaryOp)):
                target._skelsan_store_target = True


def pointer_param_modes(program: ast.Program, fn: ast.FunctionDef) -> Dict[str, str]:
    """Access mode (``'r'``, ``'w'`` or ``'rw'``) per pointer parameter
    of ``fn``, derived from the (checked) AST.  Parameters the analysis
    never sees used default to ``'r'`` (a harmless under-claim: an
    unused pointer touches nothing)."""
    if fn.body is not None:
        _tag_store_targets(fn.body)
    modes = _ModeAnalysis(program).modes(fn)
    result: Dict[str, str] = {}
    for name, flags in modes.items():
        if "w" in flags and "r" in flags:
            result[name] = READ_WRITE
        elif "w" in flags:
            result[name] = WRITE
        else:
            result[name] = READ
    return result


def _param_modes(kernel) -> Dict[str, str]:
    compiled = kernel.compiled
    modes = getattr(compiled, "_skelsan_param_modes", None)
    if modes is None:
        program_ast = kernel.program.compiled.program
        modes = pointer_param_modes(program_ast, compiled.definition)
        compiled._skelsan_param_modes = modes
    return modes


def _kernel_summary(kernel):
    """The (cached) affine access summary of the bound kernel, or None
    when summarization itself failed."""
    compiled = kernel.compiled
    marker = "_skelaccess_summary_result"
    cached = getattr(compiled, marker, False)
    if cached is not False:
        return cached
    try:
        program_ast = kernel.program.compiled.program
        summary = affine.summarize_kernel(program_ast, compiled.definition)
    except Exception:
        summary = None
    setattr(compiled, marker, summary)
    return summary


def _scalar_args(kernel) -> Dict[str, int]:
    """Integer scalar arguments by parameter name (the uniforms the
    affine evaluation substitutes)."""
    scalars: Dict[str, int] = {}
    for param, value in zip(kernel.compiled.definition.params, kernel._args):
        if getattr(value, "uid", None) is not None:
            continue
        if isinstance(value, (int, np.integer)):  # bool included
            scalars[param.name] = int(value)
    return scalars


def _count_summary(metrics, kind: str) -> None:
    if metrics is not None:
        metrics.counter("skelcl_access_summary_total", kind=kind).inc()


def _resolve_param(summary, param_name, value, env) -> Optional[List[BufferAccess]]:
    """Footprint-derived accesses for one Buffer argument, or None to
    fall back to the whole-chunk range."""
    psum = summary.params.get(param_name)
    if psum is None or not psum.affine:
        return None
    resolved: List[BufferAccess] = []
    name = value.name or param_name
    for fp in psum.footprints:
        try:
            access = affine.resolve_footprint(fp, env, psum.elem_size,
                                              value.nbytes)
        except (affine.Unresolvable, KeyError, OverflowError):
            return None
        if access is None:
            continue  # guards infeasible for this launch
        provenance = f"arg {param_name}, index {fp.index.format()}"
        resolved.append(BufferAccess(
            value.uid, name, access.start, access.stop, fp.mode,
            access.stride, access.width, provenance))
    if len(resolved) > _MAX_RANGES_PER_PARAM:
        start = min(a.start for a in resolved)
        stop = max(a.stop for a in resolved)
        mode = psum.mode
        resolved = [BufferAccess(value.uid, name, start, stop, mode,
                                 provenance=f"arg {param_name}, {len(psum.footprints)} sites")]
    return _merge_ranges(resolved)


def _merge_ranges(accesses: List[BufferAccess]) -> List[BufferAccess]:
    """Coalesce identical-shape duplicates (one site reached through
    several paths) while keeping distinct strides/modes apart."""
    seen: Dict[tuple, BufferAccess] = {}
    for access in accesses:
        key = (access.start, access.stop, access.stride, access.width,
               access.mode)
        if key not in seen:
            seen[key] = access
    return list(seen.values())


def kernel_buffer_accesses(kernel, ndrange=None, metrics=None) -> List[BufferAccess]:
    """The buffer access set of a bound :class:`repro.ocl.Kernel`.

    With an ``ndrange``, every Buffer argument whose parameter has an
    affine summary yields exact per-site byte ranges (with stride and
    provenance), evaluated against the launch geometry and the integer
    scalar arguments; parameters the summary could not model — and
    every parameter when ``ndrange`` is None — keep the historic
    whole-buffer range with the mode from :func:`pointer_param_modes`.
    ``metrics`` (a SkelScope registry) counts each pointer argument
    under ``skelcl_access_summary_total{kind=affine|fallback}``.
    """
    compiled = kernel.compiled
    modes = _param_modes(kernel)
    summary = _kernel_summary(kernel) if ndrange is not None else None
    env = None
    if summary is not None:
        env = affine.make_eval_env(ndrange.global_size, ndrange.local_size,
                                   _scalar_args(kernel))
    accesses: List[BufferAccess] = []
    for param, value in zip(compiled.definition.params, kernel._args):
        uid = getattr(value, "uid", None)
        if uid is None:  # not a Buffer (scalar/vector argument)
            continue
        resolved = None
        if env is not None:
            resolved = _resolve_param(summary, param.name, value, env)
        if resolved is not None:
            _count_summary(metrics, "affine")
            accesses.extend(resolved)
            continue
        if ndrange is not None:
            _count_summary(metrics, "fallback")
        mode = modes.get(param.name, READ_WRITE)
        accesses.append(BufferAccess(uid, value.name or param.name,
                                     0, value.nbytes, mode,
                                     provenance=f"arg {param.name}"))
    return accesses
