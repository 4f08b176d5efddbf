"""SkelAccess: the one abstract interpreter of kernelc statements.

:class:`_Scanner` executes a function body once over an abstract state
and every static question the runtime asks about a kernel is a query on
what that walk recorded (``docs/analysis.md`` has the full account):

* **abstract state** — integer scalars are small sets of guarded affine
  alternatives ``(form, guards)`` (capped at :data:`MAX_ALTS`; ``None``
  is "unknown"), a form being ``base + sum(coeff * sym)`` over the
  work-item ids and fresh loop-induction symbols with polynomial
  coefficients in the uniform symbols (scalar parameters, NDRange
  sizes); pointers are tracked to their *root* — a pointer parameter
  or a fixed-size array — plus an affine offset;
* **if** — both branches run on copies and are joined (untouched
  variables verbatim, the rest as guarded alternatives);
  ``if (c) return;`` narrows the rest of the function by ``!c``;
* **loops** — ``for (i = a; cond; i += s)`` with an affine start and a
  uniform step whose body does not assign ``i`` binds ``i`` to
  ``a + s*t`` for a fresh symbol ``t`` under the guard ``cond``;
  everything else a loop assigns is havocked before and after it, and
  so is what a ``switch`` assigns (cases fall through, break early or
  match nothing);
* **calls** — user functions are executed inline (depth-limited), their
  early-return guards scoped to the call, their ``return`` values
  joined; unmodelled builtins receiving a pointer poison its root;
* **escape** — a pointer the walk cannot root (aliasing through a
  conditional, recursion, casts from integers) demotes every parameter
  it may alias to the whole-buffer *fallback* with a recorded reason.

Recorded on the way: an access *footprint* (parameter, mode, index
form, guards) per pointer-parameter access, a *site* per fixed-size
array access, the read/write *mode* flags of every pointer parameter
(fallback ones included), the offsets of registered accessor calls
(MapOverlap's ``get``), which variables' definitions read which others
(id-dependence for ``barrier-divergence``), and the loop behind every
induction symbol.

Every consumer bounds a recorded form the same way, :func:`bound_form`:
substitute what an :class:`EvalEnv` binds, narrow the variant symbols'
ranges through the guards, box the form.  At enqueue time
:func:`make_eval_env` / :func:`resolve_footprint` do so for the
concrete NDRange and scalar arguments and produce exact byte ranges
with a gcd-derived stride (``out[2*gid]`` and ``out[2*gid+1]`` resolve
to interleaved, *disjoint* strided ranges).

Unsigned wrap-around is deliberately ignored: an index that wraps past
2^64 faults in the interpreter long before the footprint matters, and
modelling it would cost every summary its precision.

Consumers: :mod:`repro.analysis.access` (SkelSan access sets and
modes), :mod:`repro.kernelc.lint` (``constant-index-oob``,
``symbolic-oob``, ``barrier-divergence``, ``uncoalesced-access``,
``strided-global-read``), :mod:`repro.plan.compose` (fusion legality)
and :mod:`repro.kernelc.boundcheck` (MapOverlap check elision and halo
shrinking).
"""

from __future__ import annotations

import math
import re
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from ..kernelc import ast
from ..kernelc.ctypes_ import ArrayType, CType, PointerType

# Symbols are tuples.  Uniform (same value for every work-item):
#   ("param", name) ("gsize", d) ("lsize", d) ("ngroups", d)
# Variant (distinguish work-items / loop iterations):
#   ("gid", d) ("lid", d) ("grp", d) ("iv", n)
Sym = Tuple

#: Alternatives tracked per scalar variable / expression before the
#: analysis gives up on path sensitivity.
MAX_ALTS = 8

#: Loop-induction symbols are unbounded above; evaluation clips them.
IV_LIMIT = 1 << 40


def is_variant(sym: Sym) -> bool:
    return sym[0] in ("gid", "lid", "grp", "iv")


def format_sym(sym: Sym) -> str:
    kind = sym[0]
    if kind == "param":
        return str(sym[1])
    if kind == "iv":
        return f"t{sym[1]}"
    name = {"gid": "get_global_id", "lid": "get_local_id",
            "grp": "get_group_id", "gsize": "get_global_size",
            "lsize": "get_local_size", "ngroups": "get_num_groups"}[kind]
    return f"{name}({sym[1]})"


class UExpr:
    """An integer polynomial over *uniform* symbols.

    ``terms`` maps a sorted monomial (tuple of symbols) to its integer
    coefficient; the empty monomial is the constant term.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Tuple[Sym, ...], int]] = None):
        self.terms: Dict[Tuple[Sym, ...], int] = {
            m: c for m, c in (terms or {}).items() if c != 0
        }

    @staticmethod
    def const(value: int) -> "UExpr":
        return UExpr({(): int(value)})

    @staticmethod
    def sym(symbol: Sym) -> "UExpr":
        return UExpr({(symbol,): 1})

    @property
    def is_const(self) -> bool:
        return all(m == () for m in self.terms)

    @property
    def const_value(self) -> int:
        return self.terms.get((), 0)

    def __add__(self, other: "UExpr") -> "UExpr":
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return UExpr(terms)

    def __sub__(self, other: "UExpr") -> "UExpr":
        return self + (-other)

    def __neg__(self) -> "UExpr":
        return UExpr({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "UExpr") -> "UExpr":
        terms: Dict[Tuple[Sym, ...], int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(sorted(m1 + m2))
                terms[m] = terms.get(m, 0) + c1 * c2
        return UExpr(terms)

    def evaluate(self, uniforms: Dict[Sym, int]) -> int:
        total = 0
        for m, c in self.terms.items():
            value = c
            for symbol in m:
                value *= uniforms[symbol]  # KeyError -> unresolvable
            total += value
        return total

    def key(self):
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other) -> bool:
        return isinstance(other, UExpr) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"UExpr({self.format()})"

    def format(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in sorted(self.terms.items()):
            names = "*".join(format_sym(s) for s in m)
            if not names:
                parts.append(str(c))
            elif c == 1:
                parts.append(names)
            elif c == -1:
                parts.append(f"-{names}")
            else:
                parts.append(f"{c}*{names}")
        text = parts[0]
        for part in parts[1:]:
            text += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return text


class AffineForm:
    """``base + sum(coeff[s] * s)`` over variant symbols ``s``, with
    :class:`UExpr` (uniform) coefficients."""

    __slots__ = ("base", "terms")

    def __init__(self, base: UExpr, terms: Optional[Dict[Sym, UExpr]] = None):
        self.base = base
        self.terms: Dict[Sym, UExpr] = {
            s: c for s, c in (terms or {}).items() if c.terms
        }

    @staticmethod
    def const(value: int) -> "AffineForm":
        return AffineForm(UExpr.const(value))

    @staticmethod
    def sym(symbol: Sym) -> "AffineForm":
        if is_variant(symbol):
            return AffineForm(UExpr.const(0), {symbol: UExpr.const(1)})
        return AffineForm(UExpr.sym(symbol))

    @property
    def is_uniform(self) -> bool:
        return not self.terms

    @property
    def is_const(self) -> bool:
        return not self.terms and self.base.is_const

    @property
    def const_value(self) -> int:
        return self.base.const_value

    def __add__(self, other: "AffineForm") -> "AffineForm":
        terms = dict(self.terms)
        for s, c in other.terms.items():
            terms[s] = terms.get(s, UExpr()) + c
        return AffineForm(self.base + other.base, terms)

    def __sub__(self, other: "AffineForm") -> "AffineForm":
        return self + (-other)

    def __neg__(self) -> "AffineForm":
        return AffineForm(-self.base, {s: -c for s, c in self.terms.items()})

    def scale(self, factor: UExpr) -> "AffineForm":
        return AffineForm(self.base * factor,
                          {s: c * factor for s, c in self.terms.items()})

    def mul(self, other: "AffineForm") -> Optional["AffineForm"]:
        """Product when at least one side is uniform; None otherwise."""
        if other.is_uniform:
            return self.scale(other.base)
        if self.is_uniform:
            return other.scale(self.base)
        return None

    def key(self):
        return (self.base.key(),
                tuple(sorted((s, c.key()) for s, c in self.terms.items())))

    def __eq__(self, other) -> bool:
        return (isinstance(other, AffineForm) and self.base == other.base
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"AffineForm({self.format()})"

    def uniform_symbols(self) -> Iterator[Sym]:
        """Every uniform symbol the base or a coefficient mentions."""
        for polynomial in (self.base, *self.terms.values()):
            for monomial in polynomial.terms:
                yield from monomial

    def format(self) -> str:
        parts = []
        for s, c in sorted(self.terms.items()):
            if c.is_const and c.const_value == 1:
                parts.append(format_sym(s))
            elif c.is_const:
                parts.append(f"{c.const_value}*{format_sym(s)}")
            else:
                parts.append(f"({c.format()})*{format_sym(s)}")
        base = self.base.format()
        if base != "0" or not parts:
            parts.append(base)
        text = parts[0]
        for part in parts[1:]:
            text += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return text


# A guard is an AffineForm ``f`` asserting ``f <= 0``.
Guard = AffineForm
Guards = Tuple[Guard, ...]
# One guarded alternative value of a scalar expression; ``None`` form
# means "unknown" (non-affine).
Alt = Tuple[Optional[AffineForm], Guards]
Alts = Tuple[Alt, ...]

_UNKNOWN: Alts = ((None, ()),)


def _single_form(alts: Alts) -> Optional[AffineForm]:
    """The unique unguarded form of ``alts``, or None."""
    if len(alts) == 1 and alts[0][0] is not None and not alts[0][1]:
        return alts[0][0]
    return None


# -- summary data model ------------------------------------------------------


@dataclass(frozen=True)
class Footprint:
    """One static access site through a pointer parameter."""

    param: str
    mode: str  # 'r' or 'w'
    index: AffineForm  # element index
    guards: Guards
    expr: str  # source text of the access, for provenance
    span: object = None

    def warp_stride(self) -> Optional[int]:
        """Element stride between lane-adjacent work-items (dimension
        0), or None when it is symbolic (uniform but not constant)."""
        stride = UExpr()
        for sym in (("gid", 0), ("lid", 0)):
            stride = stride + self.index.terms.get(sym, UExpr())
        if stride.is_const:
            return stride.const_value
        return None


@dataclass(frozen=True)
class ArraySite:
    """An access into a fixed-size array (``__local`` tiles etc.)."""

    name: str
    length: int
    mode: str
    index: Optional[AffineForm]
    guards: Guards
    expr: str
    span: object = None


@dataclass
class ParamSummary:
    name: str
    space: str  # address space of the pointee
    elem_size: int
    footprints: List[Footprint] = field(default_factory=list)
    whole_buffer_reason: Optional[str] = None  # None = fully affine

    @property
    def affine(self) -> bool:
        return self.whole_buffer_reason is None


@dataclass
class KernelSummary:
    kernel: str
    #: ``__global``/``__constant`` pointer parameters of a kernel.
    params: Dict[str, ParamSummary]
    array_sites: List[ArraySite]
    #: Access mode of *every* pointer parameter: what the walk saw read
    #: and written through it (an escape counts as both), ``'r'`` for a
    #: ``const`` pointee or an untouched parameter, and a declared
    #: ``/*@intent:*/`` verbatim.
    modes: Dict[str, str] = field(default_factory=dict)
    #: ``(barrier span, condition span)`` for every ``barrier()`` inside
    #: control flow whose condition depends on a work-item id.
    divergent_barriers: List[Tuple[object, object]] = field(default_factory=list)
    #: User functions the walk entered from this one.
    reached: Set[str] = field(default_factory=set)
    #: reqd_work_group_size attribute values, or None.
    reqd_wg: Optional[Tuple[int, int, int]] = None
    #: Per call of the registered accessor (:func:`summarize_function`):
    #: ``(offset alternatives of each argument after the pointer, guards)``.
    accessor_sites: List[Tuple[Tuple[Alts, ...], Guards]] = field(default_factory=list)
    #: Induction symbol -> (its loop statement, uniform step).
    iv_loops: Dict[Sym, Tuple[ast.Stmt, UExpr]] = field(default_factory=dict)
    #: Launch shape -> resolved access rows: the enqueue-time memo of
    #: :func:`repro.analysis.access.kernel_buffer_accesses`, kept here so
    #: it lives and dies with the summary (i.e. with the AST).
    launch_shapes: "OrderedDict[tuple, tuple]" = field(
        default_factory=OrderedDict, repr=False, compare=False)

    @cached_property
    def footprint_scalars(self) -> FrozenSet[str]:
        """The scalar parameters some footprint index or guard of an
        affine parameter names — the only scalar arguments enqueue-time
        resolution reads (no form mentions the others, so they cannot
        change its answer)."""
        return frozenset(
            sym[1]
            for psum in self.params.values() if psum.affine
            for fp in psum.footprints
            for form in (fp.index, *fp.guards)
            for sym in form.uniform_symbols() if sym[0] == "param")

    @property
    def fallback_params(self) -> List[str]:
        return [n for n, p in self.params.items() if not p.affine]


class _Ptr:
    """A pointer value rooted at a parameter or fixed array."""

    __slots__ = ("kind", "name", "length", "offset")

    def __init__(self, kind: str, name: str, offset: AffineForm,
                 length: int = 0):
        self.kind = kind  # "param" or "array"
        self.name = name
        self.offset = offset
        self.length = length  # elements ("array" roots only)

    def shifted(self, delta: AffineForm) -> "_Ptr":
        return _Ptr(self.kind, self.name, self.offset + delta, self.length)


def _elem_size(ctype: CType) -> int:
    try:
        return ctype.sizeof()
    except TypeError:
        return 1


def _parse_reqd_wg(fn: ast.FunctionDef) -> Optional[Tuple[int, int, int]]:
    for attr in getattr(fn, "attributes", ()):
        m = re.match(r"reqd_work_group_size\((\d+)(?:,(\d+))?(?:,(\d+))?\)",
                     attr.replace(" ", ""))
        if m:
            return (int(m.group(1)), int(m.group(2) or 1), int(m.group(3) or 1))
    return None


# -- the scanner -------------------------------------------------------------

_DIM_SYMS = {"get_global_id": "gid", "get_local_id": "lid",
             "get_group_id": "grp", "get_global_size": "gsize",
             "get_local_size": "lsize", "get_num_groups": "ngroups"}

_MAX_CALL_DEPTH = 8

_ZERO: Alts = ((AffineForm.const(0), ()),)

_ALIASING = "pointer aliasing the analysis cannot root"

#: Stands for ``get_global_id``/``get_local_id`` in the read sets of
#: the id-dependence relation (variables are ``(frame, name)`` keys).
_ID = "work-item id"


class _Scanner:
    """One abstract execution of ``fn`` (see the module docstring).

    ``accessor`` names a neighbourhood accessor (MapOverlap's ``get``)
    whose calls are recorded in ``accessor_sites`` instead of being
    treated as an unknown function; the walk reads type annotations
    only where it has no other way to tell a pointer, so it also runs
    on the unchecked AST of a customizing function."""

    def __init__(self, fn: ast.FunctionDef, functions=(), globals_=(),
                 source=None, accessor: Optional[str] = None):
        self.fn = fn
        self.functions = {f.name: f for f in functions}
        self.globals = globals_
        self.source = source
        self.accessor = accessor
        self.pointer_params: Dict[str, PointerType] = {
            p.name: p.declared_type for p in fn.params
            if isinstance(p.declared_type, PointerType)
        }
        self.footprints: List[Footprint] = []
        self.array_sites: List[ArraySite] = []
        #: (offset Alts per accessor argument, guards) per accessor call.
        self.accessor_sites: List[Tuple[Tuple[Alts, ...], Guards]] = []
        self.fallbacks: Dict[str, str] = {}  # param -> reason
        self.modes: Dict[str, Set[str]] = {n: set() for n in self.pointer_params}
        #: induction symbol -> (its ``for`` statement, uniform step).
        self.iv_loops: Dict[Sym, Tuple[ast.ForStmt, UExpr]] = {}
        self.reached: Set[str] = set()
        self.guards: List[Guard] = []
        self._call_stack: List[str] = []
        self._returns_stack: List[Tuple[List[Alt], int]] = []
        # Id-dependence: which variables (and the id builtins) each
        # variable's definitions read, and per barrier() the conditions
        # it is nested in with what those read.  Flow-insensitive on
        # purpose — a loop's back edge needs no second pass.
        self._frame = self._frames = 0
        self._reads: Set = set()
        self._deps: Dict[Tuple[int, str], Set] = {}
        self._control: List[Tuple[object, Set]] = []
        self._barriers: List[Tuple[object, Tuple[Tuple[object, Set], ...]]] = []

    # -- entry ---------------------------------------------------------------

    def run(self) -> None:
        env: Dict[str, Alts] = {}
        ptrs: Dict[str, Optional[_Ptr]] = {}
        for param in self.fn.params:
            ctype = param.declared_type
            if isinstance(ctype, PointerType):
                ptrs[param.name] = _Ptr("param", param.name, AffineForm.const(0))
            elif isinstance(ctype, ArrayType):
                ptrs[param.name] = None
            elif ctype.is_integer():
                env[param.name] = ((AffineForm.sym(("param", param.name)), ()),)
            else:
                env[param.name] = _UNKNOWN
        for decl in self.globals:
            if isinstance(decl.decl.declared_type, ArrayType):
                self._exec_decl(decl.decl, env, ptrs)
        if self.fn.body is not None:
            self.exec_stmt(self.fn.body, env, ptrs)

    def divergent_barriers(self) -> List[Tuple[object, object]]:
        """``(barrier span, condition span)`` of every barrier nested in
        a condition that (transitively) reads a work-item id."""
        dependent = {_ID}
        grew = bool(self._barriers)
        while grew:
            grew = False
            for key, reads in self._deps.items():
                if key not in dependent and not dependent.isdisjoint(reads):
                    dependent.add(key)
                    grew = True
        found = []
        for span, conditions in self._barriers:
            for condition_span, reads in conditions:
                if not dependent.isdisjoint(reads):
                    found.append((span, condition_span))
                    break
        return found

    def _fallback(self, name: str, reason: str, flags: str = "rw") -> None:
        self.modes[name].update(flags)
        self.fallbacks.setdefault(name, reason)

    def _lose(self, ptr: Optional[_Ptr], reason: str = _ALIASING) -> None:
        """``ptr`` is about to be forgotten: what it points into can no
        longer be summarized."""
        if ptr is not None and ptr.kind == "param":
            self._fallback(ptr.name, reason)

    def _escape(self, expr: ast.Expr, ptrs) -> None:
        """Demote every pointer parameter ``expr`` may alias."""
        for node in ast.walk(expr):
            if isinstance(node, ast.Identifier):
                self._lose(ptrs.get(node.name))

    def _reading(self, evaluate, *args):
        """``(evaluate(*args), the variables and id builtins it read)``."""
        outer, self._reads = self._reads, set()
        result = evaluate(*args)
        reads, self._reads = self._reads, outer
        outer |= reads
        return result, reads

    def _define(self, name: str, reads: Set) -> None:
        self._deps.setdefault((self._frame, name), set()).update(reads)

    def _text(self, span) -> str:
        if self.source is None or span is None:
            return ""
        return " ".join(
            self.source.text[span.start.offset:span.end.offset].split())

    # -- access recording ----------------------------------------------------

    def _record(self, ptr: Optional[_Ptr], index: Alts, mode: str,
                node: ast.Expr) -> None:
        if ptr is None:
            return
        text = self._text(node.span)
        guards = tuple(self.guards)
        for form, alt_guards in index:
            total = None if form is None else ptr.offset + form
            if ptr.kind == "array":  # the out-of-bounds lints' sites
                self.array_sites.append(ArraySite(
                    ptr.name, ptr.length, mode, total, guards + alt_guards,
                    text, node.span))
            elif total is None:
                self._fallback(ptr.name, f"non-affine index in {text!r}", mode)
            else:
                self.modes[ptr.name].add(mode)
                self.footprints.append(Footprint(
                    ptr.name, mode, total, guards + alt_guards, text,
                    node.span))

    def _store(self, target: ast.Expr, env, ptrs, also_read: bool) -> None:
        """A store through an lvalue that is not a plain variable."""
        while isinstance(target, ast.Member):
            target = target.base
        if isinstance(target, ast.Index):
            ptr, index = self._eval_access(target, env, ptrs)
        elif isinstance(target, ast.UnaryOp) and target.op == "*":
            ptr, index = self._rooted(target.operand, env, ptrs), _ZERO
        else:
            self._eval_any(target, env, ptrs)
            return
        self._record(ptr, index, "w", target)
        if also_read:
            self._record(ptr, index, "r", target)

    # -- expression evaluation ----------------------------------------------

    def _eval(self, expr: ast.Expr, env, ptrs) -> Alts:
        """Evaluate an integer-valued expression to guarded alternatives,
        collecting any accesses it performs."""
        if isinstance(expr, (ast.IntLiteral, ast.CharLiteral)):
            return ((AffineForm.const(expr.value), ()),)
        if isinstance(expr, ast.Identifier):
            self._reads.add((self._frame, expr.name))
            if expr.name in ptrs:
                return _UNKNOWN  # pointer used as value: not an int
            return env.get(expr.name, _UNKNOWN)
        if isinstance(expr, ast.Cast):
            inner = self._eval_any(expr.operand, env, ptrs)
            target = expr.target_type
            if isinstance(target, CType) and target.is_integer():
                return inner
            return _UNKNOWN
        if isinstance(expr, ast.UnaryOp):
            return self._eval_unary(expr, env, ptrs)
        if isinstance(expr, ast.PostfixOp):
            self._apply_incdec(expr, env, ptrs)
            return _UNKNOWN
        if isinstance(expr, ast.BinaryOp):
            return self._eval_binary(expr, env, ptrs)
        if isinstance(expr, ast.Assignment):
            return self._eval_assignment(expr, env, ptrs)
        if isinstance(expr, ast.Conditional):
            return self._eval_conditional(expr, env, ptrs)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env, ptrs)
        if isinstance(expr, ast.Index):
            ptr, index = self._eval_access(expr, env, ptrs)
            self._record(ptr, index, "r", expr)
            return _UNKNOWN
        if isinstance(expr, ast.SizeofExpr):
            try:
                if expr.queried_type is not None:
                    return ((AffineForm.const(expr.queried_type.sizeof()), ()),)
                if expr.operand is not None and expr.operand.ctype is not None:
                    return ((AffineForm.const(expr.operand.ctype.sizeof()), ()),)
            except TypeError:
                pass
            return _UNKNOWN
        # Member, CommaExpr, VectorLiteral, float/string literals: scan
        # the operands; a comma expression has its last operand's value.
        result: Alts = _UNKNOWN
        for child in ast.children(expr):
            result = self._eval_any(child, env, ptrs)
        return result if isinstance(expr, ast.CommaExpr) else _UNKNOWN

    def _eval_any(self, expr: ast.Expr, env, ptrs) -> Alts:
        """Evaluate for side effects/accesses; pointer-valued expressions
        are scanned and yield unknown."""
        if self._maybe_pointer(expr, ptrs):
            self._eval_pointer(expr, env, ptrs)
            return _UNKNOWN
        return self._eval(expr, env, ptrs)

    def _eval_unary(self, expr: ast.UnaryOp, env, ptrs) -> Alts:
        op = expr.op
        if op in ("++", "--"):
            self._apply_incdec(expr, env, ptrs)
            return _UNKNOWN
        if op == "*":
            self._record(self._rooted(expr.operand, env, ptrs), _ZERO, "r", expr)
            return _UNKNOWN
        inner = self._eval_any(expr.operand, env, ptrs)
        if op == "+":
            return inner
        if op == "-":
            return tuple((None if f is None else -f, g) for f, g in inner)
        return _UNKNOWN  # ! ~ on values

    def _eval_binary(self, expr: ast.BinaryOp, env, ptrs) -> Alts:
        left = self._eval_any(expr.left, env, ptrs)
        right = self._eval_any(expr.right, env, ptrs)
        if expr.op in ("&&", "||", "<", "<=", ">", ">=", "==", "!="):
            return _UNKNOWN
        return self._combine_alts(expr.op, left, right)

    def _combine_alts(self, op: str, left: Alts, right: Alts) -> Alts:
        combos = [self._combine(op, lf, rf, lg + rg)
                  for lf, lg in left for rf, rg in right]
        return tuple(combos) if len(combos) <= MAX_ALTS else _UNKNOWN

    def _combine(self, op: str, lf: Optional[AffineForm],
                 rf: Optional[AffineForm], guards: Guards) -> Alt:
        if lf is None or rf is None:
            return (None, guards)
        if op == "+":
            return (lf + rf, guards)
        if op == "-":
            return (lf - rf, guards)
        if op == "*":
            return (lf.mul(rf), guards)
        if op == "<<" and rf.is_const and 0 <= rf.const_value < 31:
            return (lf.scale(UExpr.const(1 << rf.const_value)), guards)
        if op in ("/", "%") and lf.is_const and rf.is_const and rf.const_value:
            # C integer division truncates toward zero.
            lv, rv = lf.const_value, rf.const_value
            quot = abs(lv) // abs(rv)
            if (lv < 0) != (rv < 0):
                quot = -quot
            if op == "/":
                return (AffineForm.const(quot), guards)
            return (AffineForm.const(lv - quot * rv), guards)
        return (None, guards)

    def _eval_conditional(self, expr: ast.Conditional, env, ptrs) -> Alts:
        then_guards, else_guards = self.cond_guards(expr.condition, env, ptrs)
        then_alts = self._eval_any(expr.then_expr, env, ptrs)
        else_alts = self._eval_any(expr.else_expr, env, ptrs)
        merged = tuple((f, g + then_guards) for f, g in then_alts) + \
            tuple((f, g + else_guards) for f, g in else_alts)
        return merged if len(merged) <= MAX_ALTS else _UNKNOWN

    def _eval_assignment(self, expr: ast.Assignment, env, ptrs) -> Alts:
        target, op = expr.target, expr.op
        name = target.name if isinstance(target, ast.Identifier) else None
        reseat = name in ptrs
        evaluate = (self._eval_any if not reseat
                    else self._rooted if op == "=" else self._eval)
        value, reads = self._reading(evaluate, expr.value, env, ptrs)
        if name is None:
            self._store(target, env, ptrs, also_read=op != "=")
            return value
        self._define(name, reads)
        if reseat:
            old = ptrs[name]
            delta = _single_form(value) if op in ("+=", "-=") else None
            if op == "=":
                ptrs[name] = value
            elif old is None or delta is None:
                self._lose(old)
                ptrs[name] = None
            else:
                ptrs[name] = old.shifted(delta if op == "+=" else -delta)
            return _UNKNOWN
        if op == "=":
            env[name] = value
        elif op in ("+=", "-="):
            env[name] = self._combine_alts(op[0], env.get(name, _UNKNOWN), value)
        else:
            env[name] = _UNKNOWN
        return env[name]

    def _apply_incdec(self, expr, env, ptrs) -> None:
        operand = expr.operand
        delta = AffineForm.const(1 if expr.op == "++" else -1)
        if not isinstance(operand, ast.Identifier):
            self._store(operand, env, ptrs, also_read=True)
        elif operand.name in ptrs:
            old = ptrs[operand.name]
            ptrs[operand.name] = None if old is None else old.shifted(delta)
        else:
            old = env.get(operand.name, _UNKNOWN)
            env[operand.name] = tuple(
                (None if f is None else f + delta, g) for f, g in old)

    # -- pointers ------------------------------------------------------------

    def _maybe_pointer(self, expr: ast.Expr, ptrs) -> bool:
        """Can ``expr`` evaluate to a pointer?  The checker's annotation
        decides when there is one; an unchecked AST is classified by
        shape, erring towards "yes"."""
        ctype = getattr(expr, "ctype", None)
        if isinstance(expr, ast.Identifier):
            return expr.name in ptrs or isinstance(ctype, (PointerType, ArrayType))
        if ctype is not None:
            return isinstance(ctype, (PointerType, ArrayType))
        if isinstance(expr, ast.UnaryOp):
            return expr.op == "&"
        if isinstance(expr, ast.Cast):
            return (isinstance(expr.target_type, PointerType)
                    or self._maybe_pointer(expr.operand, ptrs))
        if isinstance(expr, ast.BinaryOp):
            return expr.op in ("+", "-") and (
                self._maybe_pointer(expr.left, ptrs)
                or self._maybe_pointer(expr.right, ptrs))
        if isinstance(expr, (ast.Conditional, ast.CommaExpr, ast.Assignment)):
            return any(self._maybe_pointer(child, ptrs)
                       for child in ast.children(expr))
        return False

    def _eval_pointer(self, expr: ast.Expr, env, ptrs) -> Optional[_Ptr]:
        """The rooted pointer ``expr`` evaluates to, or None when it is
        not one the walk can root."""
        if isinstance(expr, ast.Identifier):
            self._reads.add((self._frame, expr.name))
            return ptrs.get(expr.name)
        if isinstance(expr, ast.Cast):
            return self._eval_pointer(expr.operand, env, ptrs)
        if isinstance(expr, ast.UnaryOp) and expr.op == "&":
            expr = expr.operand  # &a[i] is a + i
        if isinstance(expr, ast.Index):  # also: a row of an array of arrays
            base, index = self._eval_access(expr, env, ptrs)
            form = _single_form(index)
            return None if base is None or form is None else base.shifted(form)
        if isinstance(expr, ast.BinaryOp) and expr.op in ("+", "-"):
            base_expr, offset_expr = expr.left, expr.right
            if self._maybe_pointer(offset_expr, ptrs):
                base_expr, offset_expr = offset_expr, base_expr
            if expr.op == "+" or base_expr is expr.left:
                base = self._eval_pointer(base_expr, env, ptrs)
                delta = _single_form(self._eval_any(offset_expr, env, ptrs))
                if base is None or delta is None:
                    return None
                return base.shifted(delta if expr.op == "+" else -delta)
        self._eval(expr, env, ptrs)  # scanned and executed, not rooted
        return None

    def _rooted(self, expr: ast.Expr, env, ptrs) -> Optional[_Ptr]:
        """``_eval_pointer``, demoting what ``expr`` may alias when it
        cannot be rooted."""
        ptr = self._eval_pointer(expr, env, ptrs)
        if ptr is None:
            self._escape(expr, ptrs)
        return ptr

    def _eval_access(self, expr: ast.Index, env, ptrs):
        """(_Ptr or None, index Alts) for ``base[index]``; scales the
        index by the row length for arrays of arrays."""
        base_ptr = self._rooted(expr.base, env, ptrs)
        index = self._eval(expr.index, env, ptrs)
        base_type = getattr(expr.base, "ctype", None)
        element = None
        if isinstance(base_type, PointerType):
            element = base_type.pointee
        elif isinstance(base_type, ArrayType):
            element = base_type.element
        if isinstance(element, ArrayType):
            factor = UExpr.const(element.flat_length())
            index = tuple(
                (None if f is None else f.scale(factor), g) for f, g in index)
        return base_ptr, index

    # -- conditions ----------------------------------------------------------

    def cond_guards(self, expr: ast.Expr, env, ptrs) -> Tuple[Guards, Guards]:
        """(then_guards, else_guards) implied by ``expr``."""
        if isinstance(expr, ast.UnaryOp) and expr.op == "!":
            then_g, else_g = self.cond_guards(expr.operand, env, ptrs)
            return else_g, then_g
        if isinstance(expr, ast.BinaryOp) and expr.op in ("&&", "||"):
            lt, lf = self.cond_guards(expr.left, env, ptrs)
            rt, rf = self.cond_guards(expr.right, env, ptrs)
            return (lt + rt, ()) if expr.op == "&&" else ((), lf + rf)
        if isinstance(expr, ast.BinaryOp) and expr.op in (
                "<", "<=", ">", ">=", "==", "!="):
            left = _single_form(self._eval_any(expr.left, env, ptrs))
            right = _single_form(self._eval_any(expr.right, env, ptrs))
            if left is None or right is None:
                return (), ()
            one = AffineForm.const(1)
            if expr.op == "<":   # a < b  |  not: b <= a
                return (left - right + one,), (right - left,)
            if expr.op == "<=":
                return (left - right,), (right - left + one,)
            if expr.op == ">":
                return (right - left + one,), (left - right,)
            if expr.op == ">=":
                return (right - left,), (left - right + one,)
            if expr.op == "==":
                return (left - right, right - left), ()
            return (), (left - right, right - left)  # !=
        # Bare integer condition `if (n)` etc: nothing useful.
        self._eval_any(expr, env, ptrs)
        return (), ()

    # -- calls ---------------------------------------------------------------

    def _eval_call(self, expr: ast.Call, env, ptrs) -> Alts:
        name = expr.callee
        if name in _DIM_SYMS:
            kind, dim = _DIM_SYMS[name], 0
            if kind in ("gid", "lid"):
                self._reads.add(_ID)
            if expr.args:
                arg = _single_form(self._eval(expr.args[0], env, ptrs))
                if arg is None or not arg.is_const:
                    return _UNKNOWN
                dim = arg.const_value
            if not 0 <= dim <= 2:
                return _UNKNOWN
            return ((AffineForm.sym((kind, dim)), ()),)
        if name == self.accessor and expr.args:
            ptr = self._eval_pointer(expr.args[0], env, ptrs)
            offsets = tuple(self._eval(a, env, ptrs) for a in expr.args[1:])
            if (ptr is None or ptr.kind != "param"
                    or ptr.offset != AffineForm.const(0)):
                self._escape(expr.args[0], ptrs)
            else:
                self.modes[ptr.name].add("r")
                self.accessor_sites.append((offsets, tuple(self.guards)))
            return _UNKNOWN
        callee = self.functions.get(name)
        if callee is not None and callee.body is not None:
            return self._eval_user_call(expr, callee, env, ptrs)
        if name == "barrier":
            self._barriers.append((expr.span, tuple(self._control)))
        args = [self._eval_any(a, env, ptrs) for a in expr.args]
        if name == "get_global_offset":
            return _ZERO
        return self._eval_builtin(name, args, expr, ptrs)

    def _eval_builtin(self, name: str, args: List[Alts], expr: ast.Call,
                      ptrs) -> Alts:
        # Any pointer reaching an unmodelled function (vload/vstore,
        # async copies, atomics, a prototype) demotes its root.
        for arg in expr.args:
            if self._maybe_pointer(arg, ptrs):
                self._escape(arg, ptrs)
        ctype = getattr(expr, "ctype", None)
        if ctype is None or not ctype.is_integer():
            return _UNKNOWN
        forms = [_single_form(a) for a in args]
        if None in forms:
            return _UNKNOWN
        one = AffineForm.const(1)
        if name == "min" and len(forms) == 2:  # a when a<=b, b when b<a
            a, b = forms
            return ((a, (a - b,)), (b, (b - a + one,)))
        if name == "max" and len(forms) == 2:
            a, b = forms
            return ((a, (b - a,)), (b, (a - b + one,)))
        if name == "clamp" and len(forms) == 3:
            x, lo, hi = forms
            return ((x, (lo - x, x - hi)),
                    (lo, (x - lo + one,)),
                    (hi, (hi - x + one,)))
        return _UNKNOWN

    def _eval_user_call(self, expr: ast.Call, callee: ast.FunctionDef,
                        env, ptrs) -> Alts:
        if callee.name in self._call_stack or \
                len(self._call_stack) >= _MAX_CALL_DEPTH:
            for arg in expr.args:
                self._eval_any(arg, env, ptrs)
                self._escape(arg, ptrs)
            return _UNKNOWN
        self.reached.add(callee.name)
        self._frames += 1
        frame = self._frames
        callee_env: Dict[str, Alts] = {}
        callee_ptrs: Dict[str, Optional[_Ptr]] = {}
        for param, arg in zip(callee.params, expr.args):
            ctype = param.declared_type
            if isinstance(ctype, (PointerType, ArrayType)):
                callee_ptrs[param.name], reads = self._reading(
                    self._rooted, arg, env, ptrs)
            else:
                value, reads = self._reading(self._eval_any, arg, env, ptrs)
                callee_env[param.name] = value if ctype.is_integer() else _UNKNOWN
            self._deps[(frame, param.name)] = reads
        self._call_stack.append(callee.name)
        self._returns_stack.append(([], len(self.guards)))
        outer_frame, self._frame = self._frame, frame
        self.exec_stmt(callee.body, callee_env, callee_ptrs)
        self._frame = outer_frame
        self._call_stack.pop()
        # Early returns in the callee (`if (c) return x;`) guard the
        # *callee's* remaining statements by extending self.guards;
        # those guards must not outlive the call, or the caller's
        # subsequent accesses would be narrowed by them.
        collected, depth = self._returns_stack.pop()
        del self.guards[depth:]
        if callee.return_type.is_integer() and 0 < len(collected) <= MAX_ALTS:
            return tuple(collected)
        return _UNKNOWN

    # -- statements ----------------------------------------------------------

    def exec_stmt(self, stmt: ast.Stmt, env, ptrs) -> None:
        if isinstance(stmt, ast.CompoundStmt):
            for child in stmt.statements:
                self.exec_stmt(child, env, ptrs)
        elif isinstance(stmt, ast.DeclStmt):
            for decl in stmt.decls:
                _, reads = self._reading(self._exec_decl, decl, env, ptrs)
                self._define(decl.name, reads)
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                self._eval_any(stmt.expr, env, ptrs)
        elif isinstance(stmt, ast.IfStmt):
            self._exec_if(stmt, env, ptrs)
        elif isinstance(stmt, (ast.ForStmt, ast.WhileStmt, ast.DoStmt)):
            self._exec_loop(stmt, env, ptrs)
        elif isinstance(stmt, ast.ReturnStmt):
            if stmt.value is not None:
                value = self._eval_any(stmt.value, env, ptrs)
                if self._returns_stack:
                    collected, depth = self._returns_stack[-1]
                    extra = tuple(self.guards[depth:])
                    collected.extend((f, extra + g) for f, g in value)
        elif isinstance(stmt, ast.SwitchStmt):
            # Cases fall through, break early or match nothing: like a
            # loop, what the switch assigns is unknown in every case and
            # after it, and an `if (c) return;` narrows its case only.
            _, reads = self._reading(self._eval_any, stmt.subject, env, ptrs)
            self._control.append((stmt.subject.span, reads))
            assigned = _assigned_names(stmt)
            depth = len(self.guards)
            for case in stmt.cases:
                case_env, case_ptrs = dict(env), dict(ptrs)
                self._havoc(assigned, case_env, case_ptrs, "switch")
                for child in case.body:
                    self.exec_stmt(child, case_env, case_ptrs)
                del self.guards[depth:]
            self._control.pop()
            self._havoc(assigned, env, ptrs, "switch")
        # Break/Continue: no effect on the abstract state.

    def _exec_decl(self, decl: ast.VarDecl, env, ptrs) -> None:
        ctype = decl.declared_type
        if isinstance(ctype, ArrayType):
            ptrs[decl.name] = _Ptr("array", decl.name, AffineForm.const(0),
                                   ctype.flat_length())
            if decl.init is not None:
                self._eval_any(decl.init, env, ptrs)
        elif isinstance(ctype, PointerType):
            ptrs[decl.name] = (None if decl.init is None
                               else self._rooted(decl.init, env, ptrs))
        else:
            value = (_UNKNOWN if decl.init is None
                     else self._eval_any(decl.init, env, ptrs))
            env[decl.name] = value if ctype.is_integer() else _UNKNOWN

    def _exec_if(self, stmt: ast.IfStmt, env, ptrs) -> None:
        guards, reads = self._reading(
            self.cond_guards, stmt.condition, env, ptrs)
        self._control.append((stmt.condition.span, reads))
        depth = len(self.guards)
        branches = []
        for branch, branch_guards in zip(
                (stmt.then_branch, stmt.else_branch), guards):
            branch_env, branch_ptrs = dict(env), dict(ptrs)
            if branch is not None:
                self.guards.extend(branch_guards)
                self.exec_stmt(branch, branch_env, branch_ptrs)
                del self.guards[depth:]
            branches.append((branch_env, branch_ptrs, branch_guards))
        self._control.pop()
        # `if (c) return;` narrows the rest of the function by !c.
        for returning, kept in ((stmt.then_branch, branches[1]),
                                (stmt.else_branch, branches[0])):
            if always_returns(returning):
                for state, kept_state in ((env, kept[0]), (ptrs, kept[1])):
                    state.clear()
                    state.update(kept_state)
                self.guards.extend(kept[2])
                return
        self._join_branches(env, ptrs, branches)

    def _join_branches(self, env, ptrs, branches) -> None:
        names = set(env)
        for branch_env, _bp, _g in branches:
            names |= set(branch_env)
        joined: Dict[str, Alts] = {}
        for name in names:
            # A variable no branch reassigned keeps its value verbatim —
            # tagging it with branch guards would only multiply
            # alternatives and defeat _single_form downstream.
            if name in env and all(
                    branch_env.get(name) is env[name]
                    for branch_env, _bp, _g in branches):
                joined[name] = env[name]
                continue
            # Collapse identical alternatives, then cap.
            seen = {}
            for branch_env, _bp, branch_guards in branches:
                for f, g in branch_env.get(name, _UNKNOWN):
                    g = branch_guards + g
                    seen.setdefault((None if f is None else f.key(), g), (f, g))
            merged = tuple(seen.values())
            if len(merged) > MAX_ALTS or any(f is None for f, _ in merged):
                joined[name] = _UNKNOWN
            else:
                joined[name] = merged
        env.clear()
        env.update(joined)
        # Pointers declared inside a branch are out of scope here.
        for name, before in list(ptrs.items()):
            values = [branch_ptrs.get(name) for _be, branch_ptrs, _g in branches]
            first = values[0]
            if all(v is before for v in values) or (first is not None and all(
                    v is not None and (v.kind, v.name) == (first.kind, first.name)
                    and v.offset == first.offset for v in values)):
                ptrs[name] = first
            else:
                for value in values:
                    self._lose(value)
                ptrs[name] = None

    def _havoc(self, names: Set[str], env, ptrs, where: str = "loop") -> None:
        for name in names:
            if name in ptrs:
                self._lose(ptrs[name], f"pointer reassigned in a {where}")
                ptrs[name] = None
            else:
                env[name] = _UNKNOWN

    def _exec_loop(self, stmt, env, ptrs) -> None:
        """``for``/``while``/``do``: everything the loop assigns is
        unknown inside and after it, except the counter of a counting
        ``for``, which is ``start + step * t`` inside (fresh ``t``)."""
        init = getattr(stmt, "init", None)
        increment = getattr(stmt, "increment", None)
        if init is not None:
            self.exec_stmt(init, env, ptrs)
        in_body = _assigned_names(stmt.body)
        assigned = in_body | _assigned_names(increment)
        body_env, body_ptrs = dict(env), dict(ptrs)
        self._havoc(assigned, body_env, body_ptrs)
        counter = self._match_counter(init, increment, in_body, env,
                                      body_env, body_ptrs)
        if counter is not None:
            name, start, step = counter
            iv = ("iv", len(self.iv_loops) + 1)
            self.iv_loops[iv] = (stmt, step)
            body_env[name] = ((start + AffineForm.sym(iv).scale(step), ()),)
        depth = len(self.guards)
        reads: Set = set()
        if stmt.condition is not None:
            (then_g, _), reads = self._reading(
                self.cond_guards, stmt.condition, body_env, body_ptrs)
            if not isinstance(stmt, ast.DoStmt):  # a do body runs once anyway
                self.guards.extend(then_g)
        self._control.append((getattr(stmt.condition, "span", None), reads))
        self.exec_stmt(stmt.body, body_env, body_ptrs)
        if increment is not None:
            self._eval_any(increment, body_env, body_ptrs)
        self._control.pop()
        del self.guards[depth:]
        self._havoc(assigned, env, ptrs)
        if isinstance(init, ast.DeclStmt):
            for decl in init.decls:
                env.pop(decl.name, None)
        else:
            self._havoc(_assigned_names(init), env, ptrs)

    def _match_counter(self, init, increment, in_body: Set[str], env,
                       body_env, body_ptrs):
        """``(name, start form, uniform step)`` of ``for (i = start; …;
        i += step)`` — ``init`` already executed into ``env`` — when the
        start is affine, the step uniform and the body leaves ``i``
        alone; None otherwise."""
        if isinstance(init, ast.DeclStmt) and len(init.decls) == 1:
            name = init.decls[0].name
        elif (isinstance(init, ast.ExprStmt)
                and isinstance(init.expr, ast.Assignment)
                and init.expr.op == "="
                and isinstance(init.expr.target, ast.Identifier)):
            name = init.expr.target.name
        else:
            return None
        start = _single_form(env.get(name, _UNKNOWN))
        if start is None or name in in_body:
            return None
        target = getattr(increment, "operand", getattr(increment, "target", None))
        if not (isinstance(target, ast.Identifier) and target.name == name):
            return None
        if isinstance(increment, (ast.UnaryOp, ast.PostfixOp)) and \
                increment.op in ("++", "--"):
            return name, start, UExpr.const(1 if increment.op == "++" else -1)
        if isinstance(increment, ast.Assignment) and increment.op in ("+=", "-="):
            step = _single_form(self._eval(increment.value, body_env, body_ptrs))
            if step is not None and step.is_uniform:
                return name, start, step.base if increment.op == "+=" else -step.base
        return None


def _assigned_names(node: Optional[ast.Node]) -> Set[str]:
    names: Set[str] = set()
    if node is None:
        return names
    for child in ast.walk(node):
        if isinstance(child, ast.Assignment):
            target = child.target
        elif isinstance(child, (ast.UnaryOp, ast.PostfixOp)) and \
                child.op in ("++", "--"):
            target = child.operand
        elif isinstance(child, ast.VarDecl):
            names.add(child.name)
            continue
        else:
            continue
        if isinstance(target, ast.Identifier):
            names.add(target.name)
    return names


def always_returns(stmt: Optional[ast.Stmt]) -> bool:
    """Conservatively: does every path through ``stmt`` hit a return?"""
    if isinstance(stmt, ast.ReturnStmt):
        return True
    if isinstance(stmt, ast.CompoundStmt):
        return any(always_returns(child) for child in stmt.statements)
    if isinstance(stmt, ast.IfStmt):
        return (always_returns(stmt.then_branch)
                and always_returns(stmt.else_branch))
    if isinstance(stmt, ast.DoStmt):
        return always_returns(stmt.body)  # body runs at least once
    # for/while may iterate zero times; switch may match no case.
    return False


# -- public entry ------------------------------------------------------------


def _merge_mode(flags: Set[str]) -> str:
    return "rw" if flags >= {"r", "w"} else "w" if "w" in flags else "r"


def _summarize(scanner: _Scanner, spaces=None) -> KernelSummary:
    """Run ``scanner`` and package what it recorded; ``params`` covers
    the pointer parameters in ``spaces`` (all of them when None)."""
    fn = scanner.fn
    try:
        scanner.run()
    except RecursionError:
        for name in scanner.pointer_params:
            scanner._fallback(name, "analysis recursion limit")
    # Declared access intents (jit ``/*@intent:func.param=rw*/`` markers)
    # are taken verbatim — a declared ``rw`` on a read-only body stays
    # ``rw``; a ``const`` pointee is read-only by declaration.
    declared = getattr(scanner.source, "declared_intents", None) or {}
    modes: Dict[str, str] = {}
    params: Dict[str, ParamSummary] = {}
    for name, ctype in scanner.pointer_params.items():
        modes[name] = declared.get((fn.name, name)) or (
            "r" if ctype.is_const else _merge_mode(scanner.modes[name]))
        if spaces is None or ctype.address_space in spaces:
            params[name] = ParamSummary(
                name, ctype.address_space, _elem_size(ctype.pointee),
                [f for f in scanner.footprints if f.param == name],
                scanner.fallbacks.get(name))
    return KernelSummary(fn.name, params, scanner.array_sites, modes,
                         scanner.divergent_barriers(), scanner.reached,
                         _parse_reqd_wg(fn), scanner.accessor_sites,
                         scanner.iv_loops)


def summarize_kernel(program: ast.Program,
                     fn: ast.FunctionDef) -> KernelSummary:
    """Summary of one abstract execution of ``fn`` — a kernel, or a
    helper the lint pass looks at on its own — within a *checked*
    ``program``.

    Never raises on kernel content: anything the scanner cannot model
    becomes a per-parameter fallback with a reason.
    """
    return _summarize(
        _Scanner(fn, program.functions, program.globals,
                 getattr(program, "source", None)),
        ("global", "constant"))


def summarize_function(fn: ast.FunctionDef, accessor: str) -> KernelSummary:
    """Summary of a free-standing, possibly *unchecked* function (a
    MapOverlap customizing function) with its calls to ``accessor``
    recorded in ``accessor_sites``; ``params`` has every pointer
    parameter, whatever its address space."""
    return _summarize(_Scanner(fn, accessor=accessor))


_SUMMARY_ATTR = "_skelaccess_summary"


def cached_kernel_summary(program: ast.Program,
                          fn: ast.FunctionDef) -> KernelSummary:
    """:func:`summarize_kernel`, once per function definition: the memo
    lives on the AST node, which the build cache, the bound kernels and
    the on-disk program cache all share."""
    cached = getattr(fn, _SUMMARY_ATTR, None)
    if cached is None:
        cached = summarize_kernel(program, fn)
        setattr(fn, _SUMMARY_ATTR, cached)
    return cached


# -- enqueue-time evaluation -------------------------------------------------


@dataclass
class EvalEnv:
    uniforms: Dict[Sym, int]
    ranges: Dict[Sym, Tuple[int, int]]  # variant sym -> inclusive range


def make_eval_env(global_size: Sequence[int], local_size: Sequence[int],
                  scalars: Dict[str, int]) -> EvalEnv:
    """Concrete evaluation environment for one NDRange launch."""
    uniforms: Dict[Sym, int] = {}
    ranges: Dict[Sym, Tuple[int, int]] = {}
    for d in range(3):
        gsize = int(global_size[d]) if d < len(global_size) else 1
        lsize = int(local_size[d]) if d < len(local_size) else 1
        lsize = max(1, lsize)
        ngroups = max(1, gsize // lsize if lsize else 1)
        uniforms[("gsize", d)] = gsize
        uniforms[("lsize", d)] = lsize
        uniforms[("ngroups", d)] = ngroups
        ranges[("gid", d)] = (0, max(0, gsize - 1))
        ranges[("lid", d)] = (0, max(0, lsize - 1))
        ranges[("grp", d)] = (0, max(0, ngroups - 1))
    for name, value in scalars.items():
        uniforms[("param", name)] = int(value)
    return EvalEnv(uniforms, ranges)


class Unresolvable(Exception):
    """A footprint references a symbol the launch does not bind."""


@dataclass(frozen=True)
class ResolvedAccess:
    """A concrete byte range: ``start + k*stride .. +width`` per step.

    ``stride == 0`` means the range is dense (every byte in
    ``[start, stop)`` may be touched)."""

    start: int
    stop: int
    stride: int
    width: int
    mode: str


def _concrete(form: AffineForm, env: EvalEnv):
    """(const base, {variant sym: int coeff}) with uniforms folded."""
    try:
        base = form.base.evaluate(env.uniforms)
        coeffs: Dict[Sym, int] = {}
        for sym, coeff in form.terms.items():
            value = coeff.evaluate(env.uniforms)
            if value:
                coeffs[sym] = value
    except KeyError as exc:
        raise Unresolvable(f"unbound symbol {exc.args[0]!r}") from None
    return base, coeffs


def _sym_range(sym: Sym, ranges: Dict[Sym, Tuple[int, int]]) -> Tuple[int, int]:
    if sym in ranges:
        return ranges[sym]
    if sym[0] == "iv":
        return (0, IV_LIMIT)
    raise Unresolvable(f"no range for {sym}")


def narrow_ranges(guards: Sequence[Tuple[int, Dict[Sym, int]]],
                  ranges: Dict[Sym, Tuple[int, int]],
                  passes: int = 4) -> Optional[Dict[Sym, Tuple[int, int]]]:
    """Narrow variant-symbol ranges through affine guards ``base +
    sum(c*s) <= 0``; returns None when some guard is infeasible."""
    ranges = dict(ranges)
    for _ in range(passes):
        changed = False
        for base, coeffs in guards:
            if not coeffs:
                if base > 0:
                    return None
                continue
            for sym, c in coeffs.items():
                rest_lo = base
                for other, oc in coeffs.items():
                    if other is sym:
                        continue
                    lo, hi = _sym_range(other, ranges)
                    rest_lo += min(oc * lo, oc * hi)
                lo, hi = _sym_range(sym, ranges)
                if c > 0:
                    bound = (-rest_lo) // c  # floor(-rest_lo / c)
                    if bound < hi:
                        hi = bound
                        changed = True
                else:
                    bound = -(rest_lo // c)  # ceil(-rest_lo / c)
                    if bound > lo:
                        lo = bound
                        changed = True
                if lo > hi:
                    return None
                ranges[sym] = (lo, hi)
        if not changed:
            break
    return ranges


def bound_form(form: AffineForm, guards: Guards, env: EvalEnv,
               drop_unbound_guards: bool = False):
    """The values ``form`` takes under ``guards`` in ``env``: ``(lo, hi,
    coeffs, ranges)`` — inclusive bounds, the concrete coefficient of
    every variant symbol and the guard-narrowed symbol ranges — or None
    when the guards are infeasible (the site never executes).

    Raises :class:`Unresolvable` when ``form`` needs a symbol ``env``
    does not bind, and when a guard does unless ``drop_unbound_guards``
    (dropping a guard only widens the answer).
    """
    base, coeffs = _concrete(form, env)
    ranges = {s: _sym_range(s, env.ranges) for s in coeffs}
    guard_list = []
    for guard in guards:
        try:
            concrete = _concrete(guard, env)
            for s in concrete[1]:
                if s not in ranges:
                    ranges[s] = _sym_range(s, env.ranges)
        except Unresolvable:
            if not drop_unbound_guards:
                raise
            continue
        guard_list.append(concrete)
    narrowed = narrow_ranges(guard_list, ranges)
    if narrowed is None:
        return None
    lo = hi = base
    for sym, c in coeffs.items():
        rlo, rhi = narrowed[sym]
        lo += min(c * rlo, c * rhi)
        hi += max(c * rlo, c * rhi)
    # A guard of the shape `form + u <= 0` bounds the form exactly even
    # when the box over-approximates (grid-stride loops).
    for gbase, gcoeffs in guard_list:
        if gcoeffs == coeffs:
            hi = min(hi, base - gbase)  # form <= -(gbase - base)
        if all(gcoeffs.get(s) == -c for s, c in coeffs.items()) and \
                len(gcoeffs) == len(coeffs):
            lo = max(lo, gbase + base)
    if lo > hi:
        return None
    return lo, hi, coeffs, narrowed


def resolve_footprint(fp: Footprint, env: EvalEnv, elem_size: int,
                      buffer_nbytes: int) -> Optional[ResolvedAccess]:
    """Concrete byte range of one footprint under one launch.

    Returns None when the guards are infeasible (the access never
    executes); raises :class:`Unresolvable` when a scalar the footprint
    needs is not in the environment (callers fall back to whole-chunk).
    """
    bound = bound_form(fp.index, fp.guards, env)
    if bound is None:
        return None
    lo, hi, coeffs, narrowed = bound
    buffer_elems = buffer_nbytes // elem_size if elem_size else 0
    lo = max(lo, 0)
    hi = min(hi, max(0, buffer_elems - 1))
    if lo > hi:
        return None
    stride = 0
    active = [abs(c) for sym, c in coeffs.items()
              if narrowed[sym][0] != narrowed[sym][1]]
    if active:
        g = 0
        for c in active:
            g = math.gcd(g, c)
        if g >= 2:
            stride = g * elem_size
    start = lo * elem_size
    stop = (hi + 1) * elem_size
    width = elem_size if stride else 0
    return ResolvedAccess(start, stop, stride, width, fp.mode)
