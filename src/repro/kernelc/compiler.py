"""The one lowering of checked kernelc ASTs to Python.

:class:`_FunctionCompiler` is the only place that *decides* how an
OpenCL-C expression lowers — implicit conversions, the binary-operator
rule (compound assignment is that rule plus the assignment conversion),
array flattening, lvalues, address-of, pointer arithmetic, ``++``/``--``,
work-item queries, declarations.  It writes every decision against the
leaf *emitters* of a :class:`_Spelling`, which only say how one
operation is spelled in Python.  The spelling defined here is the
scalar one: plain ``int``/``float`` scalars, :class:`Pointer` and
:class:`VecValue`.  The lockstep generator (:mod:`.vectorize`)
subclasses both — its spelling calls the lane library, its generator
adds masked control flow, and it spells its statically uniform subtrees
with the scalar spelling — and re-decides nothing.

:func:`compile_program` runs the lowering once and keeps no Python: it
wants what the lowering records on the checked AST — each statement's
op charge after load CSE (:attr:`ast.Node.charge`) and the load-CSE
decisions (:attr:`ast.Expr.cse_source`) — which the lockstep generator
emits as they are, and which pickle with the AST into the program cache.

What the lowering writes (:meth:`_ProgramCompiler.lower`) is a per-item
module: each C function becomes a Python function taking ``(C, ctx,
[lmem,] *args)`` where ``C`` is the launch's
:class:`~repro.kernelc.execmodel.ExecutionCounters`, ``ctx`` the
:class:`WorkItemContext` and ``lmem`` (kernels only) the list of
group-shared ``__local`` allocations.  Kernels that call ``barrier()``
compile to Python *generators* that yield ``('barrier', flags)``.  No
launch runs it: the tests compile it into the per-item oracle the
lockstep engine is held against (``tests/kernelc/peritem.py``).

Semantics relative to the reference interpreter ("relaxed fast math"):

* float arithmetic is evaluated in double precision and rounded to the
  storage type only at memory stores and explicit casts/conversions
  (the interpreter rounds after every operation);
* signed integer arithmetic is evaluated at arbitrary precision and
  wrapped at stores and explicit casts (signed overflow is undefined
  behaviour in C, so no conforming kernel can observe the difference);
* unsigned arithmetic *is* wrapped at every operation, because kernels
  legitimately rely on unsigned wrap-around (e.g. ``0u - 1``).

Memory traffic counters are exact and identical to the interpreter's —
every load/store goes through the same :class:`Pointer` accounting.
Operation counts are statically accumulated per basic block.
"""

from __future__ import annotations

import marshal
from dataclasses import dataclass, field
from types import CodeType
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import ast
from .builtins import ResolvedBuiltin, apply_builtin
from .ctypes_ import (
    ArrayType,
    CType,
    PointerType,
    ScalarType,
    VectorType,
    convert_scalar,
)
from .execmodel import (
    binary_value,
    c_fdiv,
    c_idiv,
    c_imod,
    collect_local_decls,
    compare_value,
    constant_globals,
    convert_value,
    copy_value,
)
from .memory import (
    NULL_POINTER,
    KernelFault,
    allocate_array,
    flatten_initializer,
    same_pointer,
)
from .values import VecValue

# Static per-operator costs (in abstract device "ops").
_OP_COSTS = {"+": 1, "-": 1, "*": 1, "/": 4, "%": 4, "<<": 1, ">>": 1, "&": 1, "|": 1, "^": 1,
             "<": 1, ">": 1, "<=": 1, ">=": 1, "==": 1, "!=": 1, "&&": 1, "||": 1}

_CMP_OPS = ("<", ">", "<=", ">=", "==", "!=")


def _is_literal(expr: ast.Expr, *values) -> bool:
    return isinstance(expr, (ast.IntLiteral, ast.FloatLiteral)) and expr.value in values


def _literal_value(expr: ast.Expr):
    """The compile-time value of a literal node, or None."""
    if isinstance(expr, (ast.IntLiteral, ast.FloatLiteral, ast.CharLiteral)):
        return expr.value
    return None


_FOLDABLE_BINOPS = frozenset(["+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^", *_CMP_OPS])


def fold_constants(expr: ast.Expr, lookup=None):
    """Compile-time value of ``expr`` if it is a constant tree, else None.

    ``lookup`` optionally resolves identifiers to known constant values
    (const-declared locals with constant initializers).  Folding uses
    the same C semantics as runtime evaluation (truncating integer
    division, masked shifts, type-converted results), so it never
    changes observable behaviour.
    """
    value = _literal_value(expr)
    if value is not None:
        return convert_scalar(value, expr.ctype) if isinstance(expr.ctype, ScalarType) else value
    if isinstance(expr, ast.Identifier) and lookup is not None:
        return lookup(expr.name)
    if isinstance(expr, ast.UnaryOp) and expr.op in ("-", "+", "~", "!"):
        operand = fold_constants(expr.operand, lookup)
        if operand is None or not isinstance(expr.ctype, ScalarType):
            return None
        if expr.op == "-":
            return convert_scalar(-operand, expr.ctype)
        if expr.op == "+":
            return convert_scalar(operand, expr.ctype)
        if expr.op == "~":
            return convert_scalar(~int(operand), expr.ctype)
        return 0 if operand else 1
    if isinstance(expr, ast.BinaryOp) and expr.op in _FOLDABLE_BINOPS:
        op_type = getattr(expr, "op_type", None)
        if not isinstance(op_type, ScalarType):
            return None
        left = fold_constants(expr.left, lookup)
        right = fold_constants(expr.right, lookup)
        if left is None or right is None:
            return None
        try:
            if expr.op in _CMP_OPS:
                return compare_value(expr.op, left, right, op_type)
            return binary_value(expr.op, left, right, op_type)
        except Exception:
            return None  # e.g. division by zero: leave for runtime
    if isinstance(expr, ast.Cast) and isinstance(expr.target_type, ScalarType) \
            and not expr.target_type.is_void():
        operand = fold_constants(expr.operand, lookup)
        if operand is None:
            return None
        return convert_scalar(operand, expr.target_type)
    return None


def _folds_away(node: ast.BinaryOp) -> bool:
    """Multiplications by ±1 and additions of 0 cost nothing after the
    strength reduction any real GPU compiler performs."""
    if node.op == "*":
        return _is_literal(node.left, 1, -1, 1.0, -1.0) or _is_literal(node.right, 1, -1, 1.0, -1.0)
    if node.op in ("+", "-"):
        return _is_literal(node.right, 0, 0.0) or (node.op == "+" and _is_literal(node.left, 0, 0.0))
    return False


def node_cost(node: ast.Node, lookup=None) -> int:
    """Static operation cost of evaluating ``node`` (including children).

    Subtrees that fold to compile-time constants (optionally using
    ``lookup`` for const-propagated locals) cost nothing.
    """
    if isinstance(node, ast.Expr) and fold_constants(node, lookup) is not None:
        return 0
    total = 0
    if isinstance(node, ast.BinaryOp):
        if not _folds_away(node):
            width = node.op_type.width if isinstance(getattr(node, "op_type", None), VectorType) else 1
            total += _OP_COSTS.get(node.op, 1) * width
    elif isinstance(node, (ast.UnaryOp, ast.PostfixOp)):
        total += 1
    elif isinstance(node, ast.Assignment):
        total += 1
    elif isinstance(node, ast.Index):
        total += 1
    elif isinstance(node, ast.Cast):
        total += 1
    elif isinstance(node, ast.Conditional):
        total += 1
    elif isinstance(node, ast.VectorLiteral):
        total += 1
    elif isinstance(node, ast.Call):
        if getattr(node, "kind", "") == "builtin":
            width = (
                node.resolved.result_type.width
                if isinstance(node.resolved.result_type, VectorType) and node.resolved.kind == "plain"
                else 1
            )
            total += node.resolved.cost * width
        else:
            total += 2  # call overhead; the callee counts its own body
    for child in ast.children(node):
        total += node_cost(child, lookup)
    return total


@dataclass
class GeneratedModule:
    """One generated Python module, as a generator hands it over to be
    run and as the program cache keeps a lockstep plan: the code object
    (marshalled when pickled — the ``.pyc`` idiom), its text, and the
    constant pool ``_K`` it indexes."""

    code: CodeType
    source: str  # the generated Python (for debugging/inspection)
    constants: List[object]
    # Pool slots holding a builtin's bare ``impl``: a closure, which does
    # not pickle — the builtin does (by name and types), and stands in.
    impls: Dict[int, ResolvedBuiltin]

    def __getstate__(self):
        pool = list(self.constants)
        for index, resolved in self.impls.items():
            pool[index] = resolved
        return marshal.dumps(self.code), self.source, pool, tuple(self.impls)

    def __setstate__(self, state):
        code, self.source, self.constants, slots = state
        self.code = marshal.loads(code)
        self.impls = {index: self.constants[index] for index in slots}
        for index, resolved in self.impls.items():
            self.constants[index] = resolved.impl


@dataclass
class CompiledKernel:
    name: str
    uses_barrier: bool
    definition: ast.FunctionDef
    local_decls: List[ast.VarDecl]
    owner: "CompiledProgram" = field(repr=False)
    # Where the program cache keeps this kernel's lockstep plan (None:
    # nowhere — the program was not built through the cache).
    plan_path: Optional[str] = field(default=None, repr=False)

    @property
    def program(self) -> ast.Program:
        """The owning checked AST."""
        return self.owner.program


class CompiledProgram:
    """A lowered program: its checked AST, which carries what a launch
    charges (:attr:`ast.Node.charge`, load CSE), and its kernels."""

    def __init__(self, program: ast.Program):
        self.program = program
        self.kernels: Dict[str, CompiledKernel] = {
            function.name: CompiledKernel(
                name=function.name,
                uses_barrier=bool(getattr(function, "uses_barrier", False)),
                definition=function,
                local_decls=collect_local_decls(function),
                owner=self,
            )
            for function in program.functions if function.is_kernel}

    def kernel(self, name: str) -> CompiledKernel:
        try:
            return self.kernels[name]
        except KeyError:
            raise KeyError(f"no kernel named {name!r}; available: {sorted(self.kernels)}") from None


def _is_unsigned(ctype) -> bool:
    return isinstance(ctype, ScalarType) and ctype.is_integer() \
        and not ctype.signed and not ctype.is_bool()


class _Spelling:
    """The leaf emitters of the lowering, spelled for one work-item at a
    time: every method returns Python text over plain scalars,
    :class:`Pointer` and :class:`VecValue` and takes no decision about C
    semantics (``assign`` and ``discard`` also emit)."""

    null = "_NULLPTR"
    void = "None"
    # A vector local holds its VecValue by reference: ``_vset`` on a temp
    # holding it changes the local, and nothing is written back.
    vectors_by_reference = True

    def __init__(self, generator: "_FunctionCompiler"):
        self.g = generator

    def atom(self, code: str) -> str:
        """``code`` as the object of a method call or a negation."""
        return f"({code})"

    def load(self, pointer: str, index: str, ctype: CType) -> str:
        """The element ``index`` of ``pointer``, a value of type ``ctype``."""
        return f"{pointer}.load({index})"

    def store(self, pointer: str, index: str, value: str) -> str:
        return f"{pointer}.store({index}, {value})"

    def arith(self, op: str, left: str, right: str, op_type: ScalarType) -> str:
        return f"(({left}) {op} ({right}))"

    compare = arith  # a truth value; ``truth_value`` makes it a C int

    def truth_value(self, code: str) -> str:
        return code

    def vector_copy(self, code: str) -> str:
        """The vector ``code`` as a value of its own (C value semantics)."""
        return f"_copyv({code})"

    def vector_unary(self, op: str, code: str, ctype: VectorType) -> str:
        return f"_unaryv({self.g.pc.constant(ctype)}, {op!r}, {code})"

    def vector_binary(self, op: str, left: str, right: str, left_type: CType, right_type: CType,
                      op_type: VectorType) -> str:
        """``left op right`` computed in the vector type ``op_type`` (one
        operand may be a scalar, of type ``left_type``/``right_type``)."""
        element = op_type.element
        return f"{'_cmpv' if op in _CMP_OPS else '_binv'}({op!r}, " \
            f"{self.operand(left, left_type, element)}, " \
            f"{self.operand(right, right_type, element)}, {self.g.pc.constant(op_type)})"

    def vector_convert(self, code: str, source: CType, target: VectorType) -> str:
        """``code`` (a scalar, broadcast, or a vector) converted to ``target``."""
        return f"_cvv({self.operand(code, source, target.element)}, " \
            f"{self.g.pc.constant(target)})"

    def vector_literal(self, target: VectorType, parts: List[Tuple[str, CType]]) -> str:
        """``(target)(parts...)``: vector parts spliced, one scalar broadcast."""
        codes = ", ".join(self.operand(code, ctype, target.element) for code, ctype in parts)
        return f"_vecnew({self.g.pc.constant(target)}, ({codes},))"

    def vector_set(self, vector: str, indices: Tuple[int, ...], value: str, ctype: CType) -> str:
        """``vector`` with its components ``indices`` set to ``value`` (of
        type ``ctype``: the element type, or a vector of it)."""
        element = self.g.pc.constant(ctype.element if isinstance(ctype, VectorType) else ctype)
        return f"_vset({vector}, ({', '.join(map(str, indices))},), {value}, {element})"

    def swizzle(self, code: str, indices: Sequence[int]) -> str:
        """Components ``indices`` of the vector ``code``, as a vector."""
        return f"_vswiz({code}, ({', '.join(str(i) for i in indices)},))"

    def operand(self, code: str, source: CType, element: ScalarType) -> str:
        """``code`` (of type ``source``) as an operand of an operation in
        ``element`` (a vector operation's element type, or a float
        operation's type)."""
        return code

    def double(self, code: str) -> str:
        """The integer ``code`` converted to a double."""
        return f"float({code})"

    def unary(self, op: str, code: str) -> str:
        return f"({op}{self.atom(code)})"

    def component(self, code: str, index: int, ctype: ScalarType) -> str:
        """Component ``index`` (of type ``ctype``) of the vector ``code`` (an atom)."""
        return f"{code}.components[{index}]"

    def divide(self, op: str, left: str, right: str, op_type: ScalarType) -> str:
        if op == "%":
            return f"_imod({left}, {right})"
        return f"_fdiv({left}, {right})" if op_type.is_float() else f"_idiv({left}, {right})"

    def shift(self, op: str, left: str, right: str, op_type: ScalarType) -> str:
        return f"(({left}) {op} (({right}) % {op_type.bits}))"

    def mask(self, code: str, ctype: ScalarType) -> str:
        return f"(({code}) & {(1 << ctype.bits) - 1})"

    def sign_wrap(self, code: str, bits: int) -> str:
        return f"_sw{bits}({code})"

    def to_bool(self, code: str) -> str:
        return f"(1 if ({code}) else 0)"

    def logical_not(self, code: str) -> str:
        return f"(0 if ({code}) else 1)"

    def int_to_float(self, code: str, source: ScalarType) -> str:
        return f"float({code})"

    def float_to_int(self, code: str) -> str:
        return f"int({code})"

    def cast(self, code: str, target: ScalarType, source: CType) -> str:
        return f"_cvt({code}, {self.g.pc.constant(target)})"

    def step(self, code: str, delta: int, ctype: ScalarType) -> str:
        return f"{code} + ({delta})"

    def scale_index(self, code: str, stride: int) -> str:
        return f"({code}) * {stride}"

    def add_index(self, left: str, right: str) -> str:
        return f"{left} + {right}"

    def pointer_equal(self, left: str, right: str, negated: bool) -> str:
        return f"int({'not ' if negated else ''}_ptr_eq({left}, {right}))"

    def pointer_diff(self, left: str, right: str) -> str:
        """``left - right`` of two pointers (``left`` an atom)."""
        return f"{left}.diff({right})"

    def pointer_compare(self, op: str, left: str, right: str) -> str:
        return f"int(({left}).offset {op} ({right}).offset)"

    def retype(self, pointer: str, pointee: str) -> str:
        """The pointer ``pointer`` (an atom) cast to point at the type in
        pool slot ``pointee``."""
        return f"{pointer}.retyped({pointee})"

    def workitem(self, name: str, dim: str) -> str:
        return f"ctx.{name}({dim})"

    def private_array(self, ctype: ArrayType, values: Optional[tuple]) -> str:
        pool = self.g.pc.constant
        return f"_mk_array({pool(ctype)}, {pool(values) if values is not None else None})"

    def call(self, symbol: str, args: List[str]) -> str:
        return f"{symbol}({', '.join(['C', 'ctx'] + args)})"

    def builtin(self, resolved: ResolvedBuiltin, args: List[str]) -> str:
        pool = self.g.pc.constant
        if resolved.kind == "whole" or isinstance(resolved.result_type, VectorType) \
                or any(isinstance(t, VectorType) for t in resolved.param_types):
            return f"_applyb({pool(resolved)}, ({', '.join(args)},))"
        code = f"{pool(resolved.impl, resolved)}({', '.join(args)})"
        return code if resolved.name == "abs" else self.g._mask_unsigned(code, resolved.result_type)

    def assign(self, name: str, code: str, value_needed: bool = True,
               declared: Optional[CType] = None) -> str:
        """Assign the local ``name`` (``declared``: the type of the variable
        this declares); returns the expression of its new value."""
        self.g.emit(f"{name} = {code}")
        self.g.invalidate_name(name)
        return name

    def discard(self, code: str) -> str:
        """Evaluate ``code`` for its side effects only."""
        return f"({code}, None)[1]" if _has_side_effect_code(code) else self.void


class _FunctionCompiler:
    """Lowers one checked C function; see the module docstring."""

    def __init__(self, program_compiler: "_ProgramCompiler", function: Optional[ast.FunctionDef]):
        self.pc = program_compiler
        self.function = function
        self.e = _Spelling(self)
        self.lines: List[str] = []
        self.indent = 1
        self.temp_counter = 0
        self.scope_stack: List[Dict[str, str]] = [{}]
        self.used_names: set = set()
        # Context stack entries: ('loop', continue_prelude_lines) or
        # ('switch', continue_flag_name).
        self.contexts: List[Tuple[str, object]] = []
        # Common-subexpression elimination for memory loads within a
        # basic block: maps a load's source fingerprint to the Python
        # temp holding its value.  ``_cse_savings`` accumulates the op
        # cost of elided evaluations so charges can be corrected.
        self._load_cache: Dict[str, str] = {}
        # Which Index node first produced each cached temp.
        self._load_origins: Dict[str, ast.Index] = {}
        self._cse_savings = 0
        # Const-propagation: mangled name -> compile-time value for
        # const-declared scalars with constant initializers.
        self._const_values: Dict[str, object] = {}
        # The locals holding a pointer to a ``__local`` scalar's storage.
        self.local_scalars: set = set()

    def _const_lookup(self, c_name: str):
        python_name = self.lookup_name(c_name)
        if python_name is None:
            return None
        return self._const_values.get(python_name)

    def fold(self, expr: ast.Expr):
        return fold_constants(expr, self._const_lookup)

    def cost(self, node: ast.Node) -> int:
        return node_cost(node, self._const_lookup)

    # -- emit helpers -----------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def emit_lines(self, lines: Sequence[str]) -> None:
        for line in lines:
            self.emit(line)

    def fresh(self, hint: str = "t") -> str:
        self.temp_counter += 1
        return f"_{hint}{self.temp_counter}"

    def temp(self, hint: str, code: str) -> str:
        """Hold ``code`` in a fresh local."""
        name = self.fresh(hint)
        self.emit(f"{name} = {code}")
        return name

    def effect(self, code: str) -> None:
        """Evaluate ``code`` as a statement if it can do anything."""
        if _has_side_effect_code(code):
            self.emit(code)

    def charge(self, cost: int) -> None:
        if cost > 0:
            self.emit(f"C.ops += {cost}")

    # -- deferred charging (CSE-aware) -------------------------------------

    def begin_charge(self, node) -> Tuple[int, int, int, ast.Node]:
        """Emit a charge placeholder; finalized after the statement's
        expressions compile (CSE may have elided some of the cost)."""
        index = len(self.lines)
        self.emit("C.ops += 0")
        return (index, self.cost(node), self._cse_savings, node)

    def end_charge(self, token: Tuple[int, int, int, ast.Node], extra: int = 0) -> None:
        index, cost, savings_before, node = token
        final = max(0, cost + extra - (self._cse_savings - savings_before))
        self.on_charge(node, final)
        if final > 0:
            self.lines[index] = self.lines[index].replace("C.ops += 0", f"C.ops += {final}")
        else:
            self.lines[index] = ""  # zero-cost statement: drop the charge

    @staticmethod
    def on_charge(node: ast.Node, final: int) -> None:
        """The statement charged through ``node`` costs ``final`` ops:
        recorded on the node (:attr:`ast.Node.charge`)."""
        if final:
            node.charge = final

    # -- load-CSE bookkeeping ------------------------------------------------

    def reuse_load(self, expr: ast.Index, load: str, pure: bool) -> str:
        """The value of the load ``expr`` spelled ``load``: repeated
        identical loads within a basic block reuse the first one's temp
        (only when base and index were side-effect free), which is
        recorded on both nodes (:attr:`ast.Expr.cse_source`)."""
        if not pure:
            return load
        cached = self._load_cache.get(load)
        if cached is not None:
            self._cse_savings += node_cost(expr)
            source = expr.cse_source = self._load_origins[cached]
            source.cse_origin = True
            return cached
        cached = self._load_cache[load] = self.temp("ld", load)
        self._load_origins[cached] = expr
        return cached

    def invalidate_loads(self) -> None:
        self._load_cache.clear()

    def invalidate_name(self, python_name: str) -> None:
        """Drop cached loads whose source mentions ``python_name``."""
        stale = [key for key in self._load_cache if python_name in key]
        for key in stale:
            del self._load_cache[key]

    def snapshot_loads(self) -> Dict[str, str]:
        return dict(self._load_cache)

    def restore_loads(self, snapshot: Dict[str, str]) -> None:
        self._load_cache = snapshot

    # -- name management ---------------------------------------------------

    def declare_name(self, c_name: str) -> str:
        base = f"v_{c_name}"
        name = base
        suffix = 1
        while name in self.used_names:
            suffix += 1
            name = f"{base}__{suffix}"
        self.used_names.add(name)
        self.scope_stack[-1][c_name] = name
        return name

    def lookup_name(self, c_name: str) -> Optional[str]:
        for scope in reversed(self.scope_stack):
            if c_name in scope:
                return scope[c_name]
        return None

    # -- function body -------------------------------------------------------

    def compile(self) -> str:
        fn = self.function
        params = []
        for param in fn.params:
            params.append(self.declare_name(param.name))
        lmem = ", lmem" if fn.is_kernel else ""
        signature = f"def {self.pc.function_symbol(fn.name)}(C, ctx{lmem}, {', '.join(params)}):" if params \
            else f"def {self.pc.function_symbol(fn.name)}(C, ctx{lmem}):"
        self.lines.append("    " * 0 + signature)
        # Copy vector parameters (C value semantics).
        for param, name in zip(fn.params, params):
            if isinstance(param.declared_type, VectorType):
                self.emit(f"{name} = _copyv({name})")
        body_start = len(self.lines)
        self.compile_stmt_list(fn.body.statements)
        if len(self.lines) == body_start:
            self.emit("pass")
        if not fn.return_type.is_void() and not fn.is_kernel:
            self.emit("raise _KernelFault("
                      f"'function {fn.name} finished without returning a value')")
        return "\n".join(self.lines)

    # -- statements ------------------------------------------------------------

    def compile_stmt_list(self, statements: Sequence[ast.Stmt]) -> None:
        for stmt in statements:
            self.compile_stmt(stmt)

    def compile_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.CompoundStmt):
            self.scope_stack.append({})
            self.compile_stmt_list(stmt.statements)
            self.scope_stack.pop()
        elif isinstance(stmt, ast.DeclStmt):
            for decl in stmt.decls:
                self.compile_decl(decl)
        elif isinstance(stmt, ast.ExprStmt):
            self.compile_expr_stmt(stmt)
        elif isinstance(stmt, ast.IfStmt):
            self.compile_if(stmt)
        elif isinstance(stmt, ast.WhileStmt):
            self.compile_while(stmt)
        elif isinstance(stmt, ast.ForStmt):
            self.compile_for(stmt)
        elif isinstance(stmt, ast.DoStmt):
            self.compile_do(stmt)
        elif isinstance(stmt, ast.ReturnStmt):
            self.compile_return(stmt)
        elif isinstance(stmt, ast.BreakStmt):
            self.compile_break()
        elif isinstance(stmt, ast.ContinueStmt):
            self.compile_continue()
        elif isinstance(stmt, ast.SwitchStmt):
            self.compile_switch(stmt)
        else:  # pragma: no cover
            raise AssertionError(f"unhandled statement {type(stmt).__name__}")

    def compile_decl(self, decl: ast.VarDecl) -> None:
        ctype = decl.declared_type
        if decl.address_space == "local":
            name = self.declare_name(decl.name)
            storage = f"lmem[{self.pc.local_index(self.function, decl)}]"
            if not isinstance(ctype, ArrayType):
                # The work-group shares a __local scalar: it is an array of
                # one, and every use loads or stores its element.
                storage += ".pointer"
                self.local_scalars.add(name)
            self.emit(f"{name} = {storage}")
            return
        if isinstance(ctype, ArrayType):
            name = self.declare_name(decl.name)
            values = tuple(flatten_initializer(decl.init)) if decl.init is not None else None
            self.emit(f"{name} = {self.e.private_array(ctype, values)}")
            return
        if decl.init is not None:
            token = self.begin_charge(decl.init)
            code = self.compile_expr(decl.init)
            self.end_charge(token)
            code = self.convert_code(code, decl.init.ctype, ctype)
            if isinstance(ctype, VectorType):
                code = self.e.vector_copy(code)
        else:
            code = self.default_value_code(ctype)
        name = self.declare_name(decl.name)
        self.e.assign(name, code, value_needed=False, declared=ctype)
        if decl.is_const and decl.init is not None and isinstance(ctype, ScalarType):
            folded = self.fold(decl.init)
            if folded is not None:
                self._const_values[name] = convert_scalar(folded, ctype)

    def default_value_code(self, ctype: CType) -> str:
        if isinstance(ctype, VectorType):
            return f"_zerovec({self.pc.constant(ctype)})"
        if isinstance(ctype, PointerType):
            return self.e.null
        assert isinstance(ctype, ScalarType)
        return "0.0" if ctype.is_float() else "0"

    def compile_expr_stmt(self, stmt: ast.ExprStmt) -> None:
        expr = stmt.expr
        if expr is None:
            return
        if isinstance(expr, ast.Call) and getattr(expr, "kind", "") == "builtin" \
                and expr.resolved.kind == "barrier":
            flags = self.compile_expr(expr.args[0])
            self.emit("C.barriers += 1")
            self.emit(f"yield ('barrier', {flags})")
            self.invalidate_loads()
            return
        self._compile_charged_effect(expr)

    def _compile_charged_effect(self, expr: ast.Expr) -> None:
        """Charge and evaluate ``expr`` for its side effects."""
        token = self.begin_charge(expr)
        code = self.compile_expr(expr)
        self.end_charge(token)
        self.effect(code)

    def _compile_condition(self, condition: ast.Expr) -> str:
        token = self.begin_charge(condition)
        code = self.compile_expr(condition)
        self.end_charge(token, extra=1)
        return code

    def _compile_scope(self, stmt: ast.Stmt) -> None:
        self.scope_stack.append({})
        self.compile_stmt(stmt)
        self.scope_stack.pop()

    def _compile_block(self, header: str, stmt: ast.Stmt) -> None:
        self.emit(header)
        self.indent += 1
        before = len(self.lines)
        self._compile_scope(stmt)
        if len(self.lines) == before:
            self.emit("pass")
        self.indent -= 1

    def compile_if(self, stmt: ast.IfStmt) -> None:
        condition = self._compile_condition(stmt.condition)
        snapshot = self.snapshot_loads()
        self._compile_block(f"if {condition}:", stmt.then_branch)
        self.restore_loads(dict(snapshot))
        if stmt.else_branch is not None:
            self._compile_block("else:", stmt.else_branch)
        # Branches may have stored to memory: keep only loads that were
        # already valid before and not invalidated by either branch.
        self.invalidate_loads()

    def _compile_loop_condition_break(self, condition: Optional[ast.Expr]) -> None:
        if condition is not None:
            self.emit(f"if not ({self._compile_condition(condition)}): break")

    def compile_while(self, stmt: ast.WhileStmt) -> None:
        self.invalidate_loads()
        self.emit("while True:")
        self.indent += 1
        self._compile_loop_condition_break(stmt.condition)
        self.contexts.append(("loop", []))
        self._compile_scope(stmt.body)
        self.contexts.pop()
        self.indent -= 1
        self.invalidate_loads()

    def compile_for(self, stmt: ast.ForStmt) -> None:
        self.scope_stack.append({})
        if stmt.init is not None:
            self.compile_stmt(stmt.init)
        self.invalidate_loads()
        increment_lines: List[str] = []
        if stmt.increment is not None:
            increment_lines, _ = self._capture_lines(
                lambda: self._compile_charged_effect(stmt.increment))
        self.emit("while True:")
        self.indent += 1
        self._compile_loop_condition_break(stmt.condition)
        self.contexts.append(("loop", increment_lines))
        inner = len(self.lines)
        self._compile_scope(stmt.body)
        self.contexts.pop()
        if len(self.lines) == inner and not increment_lines and stmt.condition is None:
            self.emit("pass")
        self.emit_lines(increment_lines)
        self.indent -= 1
        self.scope_stack.pop()
        self.invalidate_loads()

    def _capture_lines(self, action: Callable[[], object]) -> Tuple[List[str], object]:
        """Run ``action`` capturing the lines it emits (dedented) instead
        of appending them to the body, with the loads it caches dropped
        again (they run conditionally); returns them with its result."""
        saved_lines, saved_indent = self.lines, self.indent
        snapshot = self.snapshot_loads()
        self.lines, self.indent = [], 0
        result = action()
        captured, self.lines, self.indent = self.lines, saved_lines, saved_indent
        self.restore_loads(snapshot)
        return captured, result

    def compile_do(self, stmt: ast.DoStmt) -> None:
        self.invalidate_loads()
        has_continue = _contains_loop_continue(stmt.body)
        self.emit("while True:")
        self.indent += 1
        if not has_continue:
            self.contexts.append(("loop", []))
            self._compile_scope(stmt.body)
            self.contexts.pop()
        else:
            # continue must fall through to the condition: run the body in
            # a single-pass inner loop where continue becomes break.
            break_flag = self.fresh("brk")
            self.emit(f"{break_flag} = False")
            self.emit("for _once in (0,):")
            self.indent += 1
            self.contexts.append(("do_wrap", break_flag))
            self._compile_scope(stmt.body)
            self.contexts.pop()
            self.indent -= 1
            self.emit(f"if {break_flag}: break")
        self.invalidate_loads()
        self._compile_loop_condition_break(stmt.condition)
        self.indent -= 1
        self.invalidate_loads()

    def compile_switch(self, stmt: ast.SwitchStmt) -> None:
        self.invalidate_loads()
        cost = node_cost(stmt.subject) + len(stmt.cases)
        self.on_charge(stmt, cost)
        self.charge(cost)
        subject_name = self.temp("sw", self.compile_expr(stmt.subject))
        start_name = self.fresh("st")
        default_index = len(stmt.cases)
        conditions: List[str] = []
        for index, case in enumerate(stmt.cases):
            if case.value is None:
                default_index = index
                continue
            conditions.append((index, self.compile_expr(case.value)))
        first = True
        for index, code in conditions:
            keyword = "if" if first else "elif"
            self.emit(f"{keyword} {subject_name} == ({code}): {start_name} = {index}")
            first = False
        if first:
            self.emit(f"{start_name} = {default_index}")
        else:
            self.emit(f"else: {start_name} = {default_index}")
        in_loop = any(kind in ("loop", "do_wrap") for kind, _payload in self.contexts)
        continue_flag = self.fresh("cnt")
        if in_loop:
            self.emit(f"{continue_flag} = False")
        self.emit("for _once in (0,):")
        self.indent += 1
        self.contexts.append(("switch", continue_flag))
        emitted_any = False
        for index, case in enumerate(stmt.cases):
            self.invalidate_loads()
            self.emit(f"if {start_name} <= {index}:")
            self.indent += 1
            before = len(self.lines)
            self.scope_stack.append({})
            self.compile_stmt_list(case.body)
            self.scope_stack.pop()
            if len(self.lines) == before:
                self.emit("pass")
            self.indent -= 1
            emitted_any = True
        if not emitted_any:
            self.emit("pass")
        self.contexts.pop()
        self.indent -= 1
        self.invalidate_loads()
        if in_loop:
            # Propagate a C 'continue' that crossed the switch wrapper.
            self.emit(f"if {continue_flag}:")
            self.indent += 1
            self.compile_continue()
            self.indent -= 1

    def compile_return(self, stmt: ast.ReturnStmt) -> None:
        if self.function.is_kernel or stmt.value is None:
            self.emit("return")
            return
        token = self.begin_charge(stmt.value)
        code = self.compile_expr(stmt.value)
        self.end_charge(token)
        self.emit(f"return {self.convert_code(code, stmt.value.ctype, self.function.return_type)}")

    def compile_break(self) -> None:
        for kind, payload in reversed(self.contexts):
            if kind in ("loop", "switch"):
                self.emit("break")
                return
            if kind == "do_wrap":
                self.emit(f"{payload} = True")
                self.emit("break")
                return
        raise AssertionError("break outside loop/switch (typecheck should reject)")

    def compile_continue(self) -> None:
        for kind, payload in reversed(self.contexts):
            if kind == "loop":
                for line in payload:
                    self.emit(line)
                self.emit("continue")
                return
            if kind == "switch":
                self.emit(f"{payload} = True")
                self.emit("break")
                return
            if kind == "do_wrap":
                self.emit("break")  # falls through to the do-while condition
                return
        raise AssertionError("continue outside loop (typecheck should reject)")

    # -- expressions ----------------------------------------------------------

    def compile_expr(self, expr: ast.Expr) -> str:
        """Emit what evaluating ``expr`` needs first and return the
        Python expression of its value."""
        # Constant folding: emit whole constant subtrees as literals
        # (identifiers resolve through the const-propagation table).
        if not isinstance(expr, (ast.IntLiteral, ast.FloatLiteral, ast.CharLiteral)):
            folded = self.fold(expr)
            if folded is not None:
                return repr(folded)
        return getattr(self, f"_expr_{type(expr).__name__}")(expr)

    def compile_converted(self, expr: ast.Expr, target: CType) -> str:
        """``expr`` as a value of type ``target`` (arrays decay)."""
        return self._converted(self.compile_expr(expr), expr, target)

    def _converted(self, code: str, expr: ast.Expr, target: CType) -> str:
        return self.convert_code(self._decay_code(code, expr.ctype), expr.ctype, target)

    def _expr_IntLiteral(self, expr: ast.IntLiteral) -> str:
        return repr(convert_scalar(expr.value, expr.ctype))

    def _expr_FloatLiteral(self, expr: ast.FloatLiteral) -> str:
        return repr(float(expr.value))

    _expr_CharLiteral = _expr_IntLiteral

    def _expr_Identifier(self, expr: ast.Identifier) -> str:
        constant = getattr(expr, "constant_value", None)
        if constant is not None:
            return repr(constant)
        # A local, else file-scope __constant data.
        name = self.lookup_name(expr.name)
        if name in self.local_scalars:
            return self.e.load(name, "0", expr.ctype)
        return name or self.pc.global_symbol(expr.name)

    def _expr_UnaryOp(self, expr: ast.UnaryOp) -> str:
        op = expr.op
        if op in ("++", "--"):
            return self._compile_incdec(expr.operand, op, prefix=True)
        if op == "&":
            return self._expr_address_of(expr)
        operand = self.compile_expr(expr.operand)
        if op == "*":
            return self.e.load(self.e.atom(operand), "0", expr.ctype)
        if isinstance(expr.ctype, VectorType):
            return self.e.vector_unary(op, operand, expr.ctype)
        if op == "!":
            return self.e.logical_not(operand)
        return self._mask_unsigned(self.e.unary(op, operand), expr.ctype)

    def _expr_address_of(self, expr: ast.UnaryOp) -> str:
        inner, atom = expr.operand, self.e.atom
        if isinstance(inner, ast.Index):
            if isinstance(inner.base.ctype, ArrayType):
                flattened = self._flatten_array_access(inner)
                if flattened is not None:
                    return f"{atom(flattened[0])}.pointer.add({flattened[1]})"
                base = self.compile_expr(inner.base)
                return f"{atom(base)}.index({self.compile_expr(inner.index)}).decayed()"
            base = self.compile_expr(inner.base)
            return f"{atom(base)}.add({self.compile_expr(inner.index)})"
        if isinstance(inner, ast.UnaryOp) and inner.op == "*":
            return self.compile_expr(inner.operand)
        if isinstance(inner, ast.Identifier) and isinstance(inner.ctype, ArrayType):
            return self._decay_code(self.compile_expr(inner), inner.ctype)
        raise _unsupported(expr, "taking the address of a plain variable is not supported")

    def _mask_unsigned(self, code: str, ctype: CType) -> str:
        return self.e.mask(code, ctype) if _is_unsigned(ctype) else code

    def _compile_incdec(self, target: ast.Expr, op: str, prefix: bool) -> str:
        delta = 1 if op == "++" else -1
        ctype = target.ctype

        def stepped(code: str) -> str:
            if isinstance(ctype, PointerType):
                return f"{code}.add({delta})"
            return self._mask_unsigned(self.e.step(code, delta, ctype), ctype)

        lvalue = self._compile_lvalue(target)
        if lvalue.kind == "var":
            name = lvalue.target
            if prefix:
                return self.e.assign(name, stepped(name))
            old = self.temp("t", name)
            self.e.assign(name, stepped(name), value_needed=False)
            return old
        # Through memory: load-modify-store.
        current = self.temp("cur", self._load(lvalue))
        new = stepped(current)
        if prefix:
            new = self.temp("t", new)
        self._store(lvalue, new)
        self.invalidate_loads()
        return new if prefix else current

    def _expr_PostfixOp(self, expr: ast.PostfixOp) -> str:
        return self._compile_incdec(expr.operand, expr.op, prefix=False)

    def _expr_BinaryOp(self, expr: ast.BinaryOp) -> str:
        if expr.op in ("&&", "||"):
            return self._compile_logical(expr)
        left = self.compile_expr(expr.left)
        right = self.compile_expr(expr.right)
        return self._binary(expr.op, left, right, expr.left, expr.right, expr.op_type)

    def _binary(self, op: str, lcode: str, rcode: str, left: ast.Expr, right: ast.Expr,
                op_type: CType) -> str:
        """The C binary-operator rule on two compiled operands (``left``
        and ``right`` are the operand nodes, for their types and
        literal values)."""
        if _is_pointer(left) or _is_pointer(right):
            return self._pointer_binary(op, lcode, rcode, left, right)
        if isinstance(op_type, VectorType):
            return self.e.vector_binary(op, lcode, rcode, left.ctype, right.ctype, op_type)
        assert isinstance(op_type, ScalarType)
        e = self.e
        lcode, rcode = self._operands(op, lcode, rcode, left, right, op_type)
        if op in _CMP_OPS:
            return e.truth_value(self._compare(op, lcode, rcode, op_type))

        def coerce(code: str) -> str:  # a no-op unless op_type is unsigned
            return self._mask_unsigned(code, op_type)

        # Order-sensitive operations (division, remainder, right shift,
        # comparisons) need operands coerced to the unsigned domain when
        # the computation type is unsigned — C's "usual arithmetic
        # conversions" make (-1 < 1u) false.  Ring operations (+ - * etc.)
        # only need the result masked.
        if op in ("/", "%"):
            return e.divide(op, coerce(lcode), coerce(rcode), op_type)
        if op in ("<<", ">>"):
            # OpenCL masks the shift count by the width of the promoted type.
            return coerce(e.shift(op, coerce(lcode) if op == ">>" else lcode, rcode, op_type))
        # Strength reduction: fold multiplications by +-1 and additions
        # of 0 (matching node_cost, which charges nothing for them; it
        # changes float signed-zero results: -0.0 + 0 stays -0.0).
        if op == "*":
            for kept, other in ((lcode, right), (rcode, left)):
                if _is_literal(other, 1, 1.0):
                    return kept
                if _is_literal(other, -1, -1.0):
                    return coerce(e.unary("-", kept))
        elif op in ("+", "-") and _is_literal(right, 0, 0.0):
            return lcode
        elif op == "+" and _is_literal(left, 0, 0.0):
            return rcode
        return coerce(e.arith(op, lcode, rcode, op_type))

    def _operands(self, op: str, lcode: str, rcode: str, left: ast.Expr, right: ast.Expr,
                  op_type: ScalarType) -> Tuple[str, str]:
        """The compiled operands of ``op`` in ``op_type``: an integer
        operand of a float operation is taken at its value, and compared
        as the double C converts it to (Python compares an int with a
        float exactly, which only a 64-bit integer can tell)."""
        if not op_type.is_float():
            return lcode, rcode
        operands = [self.e.operand(code, node.ctype, op_type)
                    for code, node in ((lcode, left), (rcode, right))]
        if op in _CMP_OPS:
            operands = [self.e.double(code) if isinstance(node.ctype, ScalarType)
                        and node.ctype.is_integer() and node.ctype.size == 8 else code
                        for code, node in zip(operands, (left, right))]
        return operands[0], operands[1]

    def _compare(self, op: str, lcode: str, rcode: str, op_type: ScalarType) -> str:
        """A scalar comparison as a truth value."""
        return self.e.compare(op, self._mask_unsigned(lcode, op_type),
                              self._mask_unsigned(rcode, op_type), op_type)

    def _compile_logical(self, expr: ast.BinaryOp) -> str:
        left = self.compile_expr(expr.left)
        # The right side evaluates conditionally: loads cached inside it
        # must not escape into unconditional contexts.
        right_lines, right = self._capture_lines(lambda: self.compile_expr(expr.right))
        if not right_lines:
            joiner = "and" if expr.op == "&&" else "or"
            return f"(1 if (({left}) {joiner} ({right})) else 0)"
        # The right side needs statements: lower with explicit control flow
        # to preserve short-circuit evaluation.
        result = self.fresh("lg")
        if expr.op == "&&":
            self.emit(f"{result} = 0")
            self.emit(f"if ({left}):")
        else:
            self.emit(f"{result} = 1")
            self.emit(f"if not ({left}):")
        self.indent += 1
        self.emit_lines(right_lines)
        self.emit(f"{result} = 1 if ({right}) else 0")
        self.indent -= 1
        return result

    def _pointer_binary(self, op: str, lcode: str, rcode: str, left: ast.Expr,
                        right: ast.Expr) -> str:
        e = self.e
        lcode = self._decay_code(lcode, left.ctype)
        rcode = self._decay_code(rcode, right.ctype)
        if op == "+":
            pointer, offset = (lcode, rcode) if _is_pointer(left) else (rcode, lcode)
            return f"{e.atom(pointer)}.add({offset})"
        if op == "-":
            if _is_pointer(right):
                return e.pointer_diff(e.atom(lcode), rcode)
            return f"{e.atom(lcode)}.add(-{e.atom(rcode)})"
        if op in ("==", "!="):
            return e.pointer_equal(lcode, rcode, negated=op == "!=")
        return e.pointer_compare(op, lcode, rcode)

    def _decay_code(self, code: str, ctype: Optional[CType]) -> str:
        return f"{self.e.atom(code)}.decayed()" if isinstance(ctype, ArrayType) else code

    def _expr_Assignment(self, expr: ast.Assignment) -> str:
        target_type = expr.target.ctype
        # The lvalue runs before the value.  A load shared between both
        # sides must pick its CSE source from whichever side executes
        # first, or the cached temp would be referenced before its
        # defining line.
        lvalue = self._compile_lvalue(expr.target)
        variable = lvalue.kind == "var"
        if expr.op == "=":
            value = self.compile_converted(expr.value, target_type)
            if variable and isinstance(target_type, VectorType):
                value = self.e.vector_copy(value)
        else:
            # ``a op= b`` is ``a = a op b`` with the lvalue resolved once:
            # the binary rule, then the assignment conversion.
            operand = self.compile_expr(expr.value)
            current = lvalue.target if variable else self.temp("cur", self._load(lvalue))
            value = self.convert_code(
                self._binary(expr.op[:-1], current, operand, expr.target, expr.value, expr.op_type),
                expr.op_type, target_type)
        if variable:
            return self.e.assign(lvalue.target, value)
        stored = self.temp("val", value)
        self._store(lvalue, stored)
        self.invalidate_loads()  # stored through memory
        return stored

    def _expr_Conditional(self, expr: ast.Conditional) -> str:
        condition = self.compile_expr(expr.condition)
        then_lines, then_code = self._capture_lines(lambda: self.compile_expr(expr.then_expr))
        else_lines, else_code = self._capture_lines(lambda: self.compile_expr(expr.else_expr))
        then_code = self._converted(then_code, expr.then_expr, expr.ctype)
        else_code = self._converted(else_code, expr.else_expr, expr.ctype)
        if not then_lines and not else_lines:
            return f"(({then_code}) if ({condition}) else ({else_code}))"
        result = self.fresh("sel")
        for header, lines, code in ((f"if ({condition}):", then_lines, then_code),
                                    ("else:", else_lines, else_code)):
            self.emit(header)
            self.indent += 1
            self.emit_lines(lines)
            self.emit(f"{result} = {code}")
            self.indent -= 1
        return result

    def _expr_Call(self, expr: ast.Call) -> str:
        if expr.kind == "user":
            target: ast.FunctionDef = expr.callee_def
            codes = [self.compile_expr(arg) for arg in expr.args]
            args = [self._converted(code, arg, param.declared_type)
                    for code, arg, param in zip(codes, expr.args, target.params)]
            self.invalidate_loads()  # the callee may write memory
            return self.e.call(self.pc.function_symbol(target.name), args)
        resolved: ResolvedBuiltin = expr.resolved
        if resolved.kind == "workitem":
            return self._compile_workitem(expr, resolved)
        if resolved.kind == "barrier":
            raise _unsupported(expr, "barrier() must be a standalone statement")
        if resolved.name in ("mem_fence", "read_mem_fence", "write_mem_fence"):
            self.compile_expr(expr.args[0])
            return self.e.void
        codes = [self.compile_expr(arg) for arg in expr.args]
        args = [self.convert_code(code, arg.ctype, param_type)
                for code, arg, param_type in zip(codes, expr.args, resolved.param_types)]
        return self.e.builtin(resolved, args)

    def _compile_workitem(self, expr: ast.Call, resolved: ResolvedBuiltin) -> str:
        if resolved.name == "get_work_dim":
            return "ctx.work_dim"
        dim = expr.args[0]
        # ids and sizes are tuples padded to three entries (get_num_groups
        # is derived): a literal dimension indexes them directly.
        if isinstance(dim, ast.IntLiteral) and 0 <= dim.value <= 2 \
                and resolved.name != "get_num_groups":
            return f"ctx.{resolved.name[4:]}[{dim.value}]"
        return self.e.workitem(resolved.name, self.compile_expr(dim))

    def _flatten_array_access(self, expr: ast.Index) -> Optional[Tuple[str, str]]:
        """Flatten a full multi-dim array access ``a[i][j]`` into the root
        array and a single flat index expression (no intermediate
        array/pointer objects at runtime).  None when not applicable.
        """
        if isinstance(expr.ctype, ArrayType):
            return None  # partial indexing yields an array row
        indices: List[ast.Expr] = []
        node: ast.Expr = expr
        while isinstance(node, ast.Index) and isinstance(node.base.ctype, ArrayType):
            indices.append(node.index)
            node = node.base
        if not isinstance(node.ctype, ArrayType) or not indices:
            return None
        root = self.compile_expr(node)
        ctype: CType = node.ctype
        flat = None
        for index_expr in reversed(indices):  # outermost dimension first
            ctype = ctype.element
            stride = ctype.flat_length() if isinstance(ctype, ArrayType) else 1
            term = self.compile_expr(index_expr)
            if stride != 1:
                term = self.e.scale_index(term, stride)
            flat = term if flat is None else self.e.add_index(flat, term)
        return root, flat

    def _expr_Index(self, expr: ast.Index) -> str:
        mark = len(self.lines)
        atom = self.e.atom
        if isinstance(expr.base.ctype, ArrayType):
            flattened = self._flatten_array_access(expr)
            if flattened is None:
                base = self.compile_expr(expr.base)
                return f"{atom(base)}.index({self.compile_expr(expr.index)})"
            load = self.e.load(f"{atom(flattened[0])}.pointer", flattened[1], expr.ctype)
        else:
            base = self.compile_expr(expr.base)
            load = self.e.load(atom(base), self.compile_expr(expr.index), expr.ctype)
        return self.reuse_load(expr, load, pure=len(self.lines) == mark)

    def _expr_Member(self, expr: ast.Member) -> str:
        base = self.compile_expr(expr.base)
        indices = expr.indices
        if len(indices) == 1:
            return self.e.component(f"({base})", indices[0], expr.ctype)
        return self.e.swizzle(base, indices)

    def _expr_Cast(self, expr: ast.Cast) -> str:
        operand = self.compile_expr(expr.operand)
        source = expr.operand.ctype
        target = expr.target_type
        if target.is_void():
            return self.e.discard(operand)
        if isinstance(target, PointerType):
            if isinstance(source, (PointerType, ArrayType)):
                return self.e.retype(self.e.atom(self._decay_code(operand, source)),
                                     self.pc.constant(target.pointee))
            raise _unsupported(expr, "invalid pointer cast")
        # Exact conversion semantics on explicit casts.
        return self.e.cast(operand, target, source)

    def _expr_VectorLiteral(self, expr: ast.VectorLiteral) -> str:
        target = expr.target_type
        parts = [(self.compile_expr(element), element.ctype) for element in expr.elements]
        return self.e.vector_literal(target, parts)

    def _expr_SizeofExpr(self, expr: ast.SizeofExpr) -> str:
        queried = expr.queried_type if expr.queried_type is not None else expr.operand.ctype
        return str(queried.sizeof())

    def _expr_CommaExpr(self, expr: ast.CommaExpr) -> str:
        for part in expr.parts[:-1]:
            self.effect(self.compile_expr(part))
        return self.compile_expr(expr.parts[-1])

    # -- lvalues ----------------------------------------------------------------

    def _compile_lvalue(self, expr: ast.Expr) -> "_LValue":
        """Resolve an assignable location once: its operands are held in
        locals, so loading and storing it re-evaluates nothing."""
        if isinstance(expr, ast.Identifier):
            name = self.lookup_name(expr.name)
            return _LValue("mem", name, "0", ctype=expr.ctype) if name in self.local_scalars \
                else _LValue("var", name)
        if isinstance(expr, ast.Index):
            pointer, index = self.fresh("ptr"), self.fresh("idx")
            if isinstance(expr.base.ctype, ArrayType):
                flattened = self._flatten_array_access(expr)
                assert flattened is not None, "array rows are not assignable"
                base, offset = f"{self.e.atom(flattened[0])}.pointer", flattened[1]
            else:
                base, offset = self.compile_expr(expr.base), self.compile_expr(expr.index)
            self.emit(f"{pointer} = {base}")
            self.emit(f"{index} = {offset}")
            return _LValue("mem", pointer, index, ctype=expr.ctype)
        if isinstance(expr, ast.UnaryOp) and expr.op == "*":
            return _LValue("mem", self.temp("ptr", self.compile_expr(expr.operand)), "0",
                           ctype=expr.ctype)
        if isinstance(expr, ast.Member):
            base = self._compile_lvalue(expr.base)
            vector = self.temp("vec", self._load(base))
            by_reference = base.kind == "var" and self.e.vectors_by_reference
            return _LValue("veccomp", vector, tuple(expr.indices), None if by_reference else base,
                           expr.ctype)
        raise _unsupported(expr, f"expression is not assignable: {type(expr).__name__}")

    def _load(self, lvalue: "_LValue") -> str:
        if lvalue.kind == "var":
            return lvalue.target
        if lvalue.kind == "mem":
            return self.e.load(lvalue.target, lvalue.index, lvalue.ctype)
        if len(lvalue.index) == 1:
            return self.e.component(lvalue.target, lvalue.index[0], lvalue.ctype)
        return self.e.swizzle(lvalue.target, lvalue.index)

    def _store(self, lvalue: "_LValue", value: str) -> None:
        if lvalue.kind == "var":
            self.emit(f"{lvalue.target} = {value}")
        elif lvalue.kind == "mem":
            self.emit(self.e.store(lvalue.target, lvalue.index, value))
        else:
            code = self.e.vector_set(lvalue.target, lvalue.index, value, lvalue.ctype)
            self.emit(code if self.e.vectors_by_reference else f"{lvalue.target} = {code}")
            if lvalue.writeback is not None:
                self._store(lvalue.writeback, lvalue.target)

    def convert_code(self, code: str, source: Optional[CType], target: CType) -> str:
        """Emit a conversion of ``code`` from ``source`` to ``target``.

        Applies relaxed fast-math rules (see the module docstring).
        """
        if source is None or source == target:
            return code
        if isinstance(source, ArrayType):
            return code  # decayed by the caller
        if isinstance(target, VectorType) or isinstance(source, VectorType):
            return self.e.vector_convert(code, source, target)
        if isinstance(target, PointerType) or isinstance(source, PointerType):
            return code
        assert isinstance(source, ScalarType) and isinstance(target, ScalarType)
        if target.is_bool():
            return self.e.to_bool(code)
        if target.is_float():
            return self.e.int_to_float(code, source) if source.is_integer() else code
        # integer target
        if source.is_float():
            return self._mask_unsigned(self.e.float_to_int(code), target)
        if not target.signed:
            return self._mask_unsigned(code, target)
        # Signed target: wrap unless the conversion is a value-preserving
        # widening (e.g. size_t → int must turn 2^64-1 into -1, the
        # classic `get_global_id(0) - 1` OpenCL pattern).
        if source.signed and source.size <= target.size:
            return code
        return self.e.sign_wrap(code, target.bits)


class _LValue:
    """A resolved assignable location: a local (``var``), a pointer and
    element index held in locals (``mem``), or components ``index`` of
    the vector held in ``target`` (``veccomp``, written back through
    ``writeback`` unless the spelling holds vector locals by reference
    and the vector lives in one); ``ctype``: what a ``mem`` or ``veccomp``
    location holds."""

    __slots__ = ("kind", "target", "index", "writeback", "ctype")

    def __init__(self, kind, target, index=None, writeback=None, ctype=None):
        self.kind = kind
        self.target = target
        self.index = index
        self.writeback = writeback
        self.ctype = ctype


def _is_pointer(expr: ast.Expr) -> bool:
    """True for pointer operands (arrays decay to pointers)."""
    return isinstance(expr.ctype, (PointerType, ArrayType))


def _has_side_effect_code(code: str) -> bool:
    return "(" in code or "=" in code


def _contains_loop_continue(stmt: ast.Stmt) -> bool:
    """True if ``stmt`` contains a continue binding to this loop level."""

    def scan(node: ast.Node) -> bool:
        if isinstance(node, ast.ContinueStmt):
            return True
        if isinstance(node, (ast.ForStmt, ast.WhileStmt, ast.DoStmt)):
            return False  # continue inside binds to the inner loop
        return any(scan(child) for child in ast.children(node))

    return scan(stmt)


class _unsupported(Exception):
    def __init__(self, expr: ast.Expr, message: str):
        super().__init__(f"{message} (at {expr.span})")


class _ProgramCompiler:
    """The constant pool and symbol names of one generated module — one
    being generated, or (``module``) one generated earlier, whose pool is
    copied: what the namespace adds to it stays out of the module."""

    def __init__(self, program: ast.Program, module: Optional[GeneratedModule] = None):
        self.program = program
        self.constants: List[object] = list(module.constants) if module else []
        self.impls: Dict[int, ResolvedBuiltin] = dict(module.impls) if module else {}
        self._constant_index: Dict[int, int] = {}

    def constant(self, value, impl_of: Optional[ResolvedBuiltin] = None) -> str:
        """The pool slot of ``value`` (``impl_of``: the builtin whose
        ``impl`` it is, see :class:`GeneratedModule`)."""
        key = id(value)
        index = self._constant_index.get(key)
        if index is None:
            index = len(self.constants)
            self.constants.append(value)
            self._constant_index[key] = index
            if impl_of is not None:
                self.impls[index] = impl_of
        return f"_K[{index}]"

    def function_symbol(self, name: str) -> str:
        return f"_fn_{name}"

    def global_symbol(self, name: str) -> str:
        return f"_g_{name}"

    def local_index(self, function: ast.FunctionDef, decl: ast.VarDecl) -> int:
        """Where ``lmem`` holds ``decl`` (``CompiledKernel.local_decls`` order)."""
        return [id(d) for d in collect_local_decls(function)].index(id(decl))

    def module(self, source: str, filename: str) -> GeneratedModule:
        """``source``, which indexes this pool, compiled."""
        return GeneratedModule(compile(source, filename, "exec"), source,
                               self.constants, self.impls)

    def lower(self) -> str:
        """The per-item module's Python: one function per C function.
        Lowering records each statement's charge and load-CSE decisions
        on the nodes."""
        body = "\n\n".join(_FunctionCompiler(self, function).compile()
                           for function in self.program.functions)
        names = ", ".join(f"'{fn.name}': {self.function_symbol(fn.name)}" for fn in self.program.functions)
        return f"{body}\n\n_FUNCTIONS = {{{names}}}\n"

    def namespace(self) -> Dict[str, object]:
        """What a generated module runs in: the runtime helpers, the
        constant pool and the program's ``__constant`` globals (scalar
        initializers evaluate as the code this compiler generates for
        them)."""
        namespace = dict(_RUNTIME, _K=self.constants)

        def evaluate(init: ast.Expr):
            generator = _FunctionCompiler(self, None)
            code = generator.compile_expr(init)
            if generator.lines:
                raise KernelFault("__constant initializer is not a constant expression")
            return eval(code, namespace)  # noqa: S307

        for name, value in constant_globals(self.program, evaluate):
            namespace[self.global_symbol(name)] = value
        return namespace


# -- runtime helpers bound into generated code --------------------------------


def _sw(bits: int):
    half = 1 << (bits - 1)
    full = 1 << bits

    def wrap(value: int) -> int:
        return ((int(value) + half) & (full - 1)) - half

    return wrap


_RUNTIME = {
    "_sw8": _sw(8),
    "_sw16": _sw(16),
    "_sw32": _sw(32),
    "_sw64": _sw(64),
    "_idiv": c_idiv,
    "_imod": c_imod,
    "_fdiv": c_fdiv,
    "_binv": binary_value,
    "_cmpv": compare_value,
    "_unaryv": lambda ctype, op, operand: operand.unary(op),
    "_applyb": apply_builtin,
    "_vswiz": VecValue.swizzle,
    "_vset": lambda vec, indices, value, element: vec.store_components(indices, value),
    "_vecnew": VecValue.literal,
    "_zerovec": VecValue.zero,
    "_mk_array": allocate_array,
    "_copyv": copy_value,
    "_cvt": convert_value,
    "_cvv": convert_value,
    "_ptr_eq": same_pointer,
    "_KernelFault": KernelFault,
    "_NULLPTR": NULL_POINTER,
    # Folded float constants are emitted via repr(), which renders
    # non-finite values as the bare names inf/nan.
    "inf": float("inf"),
    "nan": float("nan"),
}


def compile_program(program: ast.Program) -> CompiledProgram:
    """Lower a checked program once, for what the lowering records on its
    nodes (the charges and load CSE a launch reads); no Python is
    compiled."""
    _ProgramCompiler(program).lower()
    return restore_program(program)


def restore_program(program: ast.Program) -> CompiledProgram:
    """The :class:`CompiledProgram` of a ``program`` that
    :func:`compile_program` lowered earlier — in this process, or in
    another one that stored it in the program cache, whose entry keeps
    the nodes' records: nothing is lowered."""
    return CompiledProgram(program)
