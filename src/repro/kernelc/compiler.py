"""Compiling backend: checked kernelc AST → Python functions.

Each function in a program is translated to a Python function taking
``(C, ctx, [lmem,] *args)`` where ``C`` is the launch's
:class:`~repro.kernelc.execmodel.ExecutionCounters`, ``ctx`` the
:class:`WorkItemContext` and ``lmem`` (kernels only) the list of
group-shared ``__local`` allocations.  Kernels that call ``barrier()``
compile to Python *generators* that yield ``('barrier', flags)``, which
the NDRange executor uses to phase-synchronize a work-group.

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

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import ast
from .builtins import ResolvedBuiltin
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
    compare_value,
    convert_value,
    copy_value,
)
from .interp import _flatten_initializer, apply_builtin, collect_local_decls
from .memory import ArrayRef, KernelFault, Pointer, allocate
from .values import VecValue

# Static per-operator costs (in abstract device "ops").
_OP_COSTS = {"+": 1, "-": 1, "*": 1, "/": 4, "%": 4, "<<": 1, ">>": 1, "&": 1, "|": 1, "^": 1,
             "<": 1, ">": 1, "<=": 1, ">=": 1, "==": 1, "!=": 1, "&&": 1, "||": 1}


def _is_literal(expr: ast.Expr, *values) -> bool:
    return isinstance(expr, (ast.IntLiteral, ast.FloatLiteral)) and expr.value in values


def _literal_value(expr: ast.Expr):
    """The compile-time value of a literal node, or None."""
    if isinstance(expr, (ast.IntLiteral, ast.FloatLiteral, ast.CharLiteral)):
        return expr.value
    return None


_FOLDABLE_BINOPS = frozenset(["+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^",
                              "<", ">", "<=", ">=", "==", "!="])


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
            if expr.op in ("<", ">", "<=", ">=", "==", "!="):
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
class CompiledKernel:
    name: str
    func: Callable
    uses_barrier: bool
    definition: ast.FunctionDef
    local_decls: List[ast.VarDecl]
    program: Optional[ast.Program] = None  # owning checked AST (backends)
    # The charge schedule ``{ids of a statement's charged nodes: ops}`` and
    # the load-CSE decisions ``{id(elided Index): id(source Index)}`` this
    # compile made, shared by the program's kernels; the lockstep
    # generator (:mod:`.vectorize`) emits both as literals.
    charges: Dict[tuple, int] = field(default_factory=dict, repr=False)
    cse: Dict[int, int] = field(default_factory=dict, repr=False)

    @property
    def num_params(self) -> int:
        return len(self.definition.params)


@dataclass
class CompiledProgram:
    program: ast.Program
    kernels: Dict[str, CompiledKernel]
    source_code: str  # the generated Python (for debugging/inspection)

    def kernel(self, name: str) -> CompiledKernel:
        try:
            return self.kernels[name]
        except KeyError:
            raise KeyError(f"no kernel named {name!r}; available: {sorted(self.kernels)}") from None


class _ExprPart:
    """Compiled expression: prelude statements + a Python expression."""

    __slots__ = ("prelude", "code")

    def __init__(self, code: str, prelude: Optional[List[str]] = None):
        self.code = code
        self.prelude = prelude if prelude is not None else []


_UNSIGNED_MASKS = {1: 0xFF, 2: 0xFFFF, 4: 0xFFFFFFFF, 8: 0xFFFFFFFFFFFFFFFF}


class _FunctionCompiler:
    def __init__(self, program_compiler: "_ProgramCompiler", function: ast.FunctionDef):
        self.pc = program_compiler
        self.function = function
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
        # Which Index node first produced each cached temp (so backends
        # replaying the CSE decisions can map elided loads to sources).
        self._load_origins: Dict[str, int] = {}
        self._cse_savings = 0
        # Const-propagation: mangled name -> compile-time value for
        # const-declared scalars with constant initializers.
        self._const_values: Dict[str, object] = {}

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

    def charge(self, cost: int) -> None:
        if cost > 0:
            self.emit(f"C.ops += {cost}")

    # -- deferred charging (CSE-aware) -------------------------------------

    def begin_charge(self, *nodes) -> Tuple[int, int, int, tuple]:
        """Emit a charge placeholder; finalized after the statement's
        expressions compile (CSE may have elided some of the cost)."""
        index = len(self.lines)
        self.emit("C.ops += 0")
        cost = sum(self.cost(n) for n in nodes if n is not None)
        key = tuple(id(n) for n in nodes if n is not None)
        return (index, cost, self._cse_savings, key)

    def end_charge(self, token: Tuple[int, int, int, tuple], extra: int = 0) -> None:
        index, cost, savings_before, key = token
        final = max(0, cost + extra - (self._cse_savings - savings_before))
        self.on_charge(key, final)
        if final > 0:
            self.lines[index] = self.lines[index].replace("C.ops += 0", f"C.ops += {final}")
        else:
            self.lines[index] = ""  # zero-cost statement: drop the charge

    def on_charge(self, key: tuple, final: int) -> None:
        """The statement identified by ``key`` (ids of its charged AST
        nodes) costs ``final`` ops: recorded for the lockstep backend."""
        if final:
            self.pc.charges[key] = final

    def record_cse(self, expr: ast.Expr, temp: str) -> None:
        """The load ``expr`` was elided, reusing the load held in ``temp``."""
        self.pc.cse[id(expr)] = self._load_origins[temp]

    # -- load-CSE bookkeeping ------------------------------------------------

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
            index = self.pc.local_index(self.function, decl)
            self.emit(f"{name} = lmem[{index}]")
            return
        if isinstance(ctype, ArrayType):
            name = self.declare_name(decl.name)
            const = self.pc.constant(ctype)
            if decl.init is not None:
                values = _flatten_initializer(decl.init)
                values_const = self.pc.constant(tuple(values))
                self.emit(f"{name} = _mk_array({const}, {values_const})")
            else:
                self.emit(f"{name} = _mk_array({const}, None)")
            return
        if decl.init is not None:
            token = self.begin_charge(decl.init)
            part = self.compile_expr(decl.init)
            self.emit_lines(part.prelude)
            self.end_charge(token)
            code = self.convert_code(part.code, decl.init.ctype, ctype)
            if isinstance(ctype, VectorType):
                code = f"_copyv({code})"
        else:
            code = self.default_value_code(ctype)
        name = self.declare_name(decl.name)
        self.emit(f"{name} = {code}")
        self.invalidate_name(name)
        if decl.is_const and decl.init is not None and isinstance(ctype, ScalarType):
            folded = self.fold(decl.init)
            if folded is not None:
                self._const_values[name] = convert_scalar(folded, ctype)

    def default_value_code(self, ctype: CType) -> str:
        if isinstance(ctype, VectorType):
            return f"_zerovec({self.pc.constant(ctype)})"
        if isinstance(ctype, PointerType):
            return "_NULLPTR"
        assert isinstance(ctype, ScalarType)
        return "0.0" if ctype.is_float() else "0"

    def compile_expr_stmt(self, stmt: ast.ExprStmt) -> None:
        expr = stmt.expr
        if expr is None:
            return
        if isinstance(expr, ast.Call) and getattr(expr, "kind", "") == "builtin" \
                and expr.resolved.kind == "barrier":
            part = self.compile_expr(expr.args[0])
            self.emit_lines(part.prelude)
            self.emit("C.barriers += 1")
            self.emit(f"yield ('barrier', {part.code})")
            self.invalidate_loads()
            return
        token = self.begin_charge(expr)
        if isinstance(expr, ast.Assignment):
            part = self.compile_assignment(expr)
            self.emit_lines(part.prelude)
            self.end_charge(token)
            return
        part = self.compile_expr(expr)
        self.emit_lines(part.prelude)
        self.end_charge(token)
        if _has_side_effect_code(part.code):
            self.emit(part.code)

    def compile_if(self, stmt: ast.IfStmt) -> None:
        token = self.begin_charge(stmt.condition)
        part = self.compile_expr(stmt.condition)
        self.emit_lines(part.prelude)
        self.end_charge(token, extra=1)
        snapshot = self.snapshot_loads()
        self.emit(f"if {part.code}:")
        self.indent += 1
        before = len(self.lines)
        self.scope_stack.append({})
        self.compile_stmt(stmt.then_branch)
        self.scope_stack.pop()
        if len(self.lines) == before:
            self.emit("pass")
        self.indent -= 1
        self.restore_loads(dict(snapshot))
        if stmt.else_branch is not None:
            self.emit("else:")
            self.indent += 1
            before = len(self.lines)
            self.scope_stack.append({})
            self.compile_stmt(stmt.else_branch)
            self.scope_stack.pop()
            if len(self.lines) == before:
                self.emit("pass")
            self.indent -= 1
            self.restore_loads(dict(snapshot))
        # Branches may have stored to memory: keep only loads that were
        # already valid before and not invalidated by either branch.
        self.invalidate_loads()

    def _compile_loop_condition_break(self, condition: Optional[ast.Expr]) -> None:
        if condition is None:
            return
        token = self.begin_charge(condition)
        part = self.compile_expr(condition)
        self.emit_lines(part.prelude)
        self.end_charge(token, extra=1)
        self.emit(f"if not ({part.code}): break")

    def compile_while(self, stmt: ast.WhileStmt) -> None:
        self.invalidate_loads()
        self.emit("while True:")
        self.indent += 1
        self._compile_loop_condition_break(stmt.condition)
        self.contexts.append(("loop", []))
        self.scope_stack.append({})
        self.compile_stmt(stmt.body)
        self.scope_stack.pop()
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
            increment_lines = self._capture_lines(lambda: self._compile_increment(stmt.increment))
        self.emit("while True:")
        self.indent += 1
        self._compile_loop_condition_break(stmt.condition)
        self.contexts.append(("loop", increment_lines))
        inner = len(self.lines)
        self.scope_stack.append({})
        self.compile_stmt(stmt.body)
        self.scope_stack.pop()
        self.contexts.pop()
        if len(self.lines) == inner and not increment_lines and stmt.condition is None:
            self.emit("pass")
        for line in increment_lines:
            self.lines.append("    " * self.indent + line)
        self.indent -= 1
        self.scope_stack.pop()
        self.invalidate_loads()

    def _compile_increment(self, expr: ast.Expr) -> None:
        token = self.begin_charge(expr)
        if isinstance(expr, ast.Assignment):
            part = self.compile_assignment(expr)
            self.emit_lines(part.prelude)
            self.end_charge(token)
            return
        part = self.compile_expr(expr)
        self.emit_lines(part.prelude)
        self.end_charge(token)
        if _has_side_effect_code(part.code):
            self.emit(part.code)

    def _capture_lines(self, action: Callable[[], None]) -> List[str]:
        """Run ``action`` capturing emitted lines (dedented) instead of
        appending them to the body."""
        saved_lines, saved_indent = self.lines, self.indent
        snapshot = self.snapshot_loads()
        self.lines, self.indent = [], 0
        action()
        captured = [line for line in self.lines]
        self.lines, self.indent = saved_lines, saved_indent
        self.restore_loads(snapshot)
        return captured

    def compile_do(self, stmt: ast.DoStmt) -> None:
        self.invalidate_loads()
        has_continue = _contains_loop_continue(stmt.body)
        self.emit("while True:")
        self.indent += 1
        if not has_continue:
            self.contexts.append(("loop", []))
            self.scope_stack.append({})
            self.compile_stmt(stmt.body)
            self.scope_stack.pop()
            self.contexts.pop()
        else:
            # continue must fall through to the condition: run the body in
            # a single-pass inner loop where continue becomes break.
            break_flag = self.fresh("brk")
            self.emit(f"{break_flag} = False")
            self.emit("for _once in (0,):")
            self.indent += 1
            self.contexts.append(("do_wrap", break_flag))
            self.scope_stack.append({})
            self.compile_stmt(stmt.body)
            self.scope_stack.pop()
            self.contexts.pop()
            self.indent -= 1
            self.emit(f"if {break_flag}: break")
        self.invalidate_loads()
        token = self.begin_charge(stmt.condition)
        part = self.compile_expr(stmt.condition)
        self.emit_lines(part.prelude)
        self.end_charge(token, extra=1)
        self.emit(f"if not ({part.code}): break")
        self.indent -= 1
        self.invalidate_loads()

    def compile_switch(self, stmt: ast.SwitchStmt) -> None:
        self.invalidate_loads()
        cost = node_cost(stmt.subject) + len(stmt.cases)
        self.on_charge((id(stmt), "switch"), cost)
        self.charge(cost)
        subject = self.compile_expr(stmt.subject)
        self.emit_lines(subject.prelude)
        subject_name = self.fresh("sw")
        self.emit(f"{subject_name} = {subject.code}")
        start_name = self.fresh("st")
        default_index = len(stmt.cases)
        conditions: List[str] = []
        for index, case in enumerate(stmt.cases):
            if case.value is None:
                default_index = index
                continue
            value_part = self.compile_expr(case.value)
            self.emit_lines(value_part.prelude)
            conditions.append((index, value_part.code))
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
        if self.function.is_kernel:
            self.emit("return")
            return
        if stmt.value is None:
            self.emit("return")
            return
        token = self.begin_charge(stmt.value)
        part = self.compile_expr(stmt.value)
        self.emit_lines(part.prelude)
        self.end_charge(token)
        code = self.convert_code(part.code, stmt.value.ctype, self.function.return_type)
        self.emit(f"return {code}")

    def compile_break(self) -> None:
        for kind, payload in reversed(self.contexts):
            if kind == "loop":
                self.emit("break")
                return
            if kind == "switch":
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

    def compile_expr(self, expr: ast.Expr) -> _ExprPart:
        # Constant folding: emit whole constant subtrees as literals
        # (identifiers resolve through the const-propagation table).
        if not isinstance(expr, (ast.IntLiteral, ast.FloatLiteral, ast.CharLiteral)):
            folded = self.fold(expr)
            if folded is not None:
                return _ExprPart(repr(folded))
        method = getattr(self, f"_expr_{type(expr).__name__}")
        return method(expr)

    def _expr_IntLiteral(self, expr: ast.IntLiteral) -> _ExprPart:
        return _ExprPart(repr(convert_scalar(expr.value, expr.ctype)))

    def _expr_FloatLiteral(self, expr: ast.FloatLiteral) -> _ExprPart:
        return _ExprPart(repr(float(expr.value)))

    def _expr_CharLiteral(self, expr: ast.CharLiteral) -> _ExprPart:
        return _ExprPart(repr(convert_scalar(expr.value, expr.ctype)))

    def _expr_Identifier(self, expr: ast.Identifier) -> _ExprPart:
        constant = getattr(expr, "constant_value", None)
        if constant is not None:
            return _ExprPart(repr(constant))
        name = self.lookup_name(expr.name)
        if name is not None:
            return _ExprPart(name)
        # File-scope __constant data.
        return _ExprPart(self.pc.global_symbol(expr.name))

    def _expr_UnaryOp(self, expr: ast.UnaryOp) -> _ExprPart:
        op = expr.op
        if op in ("++", "--"):
            return self._compile_incdec(expr.operand, op, prefix=True)
        if op == "*":
            operand = self.compile_expr(expr.operand)
            return _ExprPart(f"({operand.code}).load(0)", operand.prelude)
        if op == "&":
            return self._expr_address_of(expr)
        operand = self.compile_expr(expr.operand)
        ctype = expr.ctype
        if isinstance(ctype, VectorType):
            const = self.pc.constant(ctype)
            return _ExprPart(f"_unaryv({const}, {op!r}, {operand.code})", operand.prelude)
        if op == "!":
            return _ExprPart(f"(0 if ({operand.code}) else 1)", operand.prelude)
        if op == "~":
            code = f"(~({operand.code}))"
        elif op == "-":
            code = f"(-({operand.code}))"
        else:  # unary +
            code = f"(+({operand.code}))"
        code = self._mask_unsigned(code, ctype)
        return _ExprPart(code, operand.prelude)

    def _expr_address_of(self, expr: ast.UnaryOp) -> _ExprPart:
        inner = expr.operand
        if isinstance(inner, ast.Index):
            base_type = inner.base.ctype
            if isinstance(base_type, ArrayType):
                flattened = self._flatten_array_access(inner)
                if flattened is not None:
                    root, flat_index, prelude = flattened
                    return _ExprPart(f"({root}).pointer.add({flat_index})", prelude)
                base = self.compile_expr(inner.base)
                index = self.compile_expr(inner.index)
                return _ExprPart(f"({base.code}).index({index.code}).decayed()",
                                 base.prelude + index.prelude)
            base = self.compile_expr(inner.base)
            index = self.compile_expr(inner.index)
            return _ExprPart(f"({base.code}).add({index.code})", base.prelude + index.prelude)
        if isinstance(inner, ast.UnaryOp) and inner.op == "*":
            operand = self.compile_expr(inner.operand)
            return _ExprPart(operand.code, operand.prelude)
        if isinstance(inner, ast.Identifier) and isinstance(inner.ctype, ArrayType):
            part = self.compile_expr(inner)
            return _ExprPart(f"({part.code}).decayed()", part.prelude)
        raise _unsupported(expr, "taking the address of a plain variable is not supported")

    def _mask_unsigned(self, code: str, ctype: CType) -> str:
        if isinstance(ctype, ScalarType) and ctype.is_integer() and not ctype.signed and not ctype.is_bool():
            return f"(({code}) & {_UNSIGNED_MASKS[ctype.size]})"
        return code

    def _compile_incdec(self, target: ast.Expr, op: str, prefix: bool) -> _ExprPart:
        delta = "1" if op == "++" else "-1"
        ctype = target.ctype
        if isinstance(target, ast.Identifier) and not isinstance(ctype, (VectorType,)):
            name = self.lookup_name(target.name)
            assert name is not None
            self.invalidate_name(name)
            if isinstance(ctype, PointerType):
                update = f"{name} = {name}.add({delta})"
            else:
                update = f"{name} = {self._mask_unsigned(f'{name} + ({delta})', ctype)}"
            if prefix:
                return _ExprPart(name, [update])
            temp = self.fresh()
            return _ExprPart(temp, [f"{temp} = {name}", update])
        # General lvalue: load-modify-store.
        lvalue = self._compile_lvalue(target)
        temp = self.fresh()
        prelude = list(lvalue.prelude)
        prelude.append(f"{temp} = {lvalue.load_code()}")
        if isinstance(ctype, PointerType):
            new_code = f"{temp}.add({delta})"
        else:
            new_code = self._mask_unsigned(f"{temp} + ({delta})", ctype)
        if prefix:
            new_temp = self.fresh()
            prelude.append(f"{new_temp} = {new_code}")
            prelude.extend(lvalue.store_lines(new_temp))
            self.invalidate_loads()
            return _ExprPart(new_temp, prelude)
        prelude.extend(lvalue.store_lines(new_code))
        self.invalidate_loads()
        return _ExprPart(temp, prelude)

    def _expr_PostfixOp(self, expr: ast.PostfixOp) -> _ExprPart:
        return self._compile_incdec(expr.operand, expr.op, prefix=False)

    def _expr_BinaryOp(self, expr: ast.BinaryOp) -> _ExprPart:
        op = expr.op
        left_type = _decayed_type(expr.left)
        right_type = _decayed_type(expr.right)

        if op in ("&&", "||"):
            return self._compile_logical(expr)

        left = self.compile_expr(expr.left)
        right = self.compile_expr(expr.right)
        prelude = left.prelude + right.prelude
        op_type = expr.op_type

        # Pointer arithmetic / comparisons.
        if isinstance(left_type, PointerType) or isinstance(right_type, PointerType):
            return self._compile_pointer_binary(expr, left, right, left_type, right_type, prelude)

        if isinstance(op_type, VectorType):
            const = self.pc.constant(op_type)
            helper = "_cmpv" if op in ("<", ">", "<=", ">=", "==", "!=") else "_binv"
            return _ExprPart(f"{helper}({op!r}, {left.code}, {right.code}, {const})", prelude)

        assert isinstance(op_type, ScalarType)
        lcode, rcode = left.code, right.code
        # Order-sensitive operations (comparisons, division, remainder,
        # right shift) need operands coerced to the unsigned domain when
        # the computation type is unsigned — C's "usual arithmetic
        # conversions" make (-1 < 1u) false.  Ring operations (+ - * etc.)
        # only need the result masked.
        is_unsigned = op_type.is_integer() and not op_type.signed and not op_type.is_bool()
        if op in ("<", ">", "<=", ">=", "==", "!="):
            if is_unsigned:
                lcode = self._mask_unsigned(lcode, op_type)
                rcode = self._mask_unsigned(rcode, op_type)
            return _ExprPart(f"(({lcode}) {op} ({rcode}))", prelude)
        if op == "/":
            if op_type.is_float():
                return _ExprPart(f"_fdiv({lcode}, {rcode})", prelude)
            if is_unsigned:
                lcode = self._mask_unsigned(lcode, op_type)
                rcode = self._mask_unsigned(rcode, op_type)
            return _ExprPart(f"_idiv({lcode}, {rcode})", prelude)
        if op == "%":
            if is_unsigned:
                lcode = self._mask_unsigned(lcode, op_type)
                rcode = self._mask_unsigned(rcode, op_type)
            return _ExprPart(f"_imod({lcode}, {rcode})", prelude)
        if op in ("<<", ">>"):
            if op == ">>" and is_unsigned:
                lcode = self._mask_unsigned(lcode, op_type)
            code = f"(({lcode}) {op} (({rcode}) % {op_type.bits}))"
            return _ExprPart(self._mask_unsigned(code, op_type), prelude)
        # Strength reduction: fold multiplications by +-1 and additions
        # of 0 (matching node_cost, which charges nothing for them).
        if op == "*":
            if _is_literal(expr.right, 1, 1.0):
                return _ExprPart(lcode, prelude)
            if _is_literal(expr.left, 1, 1.0):
                return _ExprPart(rcode, prelude)
            if _is_literal(expr.right, -1, -1.0):
                return _ExprPart(self._mask_unsigned(f"(-({lcode}))", op_type), prelude)
            if _is_literal(expr.left, -1, -1.0):
                return _ExprPart(self._mask_unsigned(f"(-({rcode}))", op_type), prelude)
        elif op in ("+", "-") and _is_literal(expr.right, 0, 0.0):
            return _ExprPart(lcode, prelude)
        elif op == "+" and _is_literal(expr.left, 0, 0.0):
            return _ExprPart(rcode, prelude)
        code = f"(({lcode}) {op} ({rcode}))"
        return _ExprPart(self._mask_unsigned(code, op_type), prelude)

    def _compile_logical(self, expr: ast.BinaryOp) -> _ExprPart:
        left = self.compile_expr(expr.left)
        # The right side evaluates conditionally: loads cached inside it
        # must not escape into unconditional contexts.
        snapshot = self.snapshot_loads()
        right = self.compile_expr(expr.right)
        self.restore_loads(snapshot)
        if not right.prelude:
            joiner = "and" if expr.op == "&&" else "or"
            return _ExprPart(f"(1 if (({left.code}) {joiner} ({right.code})) else 0)", left.prelude)
        # The right side needs statements: lower with explicit control flow
        # to preserve short-circuit evaluation.
        result = self.fresh("lg")
        prelude = list(left.prelude)
        if expr.op == "&&":
            prelude.append(f"{result} = 0")
            prelude.append(f"if ({left.code}):")
            for line in right.prelude:
                prelude.append("    " + line)
            prelude.append(f"    {result} = 1 if ({right.code}) else 0")
        else:
            prelude.append(f"{result} = 1")
            prelude.append(f"if not ({left.code}):")
            for line in right.prelude:
                prelude.append("    " + line)
            prelude.append(f"    {result} = 1 if ({right.code}) else 0")
        return _ExprPart(result, prelude)

    def _compile_pointer_binary(self, expr, left, right, left_type, right_type, prelude) -> _ExprPart:
        op = expr.op
        left_ptr = isinstance(left_type, PointerType)
        right_ptr = isinstance(right_type, PointerType)
        lcode = self._decay_code(left.code, expr.left.ctype)
        rcode = self._decay_code(right.code, expr.right.ctype)
        if op == "+":
            if left_ptr:
                return _ExprPart(f"({lcode}).add({rcode})", prelude)
            return _ExprPart(f"({rcode}).add({lcode})", prelude)
        if op == "-":
            if left_ptr and right_ptr:
                return _ExprPart(f"({lcode}).diff({rcode})", prelude)
            return _ExprPart(f"({lcode}).add(-({rcode}))", prelude)
        if op in ("==", "!="):
            negate = "" if op == "==" else "not "
            return _ExprPart(f"int({negate}_ptr_eq({lcode}, {rcode}))", prelude)
        return _ExprPart(f"int(({lcode}).offset {op} ({rcode}).offset)", prelude)

    def _decay_code(self, code: str, ctype: Optional[CType]) -> str:
        if isinstance(ctype, ArrayType):
            return f"({code}).decayed()"
        return code

    def _expr_Assignment(self, expr: ast.Assignment) -> _ExprPart:
        return self.compile_assignment(expr)

    def compile_assignment(self, expr: ast.Assignment) -> _ExprPart:
        target_type = expr.target.ctype

        # Fast path: simple variable target.
        if isinstance(expr.target, ast.Identifier):
            value = self.compile_expr(expr.value)
            value_code = self._decay_code(value.code, expr.value.ctype)
            name = self.lookup_name(expr.target.name)
            assert name is not None
            prelude = list(value.prelude)
            if expr.op == "=":
                new_code = self.convert_code(value_code, expr.value.ctype, target_type)
                if isinstance(target_type, VectorType):
                    new_code = f"_copyv({new_code})"
            else:
                new_code = self._compound_code(name, value_code, expr)
            prelude.append(f"{name} = {new_code}")
            self.invalidate_name(name)
            return _ExprPart(name, prelude)

        # Compile the lvalue before the value so the compile-time order
        # matches the emitted runtime order (lvalue prelude first).  A
        # load shared between both sides must pick its CSE source from
        # whichever side executes first, or the cached temp would be
        # referenced before its defining line.
        lvalue = self._compile_lvalue(expr.target)
        value = self.compile_expr(expr.value)
        value_code = self._decay_code(value.code, expr.value.ctype)
        prelude = lvalue.prelude + value.prelude
        if expr.op == "=":
            stored = self.convert_code(value_code, expr.value.ctype, target_type)
        else:
            current = self.fresh("cur")
            prelude.append(f"{current} = {lvalue.load_code()}")
            stored = self._compound_code(current, value_code, expr)
        temp = self.fresh("val")
        prelude.append(f"{temp} = {stored}")
        prelude.extend(lvalue.store_lines(temp))
        self.invalidate_loads()  # stored through memory
        return _ExprPart(temp, prelude)

    def _compound_code(self, current_code: str, value_code: str, expr: ast.Assignment) -> str:
        op = expr.op[:-1]
        target_type = expr.target.ctype
        if isinstance(target_type, PointerType):
            sign = "" if op == "+" else "-"
            return f"({current_code}).add({sign}({value_code}))"
        if isinstance(target_type, VectorType) or isinstance(expr.value.ctype, VectorType):
            const = self.pc.constant(target_type)
            return f"_binv({op!r}, {current_code}, {value_code}, {const})"
        assert isinstance(target_type, ScalarType)
        value_type = expr.value.ctype
        # Compute in the wider type when mixing float into an int target.
        if isinstance(value_type, ScalarType) and value_type.is_float() and target_type.is_integer():
            combined = f"(({current_code}) {op} ({value_code}))" if op not in ("/",) else f"_fdiv({current_code}, {value_code})"
            return self.convert_code(combined, value_type, target_type)
        if op == "/":
            combined = f"_fdiv({current_code}, {value_code})" if target_type.is_float() else f"_idiv({current_code}, {value_code})"
        elif op == "%":
            combined = f"_imod({current_code}, {value_code})"
        elif op in ("<<", ">>"):
            combined = f"(({current_code}) {op} (({value_code}) % {target_type.bits}))"
        else:
            value = self.convert_code(value_code, value_type, target_type) if (
                isinstance(value_type, ScalarType) and value_type.is_float() and target_type.is_integer()
            ) else value_code
            combined = f"(({current_code}) {op} ({value}))"
        return self._mask_unsigned(combined, target_type)

    def _expr_Conditional(self, expr: ast.Conditional) -> _ExprPart:
        condition = self.compile_expr(expr.condition)
        snapshot = self.snapshot_loads()
        then_part = self.compile_expr(expr.then_expr)
        self.restore_loads(dict(snapshot))
        else_part = self.compile_expr(expr.else_expr)
        self.restore_loads(snapshot)
        then_code = self.convert_code(self._decay_code(then_part.code, expr.then_expr.ctype),
                                      expr.then_expr.ctype, expr.ctype)
        else_code = self.convert_code(self._decay_code(else_part.code, expr.else_expr.ctype),
                                      expr.else_expr.ctype, expr.ctype)
        if not then_part.prelude and not else_part.prelude:
            return _ExprPart(f"(({then_code}) if ({condition.code}) else ({else_code}))", condition.prelude)
        result = self.fresh("sel")
        prelude = list(condition.prelude)
        prelude.append(f"if ({condition.code}):")
        for line in then_part.prelude:
            prelude.append("    " + line)
        prelude.append(f"    {result} = {then_code}")
        prelude.append("else:")
        for line in else_part.prelude:
            prelude.append("    " + line)
        prelude.append(f"    {result} = {else_code}")
        return _ExprPart(result, prelude)

    def _expr_Call(self, expr: ast.Call) -> _ExprPart:
        if expr.kind == "user":
            return self._compile_user_call(expr)
        resolved: ResolvedBuiltin = expr.resolved
        if resolved.kind == "workitem":
            return self._compile_workitem(expr, resolved)
        if resolved.kind == "barrier":
            raise _unsupported(expr, "barrier() must be a standalone statement")
        if resolved.name in ("mem_fence", "read_mem_fence", "write_mem_fence"):
            part = self.compile_expr(expr.args[0])
            return _ExprPart("None", part.prelude)

        parts = [self.compile_expr(arg) for arg in expr.args]
        prelude: List[str] = []
        for part in parts:
            prelude.extend(part.prelude)
        arg_codes = [
            self.convert_code(part.code, arg.ctype, param_type)
            for part, arg, param_type in zip(parts, expr.args, resolved.param_types)
        ]
        needs_generic = (
            resolved.kind == "whole"
            or isinstance(resolved.result_type, VectorType)
            or any(isinstance(t, VectorType) for t in resolved.param_types)
        )
        if needs_generic:
            const = self.pc.constant(resolved)
            return _ExprPart(f"_applyb({const}, ({', '.join(arg_codes)},))", prelude)
        impl_const = self.pc.constant(resolved.impl)
        code = f"{impl_const}({', '.join(arg_codes)})"
        result = resolved.result_type
        if isinstance(result, ScalarType) and result.is_integer() and not result.signed and resolved.name not in ("abs",):
            code = self._mask_unsigned(code, result)
        return _ExprPart(code, prelude)

    def _compile_workitem(self, expr: ast.Call, resolved: ResolvedBuiltin) -> _ExprPart:
        attr = {
            "get_global_id": "global_id",
            "get_local_id": "local_id",
            "get_group_id": "group_id",
            "get_global_size": "global_size",
            "get_local_size": "local_size",
            "get_global_offset": "global_offset",
        }.get(resolved.name)
        if resolved.name == "get_work_dim":
            return _ExprPart("ctx.work_dim")
        if expr.args and isinstance(expr.args[0], ast.IntLiteral) and attr is not None \
                and 0 <= expr.args[0].value <= 2:
            return _ExprPart(f"ctx.{attr}[{expr.args[0].value}]")
        parts = [self.compile_expr(arg) for arg in expr.args]
        prelude = [line for part in parts for line in part.prelude]
        args = ", ".join(part.code for part in parts)
        return _ExprPart(f"ctx.{resolved.name}({args})", prelude)

    def _compile_user_call(self, expr: ast.Call) -> _ExprPart:
        target: ast.FunctionDef = expr.callee_def
        parts = [self.compile_expr(arg) for arg in expr.args]
        prelude = [line for part in parts for line in part.prelude]
        arg_codes = []
        for part, arg, param in zip(parts, expr.args, target.params):
            code = self._decay_code(part.code, arg.ctype)
            code = self.convert_code(code, arg.ctype, param.declared_type)
            arg_codes.append(code)
        symbol = self.pc.function_symbol(target.name)
        joined = ", ".join(arg_codes)
        call = f"{symbol}(C, ctx, {joined})" if joined else f"{symbol}(C, ctx)"
        self.invalidate_loads()  # the callee may write memory
        return _ExprPart(call, prelude)

    def _flatten_array_access(self, expr: ast.Index):
        """Flatten a full multi-dim array access ``a[i][j]`` into the root
        ArrayRef and a single flat index expression (no intermediate
        ArrayRef/Pointer objects at runtime).  None when not applicable.
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
        indices.reverse()  # outermost dimension first
        strides: List[int] = []
        ctype: CType = node.ctype
        for _ in indices:
            element = ctype.element
            strides.append(element.flat_length() if isinstance(element, ArrayType) else 1)
            ctype = element
        base_part = self.compile_expr(node)
        prelude = list(base_part.prelude)
        terms: List[str] = []
        for index_expr, stride in zip(indices, strides):
            part = self.compile_expr(index_expr)
            prelude.extend(part.prelude)
            terms.append(part.code if stride == 1 else f"({part.code}) * {stride}")
        return base_part.code, " + ".join(terms), prelude

    def _expr_Index(self, expr: ast.Index) -> _ExprPart:
        base_type = expr.base.ctype
        if isinstance(base_type, ArrayType):
            flattened = self._flatten_array_access(expr)
            if flattened is None:
                base = self.compile_expr(expr.base)
                index = self.compile_expr(expr.index)
                return _ExprPart(f"({base.code}).index({index.code})",
                                 base.prelude + index.prelude)
            root, flat_index, prelude = flattened
            load_code = f"({root}).pointer.load({flat_index})"
        else:
            base = self.compile_expr(expr.base)
            index = self.compile_expr(expr.index)
            prelude = base.prelude + index.prelude
            load_code = f"({base.code}).load({index.code})"
        # CSE: repeated identical loads within a basic block reuse the
        # first load's temp (only for side-effect-free base/index).
        if not prelude:
            cached = self._load_cache.get(load_code)
            if cached is not None:
                self._cse_savings += node_cost(expr)
                self.record_cse(expr, cached)
                return _ExprPart(cached)
            temp = self.fresh("ld")
            self._load_cache[load_code] = temp
            self._load_origins[temp] = id(expr)
            return _ExprPart(temp, [f"{temp} = {load_code}"])
        return _ExprPart(load_code, prelude)

    def _expr_Member(self, expr: ast.Member) -> _ExprPart:
        base = self.compile_expr(expr.base)
        indices = expr.indices
        if len(indices) == 1:
            return _ExprPart(f"({base.code}).components[{indices[0]}]", base.prelude)
        idx_tuple = ", ".join(str(i) for i in indices)
        return _ExprPart(f"_vswiz({base.code}, ({idx_tuple},))", base.prelude)

    def _expr_Cast(self, expr: ast.Cast) -> _ExprPart:
        operand = self.compile_expr(expr.operand)
        source = expr.operand.ctype
        target = expr.target_type
        if target.is_void():
            return _ExprPart(f"({operand.code}, None)[1]" if _has_side_effect_code(operand.code) else "None",
                             operand.prelude)
        if isinstance(target, PointerType):
            code = self._decay_code(operand.code, source)
            if isinstance(source, (PointerType, ArrayType)):
                pointee_const = self.pc.constant(target.pointee)
                return _ExprPart(f"({code}).retyped({pointee_const})", operand.prelude)
            raise _unsupported(expr, "invalid pointer cast")
        # Exact conversion semantics on explicit casts.
        const = self.pc.constant(target)
        return _ExprPart(f"_cvt({operand.code}, {const})", operand.prelude)

    def _expr_VectorLiteral(self, expr: ast.VectorLiteral) -> _ExprPart:
        target: VectorType = expr.target_type
        parts = [self.compile_expr(element) for element in expr.elements]
        prelude = [line for part in parts for line in part.prelude]
        codes = ", ".join(part.code for part in parts)
        const = self.pc.constant(target)
        return _ExprPart(f"_vecnew({const}, ({codes},))", prelude)

    def _expr_SizeofExpr(self, expr: ast.SizeofExpr) -> _ExprPart:
        queried = expr.queried_type if expr.queried_type is not None else expr.operand.ctype
        return _ExprPart(str(queried.sizeof()))

    def _expr_CommaExpr(self, expr: ast.CommaExpr) -> _ExprPart:
        prelude: List[str] = []
        for part_expr in expr.parts[:-1]:
            part = self.compile_expr(part_expr)
            prelude.extend(part.prelude)
            if _has_side_effect_code(part.code):
                prelude.append(part.code)
        last = self.compile_expr(expr.parts[-1])
        prelude.extend(last.prelude)
        return _ExprPart(last.code, prelude)

    # -- lvalues ----------------------------------------------------------------

    def _compile_lvalue(self, expr: ast.Expr) -> "_CompiledLValue":
        if isinstance(expr, ast.Identifier):
            name = self.lookup_name(expr.name)
            assert name is not None
            return _CompiledLValue([], kind="var", target=name)
        if isinstance(expr, ast.Index):
            base_type = expr.base.ctype
            pointer_temp = self.fresh("ptr")
            index_temp = self.fresh("idx")
            if isinstance(base_type, ArrayType):
                flattened = self._flatten_array_access(expr)
                assert flattened is not None, "array rows are not assignable"
                root, flat_index, prelude = flattened
                prelude.append(f"{pointer_temp} = ({root}).pointer")
                prelude.append(f"{index_temp} = {flat_index}")
                return _CompiledLValue(prelude, kind="mem", target=pointer_temp, index=index_temp)
            base = self.compile_expr(expr.base)
            index = self.compile_expr(expr.index)
            prelude = base.prelude + index.prelude
            prelude.append(f"{pointer_temp} = {base.code}")
            prelude.append(f"{index_temp} = {index.code}")
            return _CompiledLValue(prelude, kind="mem", target=pointer_temp, index=index_temp)
        if isinstance(expr, ast.UnaryOp) and expr.op == "*":
            operand = self.compile_expr(expr.operand)
            pointer_temp = self.fresh("ptr")
            prelude = list(operand.prelude)
            prelude.append(f"{pointer_temp} = {operand.code}")
            return _CompiledLValue(prelude, kind="mem", target=pointer_temp, index="0")
        if isinstance(expr, ast.Member):
            base_lvalue = self._compile_lvalue(expr.base)
            prelude = list(base_lvalue.prelude)
            vec_temp = self.fresh("vec")
            prelude.append(f"{vec_temp} = {base_lvalue.load_code()}")
            element_const = self.pc.constant(expr.base.ctype.element)
            return _CompiledLValue(
                prelude,
                kind="veccomp",
                target=vec_temp,
                indices=tuple(expr.indices),
                writeback=base_lvalue if base_lvalue.kind != "var" else None,
                element_const=element_const,
            )
        raise _unsupported(expr, f"expression is not assignable: {type(expr).__name__}")

    def convert_code(self, code: str, source: Optional[CType], target: CType) -> str:
        """Emit a conversion of ``code`` from ``source`` to ``target``.

        Applies relaxed fast-math rules (see the module docstring).
        """
        if source is None or source == target:
            return code
        if isinstance(source, ArrayType):
            return code  # decayed by the caller
        if isinstance(target, VectorType) or isinstance(source, VectorType):
            const = self.pc.constant(target)
            return f"_cvv({code}, {const})"
        if isinstance(target, PointerType) or isinstance(source, PointerType):
            return code
        assert isinstance(source, ScalarType) and isinstance(target, ScalarType)
        if target.is_bool():
            return f"(1 if ({code}) else 0)"
        if target.is_float():
            return f"float({code})" if source.is_integer() else code
        # integer target
        if source.is_float():
            code = f"int({code})"
            if not target.signed:
                return self._mask_unsigned(code, target)
            return code
        if not target.signed:
            return self._mask_unsigned(code, target)
        # Signed target: wrap unless the conversion is a value-preserving
        # widening (e.g. size_t → int must turn 2^64-1 into -1, the
        # classic `get_global_id(0) - 1` OpenCL pattern).
        if source.signed and source.size <= target.size:
            return code
        return f"_sw{target.bits}({code})"


class _CompiledLValue:
    __slots__ = ("prelude", "kind", "target", "index", "indices", "writeback", "element_const")

    def __init__(self, prelude, kind, target, index=None, indices=None, writeback=None, element_const=None):
        self.prelude = prelude
        self.kind = kind
        self.target = target
        self.index = index
        self.indices = indices
        self.writeback = writeback
        self.element_const = element_const

    def load_code(self) -> str:
        if self.kind == "var":
            return self.target
        if self.kind == "mem":
            return f"{self.target}.load({self.index})"
        if self.kind == "veccomp":
            if len(self.indices) == 1:
                return f"{self.target}.components[{self.indices[0]}]"
            idx = ", ".join(str(i) for i in self.indices)
            return f"_vswiz({self.target}, ({idx},))"
        raise AssertionError(self.kind)  # pragma: no cover

    def store_lines(self, value_code: str) -> List[str]:
        if self.kind == "var":
            return [f"{self.target} = {value_code}"]
        if self.kind == "mem":
            return [f"{self.target}.store({self.index}, {value_code})"]
        if self.kind == "veccomp":
            idx = ", ".join(str(i) for i in self.indices)
            lines = [f"_vset({self.target}, ({idx},), {value_code}, {self.element_const})"]
            if self.writeback is not None:
                lines.extend(self.writeback.store_lines(self.target))
            return lines
        raise AssertionError(self.kind)  # pragma: no cover


def _decayed_type(expr: ast.Expr) -> Optional[CType]:
    ctype = expr.ctype
    if isinstance(ctype, ArrayType):
        symbol = getattr(expr, "symbol", None)
        space = symbol.address_space if symbol is not None else "private"
        return PointerType(ctype.element, space)
    return ctype


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
    def __init__(self, program: ast.Program):
        self.program = program
        self.constants: List[object] = []
        self._constant_index: Dict[int, int] = {}
        self._local_indices: Dict[Tuple[str, int], int] = {}
        self.charges: Dict[tuple, int] = {}
        self.cse: Dict[int, int] = {}
        for function in program.functions:
            if function.is_kernel:
                for position, decl in enumerate(collect_local_decls(function)):
                    self._local_indices[(function.name, id(decl))] = position

    def constant(self, value) -> str:
        key = id(value)
        index = self._constant_index.get(key)
        if index is None:
            index = len(self.constants)
            self.constants.append(value)
            self._constant_index[key] = index
        return f"_K[{index}]"

    def function_symbol(self, name: str) -> str:
        return f"_fn_{name}"

    def global_symbol(self, name: str) -> str:
        return f"_g_{name}"

    def local_index(self, function: ast.FunctionDef, decl: ast.VarDecl) -> int:
        return self._local_indices[(function.name, id(decl))]

    def compile(self) -> CompiledProgram:
        pieces: List[str] = []
        for function in self.program.functions:
            compiler = _FunctionCompiler(self, function)
            pieces.append(compiler.compile())
        body = "\n\n".join(pieces)
        names = ", ".join(f"'{fn.name}': {self.function_symbol(fn.name)}" for fn in self.program.functions)
        source_code = f"{body}\n\n_FUNCTIONS = {{{names}}}\n"

        namespace = _runtime_namespace()
        namespace["_K"] = self.constants
        self._bind_globals(namespace)
        exec(compile(source_code, "<kernelc-compiled>", "exec"), namespace)  # noqa: S102
        functions = namespace["_FUNCTIONS"]

        kernels: Dict[str, CompiledKernel] = {}
        for function in self.program.functions:
            if not function.is_kernel:
                continue
            kernels[function.name] = CompiledKernel(
                name=function.name,
                func=functions[function.name],
                uses_barrier=bool(getattr(function, "uses_barrier", False)),
                definition=function,
                local_decls=collect_local_decls(function),
                program=self.program,
                charges=self.charges,
                cse=self.cse,
            )
        return CompiledProgram(self.program, kernels, source_code)

    def _bind_globals(self, namespace: Dict[str, object]) -> None:
        if not self.program.globals:
            return
        from .interp import Machine

        machine = Machine(self.program)
        for global_decl in self.program.globals:
            name = global_decl.decl.name
            namespace[self.global_symbol(name)] = machine.globals[name]


# -- runtime helpers bound into generated code --------------------------------


def _vswiz(vec: VecValue, indices) -> VecValue:
    return VecValue(vec.element_type, [vec.components[i] for i in indices])


def _vset(vec: VecValue, indices, value, element_type) -> None:
    if len(indices) == 1:
        vec.components[indices[0]] = convert_scalar(value, element_type)
        return
    if not isinstance(value, VecValue):
        raise KernelFault("assigning a scalar to a multi-component swizzle")
    for target_index, component in zip(indices, value.components):
        vec.components[target_index] = convert_scalar(component, element_type)


def _vecnew(target: VectorType, parts) -> VecValue:
    components: List = []
    for part in parts:
        if isinstance(part, VecValue):
            components.extend(part.components)
        else:
            components.append(part)
    if len(components) == 1 and target.width > 1:
        components = components * target.width
    return VecValue(target.element, components)


def _zerovec(ctype: VectorType) -> VecValue:
    return VecValue(ctype.element, [0] * ctype.width)


def _mk_array(ctype: ArrayType, init_values) -> ArrayRef:
    pointer = allocate(ctype.base_element(), ctype.flat_length(), "private")
    if init_values is not None:
        base = ctype.base_element()
        for i, value in enumerate(init_values):
            pointer.array[i] = convert_scalar(value, base)
    return ArrayRef(pointer, ctype.element)


def _ptr_eq(a, b) -> bool:
    return isinstance(a, Pointer) and isinstance(b, Pointer) and a.array is b.array and a.offset == b.offset


class _NullPointerSentinel:
    def __getattr__(self, name):
        raise KernelFault("use of an uninitialized (null) pointer")


_NULLPTR = _NullPointerSentinel()


def _sw(bits: int):
    half = 1 << (bits - 1)
    full = 1 << bits

    def wrap(value: int) -> int:
        return ((int(value) + half) & (full - 1)) - half

    return wrap


def _runtime_namespace() -> Dict[str, object]:
    return {
        "_sw8": _sw(8),
        "_sw16": _sw(16),
        "_sw32": _sw(32),
        "_sw64": _sw(64),
        "_idiv": c_idiv,
        "_imod": c_imod,
        "_fdiv": c_fdiv,
        "_binv": binary_value,
        "_cmpv": compare_value,
        "_unaryv": _unary_vector,
        "_applyb": apply_builtin,
        "_vswiz": _vswiz,
        "_vset": _vset,
        "_vecnew": _vecnew,
        "_zerovec": _zerovec,
        "_mk_array": _mk_array,
        "_copyv": copy_value,
        "_cvt": convert_value,
        "_cvv": convert_value,
        "_ptr_eq": _ptr_eq,
        "_KernelFault": KernelFault,
        "_NULLPTR": _NULLPTR,
        # Folded float constants are emitted via repr(), which renders
        # non-finite values as the bare names inf/nan.
        "inf": float("inf"),
        "nan": float("nan"),
    }


def _unary_vector(ctype: VectorType, op: str, operand) -> VecValue:
    from .ctypes_ import wrap_int

    if not isinstance(operand, VecValue):
        operand = VecValue(ctype.element, [operand] * ctype.width)
    element = ctype.element
    if op == "-":
        return VecValue(element, [-c for c in operand.components])
    if op == "~":
        return VecValue(element, [wrap_int(~int(c), element) for c in operand.components])
    if op == "!":
        return VecValue(element, [0 if c else 1 for c in operand.components])
    return VecValue(element, list(operand.components))


def compile_program(program: ast.Program) -> CompiledProgram:
    """Compile a checked program to Python functions."""
    return _ProgramCompiler(program).compile()
