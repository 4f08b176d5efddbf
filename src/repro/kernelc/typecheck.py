"""Semantic analysis for the OpenCL-C subset.

The checker walks each function, maintains lexical scopes, assigns every
expression node a ``ctype`` and ``is_lvalue`` flag, resolves calls
(builtin or user) and enforces the C/OpenCL typing rules the backends
rely on:

* usual arithmetic conversions, integer promotions,
* pointer arithmetic (``p + i``, ``p - p``, ``p[i]``, ``*p``, ``&x``),
* vector component access and swizzles,
* assignment/lvalue/const rules,
* kernel rules (void return, pointer params must name an address space),
* ``barrier()`` only in kernel function bodies (the execution model
  synchronizes at kernel top-level statements).

Annotations added to nodes (consumed by the backends):

* ``Expr.ctype``, ``Expr.is_lvalue``
* ``BinaryOp.op_type`` — the computation type of the operation; on a
  compound ``Assignment`` the one of ``target op value``
* ``Call.kind`` (``'builtin'``/``'user'``), ``Call.resolved``
  (:class:`ResolvedBuiltin`) or ``Call.callee_def`` (FunctionDef)
* ``Identifier.symbol`` or ``Identifier.constant_value``
* ``Member.indices`` — decoded vector component indices
* ``Program.uses_barrier``, ``FunctionDef.uses_barrier``
"""

from __future__ import annotations

from typing import Dict, List, Optional

from . import ast
from .builtins import BUILTIN_CONSTANTS, BuiltinError, resolve_builtin
from .ctypes_ import (
    ArrayType,
    CHAR,
    CType,
    DOUBLE,
    FLOAT,
    INT,
    LONG,
    PointerType,
    ScalarType,
    UINT,
    VOID,
    VectorType,
    common_type,
    integer_promote,
)
from .diagnostics import DiagnosticSink
from .source import SourceFile
from .symbols import Scope, Symbol
from .values import component_indices

_INT_ONLY_OPS = frozenset(["%", "<<", ">>", "&", "|", "^"])
_COMPARISON_OPS = frozenset(["<", ">", "<=", ">=", "==", "!="])
_LOGICAL_OPS = frozenset(["&&", "||"])


class TypeChecker:
    def __init__(self, program: ast.Program, source: Optional[SourceFile] = None,
                 sink: Optional[DiagnosticSink] = None):
        self.program = program
        self.sink = sink if sink is not None else DiagnosticSink(source)
        self.functions: Dict[str, ast.FunctionDef] = {}
        self.globals_scope = Scope()
        self.current_function: Optional[ast.FunctionDef] = None
        self.loop_depth = 0
        self.switch_depth = 0

    # -- driver ------------------------------------------------------------

    def check(self) -> ast.Program:
        self._collect_signatures()
        for global_decl in self.program.globals:
            self._check_global(global_decl)
        for function in self.program.functions:
            self._check_function(function)
        self.program.uses_barrier = any(
            getattr(fn, "uses_barrier", False) for fn in self.program.functions
        )
        self.sink.check()
        return self.program

    def _collect_signatures(self) -> None:
        for function in list(self.program.functions) + list(self.program.prototypes):
            existing = self.functions.get(function.name)
            if existing is not None and existing.body is not None and function.body is not None:
                self.sink.error(f"redefinition of function {function.name!r}", function.span)
                continue
            if existing is None or function.body is not None:
                self.functions[function.name] = function
            if resolve_is_builtin(function.name):
                self.sink.error(
                    f"function {function.name!r} shadows an OpenCL builtin", function.span
                )

    def _check_global(self, global_decl: ast.GlobalDecl) -> None:
        decl = global_decl.decl
        if decl.init is not None:
            self._check_initializer(decl)
        symbol = Symbol(decl.name, decl.declared_type, "global", "constant", True)
        if not self.globals_scope.declare(symbol):
            self.sink.error(f"redefinition of global {decl.name!r}", decl.span)

    # -- functions -----------------------------------------------------------

    def _check_function(self, function: ast.FunctionDef) -> None:
        self.current_function = function
        function.uses_barrier = False
        scope = self.globals_scope.child()

        if function.is_kernel and not function.return_type.is_void():
            self.sink.error("a __kernel function must return void", function.span)

        seen: set = set()
        for param in function.params:
            if not param.name:
                self.sink.error("unnamed function parameter", param.span)
                continue
            if param.name in seen:
                self.sink.error(f"duplicate parameter name {param.name!r}", param.span)
            seen.add(param.name)
            ctype = param.declared_type
            if function.is_kernel and isinstance(ctype, PointerType) and ctype.address_space == "private":
                self.sink.error(
                    f"kernel pointer parameter {param.name!r} must be __global, __local or __constant",
                    param.span,
                )
            space = ctype.address_space if isinstance(ctype, PointerType) else "private"
            scope.declare(Symbol(param.name, ctype, "param", space, isinstance(ctype, PointerType) and ctype.is_const))

        if function.body is not None:
            self._check_compound(function.body, scope, new_scope=False)
        self.current_function = None

    # -- statements ----------------------------------------------------------

    def _check_stmt(self, stmt: ast.Stmt, scope: Scope) -> None:
        if isinstance(stmt, ast.CompoundStmt):
            self._check_compound(stmt, scope)
        elif isinstance(stmt, ast.DeclStmt):
            for decl in stmt.decls:
                self._check_decl(decl, scope)
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                if isinstance(stmt.expr, ast.Call) and stmt.expr.callee == "barrier":
                    # Mark before checking: barrier() resolution verifies
                    # it appears as a standalone statement.
                    stmt.expr.at_statement_level = True
                self._check_expr(stmt.expr, scope)
        elif isinstance(stmt, ast.IfStmt):
            self._check_condition(stmt.condition, scope)
            self._check_stmt(stmt.then_branch, scope)
            if stmt.else_branch is not None:
                self._check_stmt(stmt.else_branch, scope)
        elif isinstance(stmt, ast.ForStmt):
            inner = scope.child()
            if stmt.init is not None:
                self._check_stmt(stmt.init, inner)
            if stmt.condition is not None:
                self._check_condition(stmt.condition, inner)
            if stmt.increment is not None:
                self._check_expr(stmt.increment, inner)
            self.loop_depth += 1
            self._check_stmt(stmt.body, inner)
            self.loop_depth -= 1
        elif isinstance(stmt, ast.WhileStmt):
            self._check_condition(stmt.condition, scope)
            self.loop_depth += 1
            self._check_stmt(stmt.body, scope)
            self.loop_depth -= 1
        elif isinstance(stmt, ast.DoStmt):
            self.loop_depth += 1
            self._check_stmt(stmt.body, scope)
            self.loop_depth -= 1
            self._check_condition(stmt.condition, scope)
        elif isinstance(stmt, ast.ReturnStmt):
            self._check_return(stmt, scope)
        elif isinstance(stmt, ast.BreakStmt):
            if self.loop_depth == 0 and self.switch_depth == 0:
                self.sink.error("'break' outside of a loop or switch", stmt.span)
        elif isinstance(stmt, ast.ContinueStmt):
            if self.loop_depth == 0:
                self.sink.error("'continue' outside of a loop", stmt.span)
        elif isinstance(stmt, ast.SwitchStmt):
            self._check_switch(stmt, scope)
        else:  # pragma: no cover
            raise AssertionError(f"unhandled statement {type(stmt).__name__}")

    def _check_compound(self, stmt: ast.CompoundStmt, scope: Scope, new_scope: bool = True) -> None:
        inner = scope.child() if new_scope else scope
        for child in stmt.statements:
            self._check_stmt(child, inner)

    def _check_decl(self, decl: ast.VarDecl, scope: Scope) -> None:
        ctype = decl.declared_type
        if ctype.is_void():
            self.sink.error(f"variable {decl.name!r} has void type", decl.span)
            return
        if isinstance(ctype, ArrayType) and decl.address_space not in ("private", "local", "constant"):
            self.sink.error("arrays may live in __private, __local or __constant memory", decl.span)
        if decl.address_space == "local" and (self.current_function is None or not self.current_function.is_kernel):
            self.sink.error("__local variables may only be declared in kernel functions", decl.span)
        if decl.init is not None:
            if decl.address_space == "local":
                self.sink.error("__local variables cannot have initializers", decl.span)
            self._check_initializer(decl, scope)
        if not scope.declare(Symbol(decl.name, ctype, "var", decl.address_space, decl.is_const)):
            self.sink.error(f"redeclaration of {decl.name!r}", decl.span)

    def _check_initializer(self, decl: ast.VarDecl, scope: Optional[Scope] = None) -> None:
        scope = scope if scope is not None else self.globals_scope
        init = decl.init
        ctype = decl.declared_type
        if isinstance(init, ast.VectorLiteral) and init.is_array_initializer:
            if not isinstance(ctype, ArrayType):
                self.sink.error("brace initializer requires an array type", init.span)
                return
            self._check_array_initializer(init, ctype, scope)
            init.ctype = ctype
            return
        init_type = self._check_expr(init, scope)
        if init_type is None:
            return
        if not self._convertible(init_type, ctype):
            self.sink.error(f"cannot initialize {ctype} with a value of type {init_type}", init.span)

    def _check_array_initializer(self, init: ast.VectorLiteral, ctype: ArrayType, scope: Scope) -> None:
        if len(init.elements) > ctype.length:
            self.sink.error(
                f"too many initializers for {ctype} ({len(init.elements)} > {ctype.length})", init.span
            )
        for element in init.elements:
            if isinstance(element, ast.VectorLiteral) and element.is_array_initializer:
                if isinstance(ctype.element, ArrayType):
                    self._check_array_initializer(element, ctype.element, scope)
                    element.ctype = ctype.element
                else:
                    self.sink.error("nested brace initializer for a non-array element", element.span)
                continue
            element_type = self._check_expr(element, scope)
            target = ctype.element
            while isinstance(target, ArrayType):
                target = target.element
            if element_type is not None and not self._convertible(element_type, target):
                self.sink.error(f"cannot initialize {target} with {element_type}", element.span)

    def _check_return(self, stmt: ast.ReturnStmt, scope: Scope) -> None:
        function = self.current_function
        assert function is not None
        expected = function.return_type
        if stmt.value is None:
            if not expected.is_void():
                self.sink.error(f"non-void function {function.name!r} must return a value", stmt.span)
            return
        if expected.is_void():
            self.sink.error(f"void function {function.name!r} cannot return a value", stmt.span)
            return
        actual = self._check_expr(stmt.value, scope)
        if actual is not None and not self._convertible(actual, expected):
            self.sink.error(f"cannot return {actual} from a function returning {expected}", stmt.value.span)

    def _check_switch(self, stmt: ast.SwitchStmt, scope: Scope) -> None:
        subject_type = self._check_expr(stmt.subject, scope)
        if subject_type is not None and not (isinstance(subject_type, ScalarType) and subject_type.is_integer()):
            self.sink.error(f"switch subject must have integer type, got {subject_type}", stmt.subject.span)
        seen_default = False
        self.switch_depth += 1
        for case in stmt.cases:
            if case.value is None:
                if seen_default:
                    self.sink.error("duplicate 'default' label", case.span)
                seen_default = True
            else:
                value_type = self._check_expr(case.value, scope)
                if value_type is not None and not (isinstance(value_type, ScalarType) and value_type.is_integer()):
                    self.sink.error("case label must be an integer constant", case.span)
            inner = scope.child()
            for child in case.body:
                self._check_stmt(child, inner)
        self.switch_depth -= 1

    def _check_condition(self, expr: ast.Expr, scope: Scope) -> None:
        ctype = self._check_expr(expr, scope)
        if ctype is None:
            return
        if not (isinstance(ctype, ScalarType) and ctype.is_arithmetic()) and not ctype.is_pointer():
            self.sink.error(f"condition must have scalar type, got {ctype}", expr.span)

    # -- expressions ----------------------------------------------------------

    def _check_expr(self, expr: ast.Expr, scope: Scope) -> Optional[CType]:
        method = getattr(self, f"_expr_{type(expr).__name__}", None)
        if method is None:  # pragma: no cover
            raise AssertionError(f"unhandled expression {type(expr).__name__}")
        ctype = method(expr, scope)
        expr.ctype = ctype
        return ctype

    def _decay(self, expr: ast.Expr) -> Optional[CType]:
        """Array-to-pointer decay for an already-checked expression."""
        ctype = expr.ctype
        if isinstance(ctype, ArrayType):
            symbol = getattr(expr, "symbol", None)
            space = symbol.address_space if symbol is not None else "private"
            return PointerType(ctype.element, space)
        return ctype

    def _expr_IntLiteral(self, expr: ast.IntLiteral, scope: Scope) -> CType:
        expr.is_lvalue = False
        if "u" in expr.suffix and "l" in expr.suffix:
            return SCALAR("ulong")
        if "l" in expr.suffix:
            return LONG
        if "u" in expr.suffix:
            return UINT
        if expr.value > 2147483647:
            return LONG
        return INT

    def _expr_FloatLiteral(self, expr: ast.FloatLiteral, scope: Scope) -> CType:
        expr.is_lvalue = False
        return FLOAT if expr.suffix == "f" else DOUBLE

    def _expr_CharLiteral(self, expr: ast.CharLiteral, scope: Scope) -> CType:
        expr.is_lvalue = False
        return CHAR

    def _expr_StringLiteral(self, expr: ast.StringLiteral, scope: Scope) -> Optional[CType]:
        self.sink.error("string literals are not supported in expressions", expr.span)
        return None

    def _expr_Identifier(self, expr: ast.Identifier, scope: Scope) -> Optional[CType]:
        symbol = scope.lookup(expr.name)
        if symbol is not None:
            expr.symbol = symbol
            expr.is_lvalue = not isinstance(symbol.ctype, ArrayType)
            return symbol.ctype
        if expr.name in BUILTIN_CONSTANTS:
            value = BUILTIN_CONSTANTS[expr.name]
            expr.constant_value = value
            expr.is_lvalue = False
            if isinstance(value, float):
                return FLOAT if expr.name.endswith("_F") or expr.name.startswith("FLT") or expr.name == "MAXFLOAT" else DOUBLE
            return UINT if expr.name.startswith("CLK_") else (LONG if abs(value) > 2147483647 else INT)
        self.sink.error(f"use of undeclared identifier {expr.name!r}", expr.span)
        return None

    def _expr_UnaryOp(self, expr: ast.UnaryOp, scope: Scope) -> Optional[CType]:
        operand_type = self._check_expr(expr.operand, scope)
        if operand_type is None:
            return None
        op = expr.op
        if op in ("++", "--"):
            return self._check_incdec(expr.operand, operand_type)
        if op == "*":
            decayed = self._decay(expr.operand)
            if not isinstance(decayed, PointerType):
                self.sink.error(f"cannot dereference non-pointer type {operand_type}", expr.span)
                return None
            expr.is_lvalue = True
            return decayed.pointee
        if op == "&":
            if not expr.operand.is_lvalue:
                self.sink.error("cannot take the address of an rvalue", expr.span)
                return None
            symbol = getattr(expr.operand, "symbol", None)
            space = symbol.address_space if symbol is not None else "private"
            if isinstance(expr.operand, (ast.Index, ast.UnaryOp)):
                base_ptr = self._pointer_base_type(expr.operand)
                if base_ptr is not None:
                    space = base_ptr.address_space
            return PointerType(operand_type, space)
        if op == "!":
            if not self._is_scalar_condition(operand_type):
                self.sink.error(f"invalid operand type {operand_type} to '!'", expr.span)
                return None
            return INT
        if op == "~":
            if isinstance(operand_type, VectorType) and operand_type.element.is_integer():
                return operand_type
            if not (isinstance(operand_type, ScalarType) and operand_type.is_integer()):
                self.sink.error(f"invalid operand type {operand_type} to '~'", expr.span)
                return None
            return integer_promote(operand_type)
        if op in ("+", "-"):
            if isinstance(operand_type, VectorType):
                return operand_type
            if not (isinstance(operand_type, ScalarType) and operand_type.is_arithmetic()):
                self.sink.error(f"invalid operand type {operand_type} to unary '{op}'", expr.span)
                return None
            return integer_promote(operand_type) if operand_type.is_integer() else operand_type
        raise AssertionError(f"unhandled unary operator {op}")  # pragma: no cover

    def _pointer_base_type(self, expr: ast.Expr) -> Optional[PointerType]:
        """The pointer type an lvalue was formed through, if any."""
        if isinstance(expr, ast.Index):
            base = self._decay(expr.base)
            return base if isinstance(base, PointerType) else None
        if isinstance(expr, ast.UnaryOp) and expr.op == "*":
            decayed = self._decay(expr.operand)
            return decayed if isinstance(decayed, PointerType) else None
        return None

    def _check_incdec(self, operand: ast.Expr, operand_type: CType) -> Optional[CType]:
        if not operand.is_lvalue:
            self.sink.error("operand of '++'/'--' must be an lvalue", operand.span)
            return None
        if isinstance(operand_type, PointerType):
            return operand_type
        if isinstance(operand_type, ScalarType) and operand_type.is_arithmetic():
            return operand_type
        self.sink.error(f"invalid operand type {operand_type} to '++'/'--'", operand.span)
        return None

    def _expr_PostfixOp(self, expr: ast.PostfixOp, scope: Scope) -> Optional[CType]:
        operand_type = self._check_expr(expr.operand, scope)
        if operand_type is None:
            return None
        return self._check_incdec(expr.operand, operand_type)

    def _is_scalar_condition(self, ctype: CType) -> bool:
        return (isinstance(ctype, ScalarType) and ctype.is_arithmetic()) or ctype.is_pointer()

    def _expr_BinaryOp(self, expr: ast.BinaryOp, scope: Scope) -> Optional[CType]:
        left_type = self._check_expr(expr.left, scope)
        right_type = self._check_expr(expr.right, scope)
        if left_type is None or right_type is None:
            return None
        left_type = self._decay(expr.left)
        right_type = self._decay(expr.right)
        op = expr.op

        if op in _LOGICAL_OPS:
            for side, ctype in ((expr.left, left_type), (expr.right, right_type)):
                if not self._is_scalar_condition(ctype):
                    self.sink.error(f"invalid operand type {ctype} to '{op}'", side.span)
                    return None
            expr.op_type = INT
            return INT

        # Pointer arithmetic.
        if isinstance(left_type, PointerType) or isinstance(right_type, PointerType):
            return self._check_pointer_binary(expr, left_type, right_type)

        if op in _COMPARISON_OPS:
            operand_common = self._arithmetic_type(expr, op, left_type, right_type)
            if operand_common is None:
                return None
            expr.op_type = operand_common
            if isinstance(operand_common, VectorType):
                # OpenCL: vector comparisons yield a signed integer vector.
                return VectorType(INT if operand_common.element.sizeof() <= 4 else LONG, operand_common.width)
            return INT

        if op in _INT_ONLY_OPS:
            for side, ctype in ((expr.left, left_type), (expr.right, right_type)):
                element = ctype.element if isinstance(ctype, VectorType) else ctype
                if not (isinstance(element, ScalarType) and element.is_integer()):
                    self.sink.error(f"invalid operand type {ctype} to '{op}'", side.span)
                    return None

        result = self._arithmetic_type(expr, op, left_type, right_type)
        expr.op_type = result
        return result

    def _arithmetic_type(self, expr: ast.Expr, op: str, left_type: CType,
                         right_type: CType) -> Optional[CType]:
        """The type ``left op right`` computes in: the usual arithmetic
        conversions, except that a shift computes in its promoted left
        operand's type."""
        if op in ("<<", ">>") and not isinstance(left_type, VectorType):
            return integer_promote(left_type)
        try:
            return common_type(left_type, right_type)
        except TypeError as exc:
            self.sink.error(str(exc), expr.span)
            return None

    def _check_pointer_binary(self, expr: ast.BinaryOp, left_type: CType, right_type: CType) -> Optional[CType]:
        op = expr.op
        left_ptr = isinstance(left_type, PointerType)
        right_ptr = isinstance(right_type, PointerType)
        if op in _COMPARISON_OPS:
            if left_ptr and right_ptr:
                expr.op_type = left_type
                return INT
            self.sink.error("comparison between pointer and non-pointer", expr.span)
            return None
        if op == "-" and left_ptr and right_ptr:
            expr.op_type = left_type
            return LONG
        if op == "+" and left_ptr != right_ptr:
            pointer = left_type if left_ptr else right_type
            other = right_type if left_ptr else left_type
            if isinstance(other, ScalarType) and other.is_integer():
                expr.op_type = pointer
                return pointer
        if op == "-" and left_ptr and isinstance(right_type, ScalarType) and right_type.is_integer():
            expr.op_type = left_type
            return left_type
        self.sink.error(f"invalid pointer operation: {left_type} {op} {right_type}", expr.span)
        return None

    def _expr_Assignment(self, expr: ast.Assignment, scope: Scope) -> Optional[CType]:
        target_type = self._check_expr(expr.target, scope)
        value_type = self._check_expr(expr.value, scope)
        if target_type is None or value_type is None:
            return None
        if not expr.target.is_lvalue:
            self.sink.error("assignment target is not an lvalue", expr.target.span)
            return None
        symbol = getattr(expr.target, "symbol", None)
        if symbol is not None and symbol.is_const and not isinstance(symbol.ctype, PointerType):
            self.sink.error(f"assignment to const variable {symbol.name!r}", expr.span)
        value_decayed = self._decay(expr.value)
        if expr.op == "=":
            if not self._convertible(value_decayed, target_type):
                self.sink.error(f"cannot assign {value_decayed} to {target_type}", expr.span)
        else:
            # ``a op= b`` is ``a = a op b``: op_type is what that operation
            # computes in; the engines convert its result back to the target.
            base_op = expr.op[:-1]
            if isinstance(target_type, PointerType):
                if base_op not in ("+", "-") or not (
                    isinstance(value_decayed, ScalarType) and value_decayed.is_integer()
                ):
                    self.sink.error(f"invalid compound assignment to pointer: '{expr.op}'", expr.span)
                expr.op_type = target_type
            else:
                element = target_type.element if isinstance(target_type, VectorType) else target_type
                if base_op in _INT_ONLY_OPS and not (isinstance(element, ScalarType) and element.is_integer()):
                    self.sink.error(f"invalid operand type {target_type} to '{expr.op}'", expr.span)
                if not self._convertible(value_decayed, target_type):
                    self.sink.error(f"cannot apply '{expr.op}' with {value_decayed} to {target_type}", expr.span)
                else:
                    expr.op_type = self._arithmetic_type(expr, base_op, target_type, value_decayed)
        return target_type

    def _expr_Conditional(self, expr: ast.Conditional, scope: Scope) -> Optional[CType]:
        self._check_condition(expr.condition, scope)
        then_type = self._check_expr(expr.then_expr, scope)
        else_type = self._check_expr(expr.else_expr, scope)
        if then_type is None or else_type is None:
            return None
        then_type = self._decay(expr.then_expr)
        else_type = self._decay(expr.else_expr)
        if isinstance(then_type, PointerType) and isinstance(else_type, PointerType):
            if then_type.pointee != else_type.pointee:
                self.sink.error("pointer type mismatch in conditional expression", expr.span)
                return None
            return then_type
        try:
            return common_type(then_type, else_type)
        except TypeError as exc:
            self.sink.error(str(exc), expr.span)
            return None

    def _expr_Call(self, expr: ast.Call, scope: Scope) -> Optional[CType]:
        arg_types: List[Optional[CType]] = []
        for arg in expr.args:
            self._check_expr(arg, scope)
            arg_types.append(self._decay(arg))
        if any(t is None for t in arg_types):
            return None

        # A local symbol never shadows function names in this subset (no
        # function pointers), so calls resolve by name: user first (the
        # checker already rejects user functions shadowing builtins).
        target = self.functions.get(expr.callee)
        if target is not None:
            return self._check_user_call(expr, target, arg_types)
        try:
            resolved = resolve_builtin(expr.callee, arg_types)
        except BuiltinError as exc:
            self.sink.error(str(exc), expr.span)
            return None
        if resolved is None:
            self.sink.error(f"call to undeclared function {expr.callee!r}", expr.span)
            return None
        expr.kind = "builtin"
        expr.resolved = resolved
        if resolved.kind == "barrier":
            self._check_barrier_context(expr)
        return resolved.result_type

    def _check_barrier_context(self, expr: ast.Call) -> None:
        function = self.current_function
        if function is None or not function.is_kernel:
            self.sink.error(
                "barrier() may only be used in __kernel functions "
                "(helper functions execute per work-item without synchronization)",
                expr.span,
            )
            return
        if not getattr(expr, "at_statement_level", False):
            self.sink.error("barrier() must be used as a standalone statement", expr.span)
            return
        function.uses_barrier = True

    def _check_user_call(self, expr: ast.Call, target: ast.FunctionDef,
                         arg_types: List[CType]) -> Optional[CType]:
        expr.kind = "user"
        expr.callee_def = target
        if target.is_kernel:
            self.sink.error(f"cannot call __kernel function {target.name!r} from a kernel", expr.span)
            return None
        if len(arg_types) != len(target.params):
            self.sink.error(
                f"{target.name}() expects {len(target.params)} argument(s), got {len(arg_types)}",
                expr.span,
            )
            return None
        for arg, arg_type, param in zip(expr.args, arg_types, target.params):
            if not self._convertible(arg_type, param.declared_type):
                self.sink.error(
                    f"cannot pass {arg_type} for parameter {param.name!r} of type {param.declared_type}",
                    arg.span,
                )
        return target.return_type

    def _expr_Index(self, expr: ast.Index, scope: Scope) -> Optional[CType]:
        base_type = self._check_expr(expr.base, scope)
        index_type = self._check_expr(expr.index, scope)
        if base_type is None or index_type is None:
            return None
        if not (isinstance(index_type, ScalarType) and index_type.is_integer()):
            self.sink.error(f"array index must be an integer, got {index_type}", expr.index.span)
            return None
        if isinstance(base_type, ArrayType):
            expr.is_lvalue = True
            # Propagate the owning symbol for address-space tracking.
            symbol = getattr(expr.base, "symbol", None)
            if symbol is not None:
                expr.symbol = symbol
            return base_type.element
        decayed = self._decay(expr.base)
        if isinstance(decayed, PointerType):
            expr.is_lvalue = True
            return decayed.pointee
        self.sink.error(f"cannot index a value of type {base_type}", expr.span)
        return None

    def _expr_Member(self, expr: ast.Member, scope: Scope) -> Optional[CType]:
        base_type = self._check_expr(expr.base, scope)
        if base_type is None:
            return None
        if not isinstance(base_type, VectorType):
            self.sink.error(f"member access on non-vector type {base_type}", expr.span)
            return None
        try:
            indices = component_indices(expr.member, base_type.width)
        except ValueError as exc:
            self.sink.error(str(exc), expr.span)
            return None
        expr.indices = indices
        expr.is_lvalue = expr.base.is_lvalue and len(set(indices)) == len(indices)
        if len(indices) == 1:
            return base_type.element
        return VectorType(base_type.element, len(indices))

    def _expr_Cast(self, expr: ast.Cast, scope: Scope) -> Optional[CType]:
        operand_type = self._check_expr(expr.operand, scope)
        if operand_type is None:
            return None
        operand_type = self._decay(expr.operand)
        target = expr.target_type
        if isinstance(target, PointerType):
            if not isinstance(operand_type, PointerType):
                self.sink.error(f"cannot cast {operand_type} to pointer type {target}", expr.span)
                return None
            return target
        if isinstance(operand_type, PointerType):
            self.sink.error(f"cannot cast pointer to {target}", expr.span)
            return None
        if isinstance(target, VectorType):
            if isinstance(operand_type, VectorType):
                if operand_type.width != target.width:
                    self.sink.error(f"cannot cast {operand_type} to {target} (width mismatch)", expr.span)
                    return None
                return target
            return target  # scalar broadcast
        if isinstance(operand_type, VectorType):
            self.sink.error(f"cannot cast vector {operand_type} to scalar {target}", expr.span)
            return None
        if target.is_void():
            return VOID
        return target

    def _expr_VectorLiteral(self, expr: ast.VectorLiteral, scope: Scope) -> Optional[CType]:
        target = expr.target_type
        assert isinstance(target, VectorType)
        total = 0
        for element in expr.elements:
            element_type = self._check_expr(element, scope)
            if element_type is None:
                return None
            if isinstance(element_type, VectorType):
                total += element_type.width
            elif isinstance(element_type, ScalarType) and element_type.is_arithmetic():
                total += 1
            else:
                self.sink.error(f"invalid vector literal element of type {element_type}", element.span)
                return None
        if total != target.width and not (len(expr.elements) == 1 and total == 1):
            self.sink.error(
                f"vector literal for {target} has {total} component(s), expected {target.width}",
                expr.span,
            )
            return None
        return target

    def _expr_SizeofExpr(self, expr: ast.SizeofExpr, scope: Scope) -> Optional[CType]:
        if expr.operand is not None:
            self._check_expr(expr.operand, scope)
        return UINT

    def _expr_CommaExpr(self, expr: ast.CommaExpr, scope: Scope) -> Optional[CType]:
        result: Optional[CType] = None
        for part in expr.parts:
            result = self._check_expr(part, scope)
        return result

    # -- conversions ----------------------------------------------------------

    def _convertible(self, source: Optional[CType], target: CType) -> bool:
        if source is None:
            return True  # already reported
        if source == target:
            return True
        source_element = source.element if isinstance(source, VectorType) else source
        target_element = target.element if isinstance(target, VectorType) else target
        if isinstance(source, VectorType) != isinstance(target, VectorType):
            # scalar -> vector broadcast is allowed; vector -> scalar is not
            if isinstance(source, VectorType):
                return False
            return (
                isinstance(target, VectorType)
                and isinstance(source_element, ScalarType)
                and source_element.is_arithmetic()
            )
        if isinstance(source, VectorType) and isinstance(target, VectorType):
            return source.width == target.width
        if isinstance(source, ScalarType) and isinstance(target, ScalarType):
            return source.is_arithmetic() and target.is_arithmetic()
        if isinstance(source, PointerType) and isinstance(target, PointerType):
            if source.pointee != target.pointee and not target.pointee.is_void() and not source.pointee.is_void():
                return False
            # A __private-qualified pointer parameter acts as a generic
            # pointer (any address space converts to it), which is how
            # customizing functions like ``float func(float* m)`` accept
            # __global data — cf. OpenCL 2.0's generic address space.
            if source.address_space != target.address_space and target.address_space != "private":
                return False
            return True  # dropping const on a copy of the pointer is C-legal enough here
        return False


def SCALAR(name: str) -> ScalarType:
    from .ctypes_ import SCALAR_TYPES

    return SCALAR_TYPES[name]


def resolve_is_builtin(name: str) -> bool:
    from .builtins import is_builtin_name

    return is_builtin_name(name)


def typecheck(program: ast.Program, source: Optional[SourceFile] = None) -> ast.Program:
    """Type-check ``program`` in place; raises ``CompileError`` on errors."""
    return TypeChecker(program, source).check()
