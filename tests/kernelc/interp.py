"""Reference tree-walking interpreter for checked kernelc programs: the
test oracle (``from tests.kernelc.interp import Interpreter, Machine``).

The interpreter executes one work-item at a time.  Statement execution is
generator-based so that ``barrier()`` can suspend a work-item: executing
a kernel yields ``('barrier', flags)`` events which the test drivers use
to phase-synchronize a work-group.  Helper (non-kernel) functions
cannot barrier (enforced by the type checker) and run to completion.

This engine is the semantic reference the generated engines
(:mod:`repro.kernelc.compiler`, :mod:`repro.kernelc.vectorize`) are
differentially tested against: it converts after every operation, where
they relax (see ``compiler.py``).  It holds the tree walk only — values,
memory, operators, builtins and launch storage are the library the
engines run on (:mod:`repro.kernelc.values`, ``memory``, ``execmodel``,
``builtins``) — and no launch runs on it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.kernelc import ast
from repro.kernelc.builtins import ResolvedBuiltin, apply_builtin
from repro.kernelc.ctypes_ import (
    ArrayType,
    CType,
    PointerType,
    ScalarType,
    VectorType,
    convert_scalar,
    wrap_int,
)
from repro.kernelc.execmodel import (
    ExecutionCounters,
    WorkItemContext,
    binary_value,
    compare_value,
    constant_globals,
    convert_value,
    copy_value,
    scalar_compare,
    truthy,
)
from repro.kernelc.memory import (NULL_POINTER, ArrayRef, KernelFault, Pointer, allocate_array,
                     flatten_initializer, same_pointer)
from repro.kernelc.values import VecValue


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value):
        self.value = value
        super().__init__()


class Machine:
    """Shared interpreter state for one kernel launch."""

    def __init__(self, program: ast.Program, counters: Optional[ExecutionCounters] = None):
        self.program = program
        self.counters = counters if counters is not None else ExecutionCounters()
        self.functions = {fn.name: fn for fn in program.functions}
        self.globals: Dict[str, object] = {}
        interp = Interpreter(self, WorkItemContext((0,), (0,), (0,), (1,), (1,)), {})
        for name, value in constant_globals(program, lambda init: interp.eval(init, _Env()),
                                            self.counters.memory):
            self.globals[name] = value


class _Env:
    """A stack of lexical scopes holding runtime variable values."""

    __slots__ = ("scopes",)

    def __init__(self):
        self.scopes: List[Dict[str, object]] = [{}]

    def push(self) -> None:
        self.scopes.append({})

    def pop(self) -> None:
        self.scopes.pop()

    def declare(self, name: str, value) -> None:
        self.scopes[-1][name] = value

    def lookup(self, name: str):
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        raise KeyError(name)

    def assign(self, name: str, value) -> None:
        for scope in reversed(self.scopes):
            if name in scope:
                scope[name] = value
                return
        raise KeyError(name)


class _LValue:
    """A resolved assignable location."""

    __slots__ = ("kind", "env", "name", "pointer", "index", "vec", "indices", "writeback")

    def __init__(self, kind, env=None, name=None, pointer=None, index=None, vec=None,
                 indices=None, writeback=None):
        self.kind = kind
        self.env = env
        self.name = name
        self.pointer = pointer
        self.index = index
        self.vec = vec
        self.indices = indices
        # For component stores through memory: the base lvalue to write
        # the mutated vector back into.
        self.writeback = writeback

    def load(self):
        if self.kind == "var":
            return self.env.lookup(self.name)
        if self.kind == "mem":
            return self.pointer.load(self.index)
        if self.kind == "vec":
            return _components(self.vec, self.indices)
        raise AssertionError(self.kind)  # pragma: no cover

    def store(self, value) -> None:
        if self.kind == "var":
            self.env.assign(self.name, copy_value(value))
        elif self.kind == "mem":
            self.pointer.store(self.index, value)
        elif self.kind == "vec":
            self.vec.store_components(self.indices, value)
            if self.writeback is not None:
                self.writeback.store(self.vec)
        else:  # pragma: no cover
            raise AssertionError(self.kind)


class Interpreter:
    """Evaluates expressions and executes statements for one work-item."""

    def __init__(self, machine: Machine, ctx: WorkItemContext, local_memory: Dict[int, ArrayRef]):
        self.machine = machine
        self.counters = machine.counters
        self.ctx = ctx
        # Maps id(VarDecl) of __local declarations to group-shared storage.
        self.local_memory = local_memory

    # -- driving -----------------------------------------------------------

    def run_kernel(self, kernel: ast.FunctionDef, args: Sequence):
        """A generator executing ``kernel``; yields at barriers."""
        env = _Env()
        self._bind_params(kernel, args, env)
        try:
            yield from self.exec_stmt(kernel.body, env, new_scope=False)
        except _ReturnSignal:
            pass

    def call_function(self, function: ast.FunctionDef, args: Sequence):
        env = _Env()
        self._bind_params(function, args, env)
        try:
            for _ in self.exec_stmt(function.body, env, new_scope=False):
                raise KernelFault("barrier() inside a helper function")  # pragma: no cover
        except _ReturnSignal as signal:
            return convert_value(signal.value, function.return_type)
        if function.return_type.is_void():
            return None
        raise KernelFault(f"function {function.name!r} finished without returning a value")

    def _bind_params(self, function: ast.FunctionDef, args: Sequence, env: _Env) -> None:
        if len(args) != len(function.params):
            raise KernelFault(
                f"{function.name}() called with {len(args)} argument(s), expected {len(function.params)}"
            )
        for param, arg in zip(function.params, args):
            value = arg.decayed() if isinstance(arg, ArrayRef) else arg
            env.declare(param.name, copy_value(convert_value(value, param.declared_type)))

    # -- statements ----------------------------------------------------------

    def exec_stmt(self, stmt: ast.Stmt, env: _Env, new_scope: bool = True):
        if isinstance(stmt, ast.CompoundStmt):
            if new_scope:
                env.push()
            try:
                for child in stmt.statements:
                    yield from self.exec_stmt(child, env)
            finally:
                if new_scope:
                    env.pop()
        elif isinstance(stmt, ast.DeclStmt):
            for decl in stmt.decls:
                self._exec_decl(decl, env)
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is None:
                return
            if isinstance(stmt.expr, ast.Call) and getattr(stmt.expr, "kind", "") == "builtin" \
                    and stmt.expr.resolved.kind == "barrier":
                flags = self.eval(stmt.expr.args[0], env)
                self.counters.barriers += 1
                yield ("barrier", flags)
                return
            self.eval(stmt.expr, env)
        elif isinstance(stmt, ast.IfStmt):
            self.counters.ops += 1
            if truthy(self.eval(stmt.condition, env)):
                yield from self.exec_stmt(stmt.then_branch, env)
            elif stmt.else_branch is not None:
                yield from self.exec_stmt(stmt.else_branch, env)
        elif isinstance(stmt, ast.ForStmt):
            yield from self._exec_for(stmt, env)
        elif isinstance(stmt, ast.WhileStmt):
            while True:
                self.counters.ops += 1
                if not truthy(self.eval(stmt.condition, env)):
                    break
                try:
                    yield from self.exec_stmt(stmt.body, env)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
        elif isinstance(stmt, ast.DoStmt):
            while True:
                try:
                    yield from self.exec_stmt(stmt.body, env)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                self.counters.ops += 1
                if not truthy(self.eval(stmt.condition, env)):
                    break
        elif isinstance(stmt, ast.ReturnStmt):
            value = self.eval(stmt.value, env) if stmt.value is not None else None
            raise _ReturnSignal(value)
        elif isinstance(stmt, ast.BreakStmt):
            raise _BreakSignal()
        elif isinstance(stmt, ast.ContinueStmt):
            raise _ContinueSignal()
        elif isinstance(stmt, ast.SwitchStmt):
            yield from self._exec_switch(stmt, env)
        else:  # pragma: no cover
            raise AssertionError(f"unhandled statement {type(stmt).__name__}")

    def _exec_for(self, stmt: ast.ForStmt, env: _Env):
        env.push()
        try:
            if stmt.init is not None:
                for _ in self.exec_stmt(stmt.init, env, new_scope=False):
                    pass  # pragma: no cover - init cannot barrier
            while True:
                if stmt.condition is not None:
                    self.counters.ops += 1
                    if not truthy(self.eval(stmt.condition, env)):
                        break
                try:
                    yield from self.exec_stmt(stmt.body, env)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                if stmt.increment is not None:
                    self.eval(stmt.increment, env)
        finally:
            env.pop()

    def _exec_switch(self, stmt: ast.SwitchStmt, env: _Env):
        subject = self.eval(stmt.subject, env)
        self.counters.ops += 1
        matched = False
        try:
            for case in stmt.cases:
                if not matched:
                    if case.value is None:
                        continue
                    if self.eval(case.value, env) != subject:
                        continue
                    matched = True
                env.push()
                try:
                    for child in case.body:
                        yield from self.exec_stmt(child, env)
                finally:
                    env.pop()
            if not matched:
                # Re-scan for a default label (cases before it were skipped).
                running = False
                for case in stmt.cases:
                    if not running and case.value is not None:
                        continue
                    running = True
                    env.push()
                    try:
                        for child in case.body:
                            yield from self.exec_stmt(child, env)
                    finally:
                        env.pop()
        except _BreakSignal:
            pass

    def _exec_decl(self, decl: ast.VarDecl, env: _Env) -> None:
        ctype = decl.declared_type
        if decl.address_space == "local":
            storage = self.local_memory.get(id(decl))
            if storage is None:
                raise KernelFault(f"__local variable {decl.name!r} was not pre-allocated")
            env.declare(decl.name, storage)
            return
        if isinstance(ctype, ArrayType):
            values = flatten_initializer(decl.init) if decl.init is not None else None
            env.declare(decl.name, allocate_array(ctype, values))
            return
        if decl.init is not None:
            value = convert_value(self.eval(decl.init, env), ctype)
        else:
            value = _default_value(ctype)
        env.declare(decl.name, copy_value(value))

    # -- expressions ----------------------------------------------------------

    def eval(self, expr: ast.Expr, env: _Env):
        method = getattr(self, f"_eval_{type(expr).__name__}")
        return method(expr, env)

    def eval_lvalue(self, expr: ast.Expr, env: _Env) -> _LValue:
        if isinstance(expr, ast.Identifier):
            return _LValue("var", env=env, name=expr.name)
        if isinstance(expr, ast.Index):
            base = self.eval(expr.base, env)
            index = self.eval(expr.index, env)
            self.counters.ops += 1
            if isinstance(base, ArrayRef):
                slot = base.index(index)
                if isinstance(slot, ArrayRef):
                    raise KernelFault("cannot assign to an array row")
                pointer, offset = slot
                return _LValue("mem", pointer=pointer, index=offset)
            if isinstance(base, Pointer):
                return _LValue("mem", pointer=base, index=int(index))
            raise KernelFault(f"cannot index value {base!r}")
        if isinstance(expr, ast.UnaryOp) and expr.op == "*":
            pointer = self.eval(expr.operand, env)
            if isinstance(pointer, ArrayRef):
                pointer = pointer.decayed()
            if not isinstance(pointer, Pointer):
                raise KernelFault("dereferencing a non-pointer value")
            return _LValue("mem", pointer=pointer, index=0)
        if isinstance(expr, ast.Member):
            base_lvalue = self.eval_lvalue(expr.base, env)
            vec = base_lvalue.load()
            if not isinstance(vec, VecValue):
                raise KernelFault("component access on a non-vector value")
            if base_lvalue.kind == "var":
                # Mutate the live environment object directly.
                vec = base_lvalue.env.lookup(base_lvalue.name)
                return _LValue("vec", vec=vec, indices=expr.indices)
            # Through memory: load-modify-store the whole vector.
            return _LValue("vec", vec=vec, indices=expr.indices, writeback=base_lvalue)
        raise KernelFault(f"expression is not assignable: {type(expr).__name__}")

    def _eval_IntLiteral(self, expr: ast.IntLiteral, env: _Env):
        return wrap_int(expr.value, expr.ctype)

    def _eval_FloatLiteral(self, expr: ast.FloatLiteral, env: _Env):
        return convert_scalar(expr.value, expr.ctype)

    def _eval_CharLiteral(self, expr: ast.CharLiteral, env: _Env):
        return wrap_int(expr.value, expr.ctype)

    def _eval_Identifier(self, expr: ast.Identifier, env: _Env):
        constant = getattr(expr, "constant_value", None)
        if constant is not None:
            return convert_value(constant, expr.ctype)
        try:
            return env.lookup(expr.name)
        except KeyError:
            return self.machine.globals[expr.name]

    def _eval_UnaryOp(self, expr: ast.UnaryOp, env: _Env):
        op = expr.op
        if op in ("++", "--"):
            lvalue = self.eval_lvalue(expr.operand, env)
            self.counters.ops += 1
            value = lvalue.load()
            new_value = self._step(value, 1 if op == "++" else -1, expr.operand.ctype)
            lvalue.store(new_value)
            return new_value
        if op == "*":
            self.counters.ops += 1
            return self.eval_lvalue(expr, env).load()
        if op == "&":
            inner = expr.operand
            if isinstance(inner, ast.Index):
                base = self.eval(inner.base, env)
                index = int(self.eval(inner.index, env))
                if isinstance(base, ArrayRef):
                    slot = base.index(index)
                    if isinstance(slot, ArrayRef):
                        return slot.decayed()
                    pointer, offset = slot
                    return pointer.add(offset)
                if isinstance(base, Pointer):
                    return base.add(index)
                raise KernelFault("cannot take the address of this value")
            if isinstance(inner, ast.UnaryOp) and inner.op == "*":
                value = self.eval(inner.operand, env)
                return value.decayed() if isinstance(value, ArrayRef) else value
            raise KernelFault("taking the address of a plain variable is not supported")
        operand = self.eval(expr.operand, env)
        self.counters.ops += 1
        if op == "!":
            return int(not truthy(operand))
        if isinstance(operand, VecValue):
            return operand.unary(op)
        if op == "~":
            return wrap_int(~int(operand), expr.ctype)
        if op == "-":
            return convert_value(-operand, expr.ctype)
        if op == "+":
            return convert_value(operand, expr.ctype)
        raise AssertionError(op)  # pragma: no cover

    def _step(self, value, delta: int, ctype: CType):
        if isinstance(value, Pointer):
            return value.add(delta)
        return convert_value(value + delta, ctype)

    def _eval_PostfixOp(self, expr: ast.PostfixOp, env: _Env):
        lvalue = self.eval_lvalue(expr.operand, env)
        self.counters.ops += 1
        value = lvalue.load()
        lvalue.store(self._step(value, 1 if expr.op == "++" else -1, expr.operand.ctype))
        return value

    def _eval_BinaryOp(self, expr: ast.BinaryOp, env: _Env):
        op = expr.op
        if op == "&&":
            self.counters.ops += 1
            if not truthy(self.eval(expr.left, env)):
                return 0
            return int(truthy(self.eval(expr.right, env)))
        if op == "||":
            self.counters.ops += 1
            if truthy(self.eval(expr.left, env)):
                return 1
            return int(truthy(self.eval(expr.right, env)))

        left = self.eval(expr.left, env)
        right = self.eval(expr.right, env)
        self.counters.ops += 1
        op_type = expr.op_type

        if isinstance(left, ArrayRef):
            left = left.decayed()
        if isinstance(right, ArrayRef):
            right = right.decayed()
        if isinstance(left, Pointer) or isinstance(right, Pointer):
            return self._pointer_binary(op, left, right)
        if op in ("<", ">", "<=", ">=", "==", "!="):
            return compare_value(op, left, right, op_type)
        return binary_value(op, left, right, op_type)

    def _pointer_binary(self, op: str, left, right):
        if op == "+":
            pointer, offset = (left, right) if isinstance(left, Pointer) else (right, left)
            return pointer.add(int(offset))
        if op == "-":
            if isinstance(right, Pointer):
                return left.diff(right)
            return left.add(-int(right))
        if op in ("==", "!="):
            return int(same_pointer(left, right) == (op == "=="))
        if op in ("<", ">", "<=", ">="):
            return scalar_compare(op, left.offset, right.offset)
        raise KernelFault(f"invalid pointer operation '{op}'")

    def _eval_Assignment(self, expr: ast.Assignment, env: _Env):
        lvalue = self.eval_lvalue(expr.target, env)
        value = self.eval(expr.value, env)
        self.counters.ops += 1
        if isinstance(value, ArrayRef):
            value = value.decayed()
        target_type = expr.target.ctype
        if expr.op != "=":
            # ``a op= b`` is ``a = a op b`` with the lvalue resolved once.
            op = expr.op[:-1]
            current = lvalue.load()
            if isinstance(current, Pointer):
                value = self._pointer_binary(op, current, value)
            else:
                try:
                    value = binary_value(op, current, value, expr.op_type)
                except TypeError as exc:
                    raise KernelFault(str(exc)) from exc
        converted = convert_value(value, target_type) if not isinstance(value, Pointer) else value
        lvalue.store(converted)
        return copy_value(converted)

    def _eval_Conditional(self, expr: ast.Conditional, env: _Env):
        self.counters.ops += 1
        if truthy(self.eval(expr.condition, env)):
            value = self.eval(expr.then_expr, env)
        else:
            value = self.eval(expr.else_expr, env)
        if isinstance(value, (Pointer, ArrayRef)):
            return value.decayed() if isinstance(value, ArrayRef) else value
        return convert_value(value, expr.ctype)

    def _eval_Call(self, expr: ast.Call, env: _Env):
        if expr.kind == "user":
            args = [self.eval(arg, env) for arg in expr.args]
            self.counters.ops += 2  # call overhead
            return self.call_function(expr.callee_def, args)
        resolved: ResolvedBuiltin = expr.resolved
        self.counters.ops += resolved.cost
        if resolved.kind == "workitem":
            args = [int(self.eval(arg, env)) for arg in expr.args]
            return self.ctx.query(resolved.name, *args)
        if resolved.kind == "barrier":
            raise KernelFault("barrier() must be a standalone statement")
        args = [self.eval(arg, env) for arg in expr.args]
        if resolved.name in ("mem_fence", "read_mem_fence", "write_mem_fence"):
            return None
        return apply_builtin(resolved, args)

    def _eval_Index(self, expr: ast.Index, env: _Env):
        base = self.eval(expr.base, env)
        index = self.eval(expr.index, env)
        self.counters.ops += 1
        if isinstance(base, ArrayRef):
            slot = base.index(int(index))
            if isinstance(slot, ArrayRef):
                return slot
            pointer, offset = slot
            return pointer.load(offset)
        if isinstance(base, Pointer):
            return base.load(int(index))
        raise KernelFault(f"cannot index value of type {type(base).__name__}")

    def _eval_Member(self, expr: ast.Member, env: _Env):
        base = self.eval(expr.base, env)
        if not isinstance(base, VecValue):
            raise KernelFault("component access on a non-vector value")
        return _components(base, expr.indices)

    def _eval_Cast(self, expr: ast.Cast, env: _Env):
        value = self.eval(expr.operand, env)
        self.counters.ops += 1
        if isinstance(value, ArrayRef):
            value = value.decayed()
        if isinstance(value, Pointer) and isinstance(expr.target_type, PointerType):
            return value.retyped(expr.target_type.pointee)
        return convert_value(value, expr.ctype)

    def _eval_VectorLiteral(self, expr: ast.VectorLiteral, env: _Env):
        parts = [self.eval(element, env) for element in expr.elements]
        self.counters.ops += 1
        return VecValue.literal(expr.target_type, parts)

    def _eval_SizeofExpr(self, expr: ast.SizeofExpr, env: _Env):
        if expr.queried_type is not None:
            return expr.queried_type.sizeof()
        return expr.operand.ctype.sizeof()

    def _eval_CommaExpr(self, expr: ast.CommaExpr, env: _Env):
        result = None
        for part in expr.parts:
            result = self.eval(part, env)
        return result


def _components(vec: VecValue, indices):
    """``vec.<indices>``: one component is a scalar, several a vector."""
    return vec.components[indices[0]] if len(indices) == 1 else vec.swizzle(indices)


def _default_value(ctype: CType):
    if isinstance(ctype, VectorType):
        return VecValue.zero(ctype)
    if isinstance(ctype, PointerType):
        return NULL_POINTER
    if isinstance(ctype, ScalarType):
        return 0.0 if ctype.is_float() else 0
    raise KernelFault(f"cannot default-initialize {ctype}")
