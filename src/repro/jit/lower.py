"""Lowering of a typed Python function body to a kernelc AST.

The lowering is *differential by construction*: the generated OpenCL-C
must compute bit-identical results to executing the same Python
function on NumPy scalars on the host.  The type system that makes this
work distinguishes **strong** values (carrying a NumPy dtype: container
elements, annotated parameters) from **weak** values (Python ``int``/
``float`` literals and values computed purely from them), mirroring
NumPy 2's weak-scalar promotion:

* binary results use :func:`numpy.result_type` with Python-scalar
  proxies for weak operands — NumPy promotion by construction;
* weak values are carried at ``long``/``double`` (the exact value
  semantics of Python ``int``/``float``) and convert at the point they
  combine with a strong value, exactly where NumPy converts them;
* integer results narrower than ``int`` get an explicit wrapping cast
  after every operation (C promotes to ``int`` and would *not* wrap);
* ``/`` is true division (float result, ``float64`` for integer
  operands, as NumPy), ``//`` and ``%`` lower to helper functions with
  Python's floored semantics (and NumPy's ``x // 0 == 0``);
* ``math.*`` calls cast their arguments to ``double`` and call the
  kernelc builtin of the same name — both sides then evaluate the very
  same ``libm`` function at the same precision.

Anything whose Python semantics cannot be reproduced exactly raises
:class:`JitError` with the offending Python source line and a caret —
a diagnostic, never a silent miscompile.
"""

from __future__ import annotations

import ast as pyast
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..kernelc import ast as kast
from ..kernelc.ctypes_ import (BOOL, DOUBLE, FLOAT, HALF, INT, LONG, ULONG,
                               SIZE_T, PointerType, ScalarType, ctype_from_numpy,
                               numpy_dtype, wrap_int)
from ..kernelc.parser import parse
from ..kernelc.source import BUILTIN_SPAN
from .errors import JitError

SPAN = BUILTIN_SPAN

# Python math functions with a same-semantics kernelc builtin (both are
# the host libm at double precision).
_MATH_FLOAT = {
    "sqrt": "sqrt", "sin": "sin", "cos": "cos", "tan": "tan",
    "asin": "asin", "acos": "acos", "atan": "atan",
    "sinh": "sinh", "cosh": "cosh", "tanh": "tanh",
    "asinh": "asinh", "acosh": "acosh", "atanh": "atanh",
    "exp": "exp", "expm1": "expm1",
    "log": "log", "log2": "log2", "log10": "log10", "log1p": "log1p",
    "fabs": "fabs", "erf": "erf", "erfc": "erfc",
    "gamma": "tgamma", "lgamma": "lgamma",
    "pow": "pow", "fmod": "fmod", "atan2": "atan2",
    "hypot": "hypot", "copysign": "copysign", "remainder": "remainder",
}
_MATH_BINARY = {"pow", "fmod", "atan2", "hypot", "copysign", "remainder"}
# math functions returning a Python int (lower as a truncating cast of
# the double builtin result).
_MATH_TO_INT = {"floor": "floor", "ceil": "ceil", "trunc": "trunc"}
_MATH_CONSTS = {"pi": math.pi, "e": math.e, "tau": math.tau}

_INT_HELPERS = {
    "floordiv": (
        "long {name}(long a, long b) {{\n"
        "    if (b == 0) {{ return 0; }}\n"
        "    long q = a / b;\n"
        "    if (a % b != 0 && (a < 0) != (b < 0)) {{ q = q - 1; }}\n"
        "    return q;\n"
        "}}"
    ),
    "mod": (
        "long {name}(long a, long b) {{\n"
        "    if (b == 0) {{ return 0; }}\n"
        "    long r = a % b;\n"
        "    if (r != 0 && (r < 0) != (b < 0)) {{ r = r + b; }}\n"
        "    return r;\n"
        "}}"
    ),
}


@dataclass(frozen=True)
class JType:
    """A lowering type: a carrier ctype plus an optional weak kind."""

    ctype: ScalarType
    weak: Optional[str] = None  # None | 'int' | 'float'

    def __str__(self) -> str:
        return f"weak {self.weak}" if self.weak else self.ctype.name


WEAK_INT = JType(LONG, "int")
WEAK_FLOAT = JType(DOUBLE, "float")


@dataclass(frozen=True)
class JPointer:
    """A pointer parameter: element type plus its declared intent mode."""

    element: ScalarType
    mode: str  # 'r' | 'w' | 'rw' | 'inc'
    intent_name: str


@dataclass
class TX:
    """A typed, lowered expression.

    ``pyconst`` holds the exact Python value for constant expressions;
    such expressions have no node until a context type materializes
    them as a literal.
    """

    jt: JType
    node: Optional[kast.Expr] = None
    pyconst: Optional[object] = None


@dataclass
class LoweredParam:
    name: str
    ctype: object  # ScalarType or JPointer


@dataclass
class Lowered:
    """The result of lowering: printable kernelc AST plus metadata."""

    program: kast.Program
    main: kast.FunctionDef
    return_ctype: ScalarType
    param_ctypes: Tuple[object, ...]
    intent_markers: List[str] = field(default_factory=list)


def _proxy(jt: JType):
    """The value :func:`numpy.result_type` should see for ``jt``."""
    if jt.weak == "int":
        return 1
    if jt.weak == "float":
        return 1.5
    return numpy_dtype(jt.ctype)


def combine(a: JType, b: JType) -> JType:
    """NumPy's promotion of a binary operation over ``a`` and ``b``."""
    if a.weak and b.weak:
        return WEAK_FLOAT if "float" in (a.weak, b.weak) else WEAK_INT
    return JType(ctype_from_numpy(np.result_type(_proxy(a), _proxy(b))))


class Lowerer:
    """Lowers one Python function definition at concrete types."""

    def __init__(self, *, name: str, filename: str, fdef: pyast.FunctionDef,
                 source_lines: List[str], line_offset: int,
                 params: List[LoweredParam],
                 return_ctype: Optional[ScalarType],
                 component: Optional[int] = None,
                 n_outputs: Optional[int] = None):
        self.name = name
        self.filename = filename
        self.fdef = fdef
        self.source_lines = source_lines
        self.line_offset = line_offset
        self.params = params
        self.declared_return = return_ctype
        self.component = component
        self.n_outputs = n_outputs
        self.vars: Dict[str, JType] = {}
        self.var_order: List[str] = []
        self.helpers: Dict[str, str] = {}
        self.saw_return = False
        self._ret_jt: Optional[JType] = None
        self.changed = False
        self._temp_count = 0

    # -- diagnostics -------------------------------------------------------

    def err(self, message: str, node: Optional[pyast.AST] = None) -> JitError:
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        end_col = getattr(node, "end_col_offset", None)
        src = None
        if line and 1 <= line <= len(self.source_lines):
            src = self.source_lines[line - 1].rstrip("\n")
        width = 1
        if end_col is not None and getattr(node, "end_lineno", line) == line:
            width = max(end_col - col, 1)
        return JitError(message, self.filename, line + self.line_offset if line else 0,
                        col, src, width)

    # -- environment -------------------------------------------------------

    def _param_type(self, name: str):
        for p in self.params:
            if p.name == name:
                return p.ctype
        return None

    def _join_var(self, name: str, jt: JType, node: pyast.AST) -> None:
        old = self.vars.get(name)
        if old is None:
            self.vars[name] = jt
            self.var_order.append(name)
            self.changed = True
            return
        new = self._join(old, jt, name, node)
        if new != old:
            self.vars[name] = new
            self.changed = True

    def _join(self, old: JType, new: JType, name: str, node: pyast.AST) -> JType:
        if old == new:
            return old
        if old.weak and new.weak:
            return WEAK_FLOAT if "float" in (old.weak, new.weak) else WEAK_INT
        if old.weak or new.weak:
            return combine(old, new)
        raise self.err(
            f"variable {name!r} is assigned conflicting types "
            f"({old} and {new}); keep each variable at one type", node)

    # -- helpers -----------------------------------------------------------

    def _helper(self, kind: str) -> str:
        helper_name = f"scl_jit_{kind}_{self.name}"
        if helper_name not in self.helpers:
            self.helpers[helper_name] = _INT_HELPERS[kind].format(name=helper_name)
        return helper_name

    def _temp(self) -> str:
        self._temp_count += 1
        return f"SCL_JIT_T{self._temp_count}"

    # -- materialization ---------------------------------------------------

    def _literal(self, value, T: ScalarType, node: pyast.AST) -> kast.Expr:
        if T.is_float():
            v = float(value)
            if not math.isfinite(v):
                raise self.err("non-finite constants are unsupported", node)
            if T == FLOAT:
                return kast.FloatLiteral(float(np.float32(v)), SPAN, "f")
            if T == HALF:
                return kast.Cast(HALF, kast.FloatLiteral(float(np.float16(v)), SPAN), SPAN)
            return kast.FloatLiteral(v, SPAN)
        v = int(value)
        if T in (ULONG, SIZE_T):
            v = wrap_int(v, LONG)
            return kast.Cast(T, kast.IntLiteral(v, SPAN), SPAN)
        v = wrap_int(v, T)
        if T == LONG and not (-(2 ** 31) <= v < 2 ** 31):
            return kast.IntLiteral(v, SPAN, "l")
        return kast.IntLiteral(v, SPAN)

    def as_ct(self, tx: TX, T: ScalarType, node: pyast.AST) -> kast.Expr:
        """``tx`` converted to carrier type ``T``."""
        if tx.pyconst is not None and tx.node is None:
            return self._literal(tx.pyconst, T, node)
        if tx.jt.ctype == T:
            return tx.node
        return kast.Cast(T, tx.node, SPAN)

    def _carrier(self, tx: TX, node: pyast.AST) -> kast.Expr:
        return self.as_ct(tx, tx.jt.ctype, node)

    # -- expressions -------------------------------------------------------

    def expr(self, node: pyast.AST) -> TX:
        if isinstance(node, pyast.Constant):
            return self._const(node)
        if isinstance(node, pyast.Name):
            return self._name(node)
        if isinstance(node, pyast.BinOp):
            return self._binop(node)
        if isinstance(node, pyast.UnaryOp):
            return self._unary(node)
        if isinstance(node, pyast.IfExp):
            return self._ifexp(node)
        if isinstance(node, pyast.Call):
            return self._call(node)
        if isinstance(node, pyast.Attribute):
            return self._attribute(node)
        if isinstance(node, pyast.Subscript):
            return self._subscript_load(node)
        if isinstance(node, (pyast.Compare, pyast.BoolOp)):
            raise self.err(
                "comparisons and and/or are only supported in conditions; "
                "use '1 if cond else 0' for a numeric result", node)
        if isinstance(node, pyast.Tuple):
            raise self.err("tuples are only supported as a whole-function "
                           "multi-output return", node)
        raise self.err(
            f"unsupported expression: {type(node).__name__}", node)

    def _const(self, node: pyast.Constant) -> TX:
        v = node.value
        if isinstance(v, bool):
            raise self.err("True/False are only supported in conditions", node)
        if isinstance(v, int):
            return TX(WEAK_INT, pyconst=v)
        if isinstance(v, float):
            return TX(WEAK_FLOAT, pyconst=v)
        raise self.err(f"unsupported constant {v!r}", node)

    def _name(self, node: pyast.Name) -> TX:
        pt = self._param_type(node.id)
        if isinstance(pt, JPointer):
            raise self.err(
                f"pointer parameter {node.id!r} used as a value; read it "
                "with get() or subscripting", node)
        if isinstance(pt, JType):
            # A weak parameter: a plain Python scalar supplied at the
            # call site (a skeleton "additional argument").  It takes
            # part in arithmetic with NumPy's weak-scalar promotion,
            # exactly as the Python value does on the host.
            return TX(pt, kast.Identifier(node.id, SPAN))
        if isinstance(pt, ScalarType):
            return TX(JType(pt), kast.Identifier(node.id, SPAN))
        jt = self.vars.get(node.id)
        if jt is None:
            raise self.err(f"undefined name {node.id!r}", node)
        return TX(jt, kast.Identifier(node.id, SPAN))

    def _fold(self, op, l: TX, r: TX, node: pyast.AST) -> Optional[TX]:
        if l.pyconst is None or r.pyconst is None or l.node is not None or r.node is not None:
            return None
        try:
            v = op(l.pyconst, r.pyconst)
        except ZeroDivisionError:
            raise self.err("constant division by zero", node)
        except Exception:
            return None
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            return None
        return TX(WEAK_INT if isinstance(v, int) else WEAK_FLOAT, pyconst=v)

    def _wrap_small(self, expr: kast.Expr, R: ScalarType) -> kast.Expr:
        """Pin NumPy's per-operation semantics with an explicit cast.

        NumPy wraps integers at the result width and rounds floats after
        every operation; the execution engine evaluates with relaxed
        semantics (ints at arbitrary precision, floats in double) and
        only apply exact conversions at *explicit casts* and memory
        stores.  Wrapping each strong-typed operation in a cast makes
        the generated kernel compute NumPy's value by construction —
        including the double-rounding-safe float32 case (binary ops at
        p=24 through double's p=53 round identically, Figueroa's
        theorem).  Weak values (``long``/``double`` carriers) stay
        uncast: they model Python ``int``/``float`` semantics, which the
        relaxed evaluation matches better than wrapping would."""
        if R.is_integer():
            return kast.Cast(R, expr, SPAN)
        if R.is_float() and R != DOUBLE:
            return kast.Cast(R, expr, SPAN)
        return expr

    def _binop(self, node: pyast.BinOp) -> TX:
        l = self.expr(node.left)
        r = self.expr(node.right)
        op = node.op
        py_ops = {
            pyast.Add: (lambda a, b: a + b, "+"),
            pyast.Sub: (lambda a, b: a - b, "-"),
            pyast.Mult: (lambda a, b: a * b, "*"),
            pyast.Div: (lambda a, b: a / b, "/"),
            pyast.FloorDiv: (lambda a, b: a // b, None),
            pyast.Mod: (lambda a, b: a % b, None),
            pyast.LShift: (lambda a, b: a << b, "<<"),
            pyast.RShift: (lambda a, b: a >> b, ">>"),
            pyast.BitAnd: (lambda a, b: a & b, "&"),
            pyast.BitOr: (lambda a, b: a | b, "|"),
            pyast.BitXor: (lambda a, b: a ^ b, "^"),
        }
        if isinstance(op, pyast.Pow):
            raise self.err(
                "the ** operator is unsupported (its promotion rules do not "
                "map to OpenCL); use math.pow for float exponentiation", node)
        if type(op) not in py_ops:
            raise self.err(f"unsupported operator {type(op).__name__}", node)
        pyfn, c_op = py_ops[type(op)]
        folded = self._fold(pyfn, l, r, node)
        if folded is not None:
            return folded

        if isinstance(op, pyast.Div):
            R = combine(l.jt, r.jt)
            if R.weak:
                jt = WEAK_FLOAT
            elif R.ctype.is_integer():
                jt = JType(DOUBLE)  # np.true_divide on integers -> float64
            else:
                jt = R
            T = jt.ctype
            out = kast.BinaryOp("/", self.as_ct(l, T, node),
                                self.as_ct(r, T, node), SPAN)
            return TX(jt, self._wrap_small(out, T) if not jt.weak else out)

        if isinstance(op, (pyast.FloorDiv, pyast.Mod)):
            R = combine(l.jt, r.jt)
            if not (R.weak == "int" or (not R.weak and R.ctype.is_integer())):
                raise self.err(
                    "// and % are only supported on integers "
                    "(use math.floor(a / b) or math.fmod for floats)", node)
            helper = self._helper("floordiv" if isinstance(op, pyast.FloorDiv) else "mod")
            call = kast.Call(helper, [self.as_ct(l, LONG, node),
                                      self.as_ct(r, LONG, node)], SPAN)
            if R.weak:
                return TX(WEAK_INT, call)
            if R.ctype != LONG:
                return TX(R, kast.Cast(R.ctype, call, SPAN))
            return TX(R, call)

        if isinstance(op, (pyast.LShift, pyast.RShift, pyast.BitAnd,
                           pyast.BitOr, pyast.BitXor)):
            for side in (l, r):
                if side.jt.weak == "float" or (not side.jt.weak and not side.jt.ctype.is_integer()):
                    raise self.err("bitwise operators need integer operands", node)

        R = combine(l.jt, r.jt)
        T = R.ctype
        out = kast.BinaryOp(c_op, self.as_ct(l, T, node), self.as_ct(r, T, node), SPAN)
        return TX(R, self._wrap_small(out, T) if not R.weak else out)

    def _unary(self, node: pyast.UnaryOp) -> TX:
        if isinstance(node.op, pyast.Not):
            raise self.err("'not' is only supported in conditions", node)
        v = self.expr(node.operand)
        if v.pyconst is not None and v.node is None:
            if isinstance(node.op, pyast.USub):
                return TX(v.jt, pyconst=-v.pyconst)
            if isinstance(node.op, pyast.UAdd):
                return TX(v.jt, pyconst=+v.pyconst)
            if isinstance(node.op, pyast.Invert) and isinstance(v.pyconst, int):
                return TX(WEAK_INT, pyconst=~v.pyconst)
        if isinstance(node.op, pyast.UAdd):
            return v
        if isinstance(node.op, pyast.Invert):
            if v.jt.weak == "float" or (not v.jt.weak and not v.jt.ctype.is_integer()):
                raise self.err("~ needs an integer operand", node)
        T = v.jt.ctype
        op = "-" if isinstance(node.op, pyast.USub) else "~"
        out = kast.UnaryOp(op, self._carrier(v, node), SPAN)
        return TX(v.jt, self._wrap_small(out, T) if not v.jt.weak else out)

    def _ifexp(self, node: pyast.IfExp) -> TX:
        cond = self.condition(node.test)
        a = self.expr(node.body)
        b = self.expr(node.orelse)
        if a.jt.weak and b.jt.weak:
            jt = WEAK_FLOAT if "float" in (a.jt.weak, b.jt.weak) else WEAK_INT
        elif a.jt.weak:
            jt = b.jt
        elif b.jt.weak:
            jt = a.jt
        elif a.jt == b.jt:
            jt = a.jt
        else:
            raise self.err(
                f"ternary branches have different types ({a.jt} vs {b.jt}); "
                "convert one side explicitly", node)
        T = jt.ctype
        return TX(jt, kast.Conditional(cond, self.as_ct(a, T, node),
                                       self.as_ct(b, T, node), SPAN))

    def _attribute(self, node: pyast.Attribute) -> TX:
        if isinstance(node.value, pyast.Name) and node.value.id == "math":
            if node.attr in _MATH_CONSTS:
                return TX(WEAK_FLOAT, pyconst=_MATH_CONSTS[node.attr])
            if node.attr in ("inf", "nan"):
                raise self.err("non-finite constants are unsupported", node)
        raise self.err(f"unsupported attribute access "
                       f"{pyast.unparse(node)!r}", node)

    def _math_call(self, fname: str, node: pyast.Call) -> TX:
        if fname in _MATH_TO_INT:
            if len(node.args) != 1:
                raise self.err(f"math.{fname} takes one argument", node)
            arg = self.expr(node.args[0])
            if arg.jt.weak == "int" or (not arg.jt.weak and arg.jt.ctype.is_integer()):
                # floor/ceil/trunc of an int is the identity (a Python int).
                return TX(WEAK_INT, self.as_ct(arg, LONG, node)) \
                    if arg.pyconst is None else TX(WEAK_INT, pyconst=int(arg.pyconst))
            call = kast.Call(_MATH_TO_INT[fname], [self.as_ct(arg, DOUBLE, node)], SPAN)
            return TX(WEAK_INT, kast.Cast(LONG, call, SPAN))
        builtin = _MATH_FLOAT.get(fname)
        if builtin is None:
            raise self.err(f"math.{fname} has no exact kernelc counterpart", node)
        arity = 2 if fname in _MATH_BINARY else 1
        if len(node.args) != arity:
            raise self.err(f"math.{fname} takes {arity} argument(s)", node)
        args = [self.as_ct(self.expr(a), DOUBLE, node) for a in node.args]
        return TX(WEAK_FLOAT, kast.Call(builtin, args, SPAN))

    def _call(self, node: pyast.Call) -> TX:
        if node.keywords:
            raise self.err("keyword arguments are unsupported", node)
        if isinstance(node.func, pyast.Attribute):
            base = node.func.value
            if isinstance(base, pyast.Name) and base.id == "math":
                return self._math_call(node.func.attr, node)
            if isinstance(base, pyast.Name) and node.func.attr == "get":
                # The namespaced spelling of the stencil accessor
                # (``skelcl.get(m, -1)``); local names can't be modules
                # here, so any X.get(...) is the accessor.
                return self._get_call(node)
            raise self.err(f"unsupported call "
                           f"{pyast.unparse(node.func)!r}", node)
        if not isinstance(node.func, pyast.Name):
            raise self.err("unsupported call target", node)
        fname = node.func.id
        if fname == "get":
            return self._get_call(node)
        if fname in ("int", "float"):
            if len(node.args) != 1:
                raise self.err(f"{fname}() takes one argument", node)
            arg = self.expr(node.args[0])
            if arg.pyconst is not None and arg.node is None:
                v = int(arg.pyconst) if fname == "int" else float(arg.pyconst)
                return TX(WEAK_INT if fname == "int" else WEAK_FLOAT, pyconst=v)
            T = LONG if fname == "int" else DOUBLE
            jt = WEAK_INT if fname == "int" else WEAK_FLOAT
            return TX(jt, self.as_ct(arg, T, node))
        if fname == "abs":
            if len(node.args) != 1:
                raise self.err("abs() takes one argument", node)
            arg = self.expr(node.args[0])
            if arg.pyconst is not None and arg.node is None:
                return TX(arg.jt, pyconst=abs(arg.pyconst))
            T = arg.jt.ctype
            if T.is_float():
                return TX(arg.jt, kast.Call("fabs", [self._carrier(arg, node)], SPAN))
            # np.abs wraps at the operand width (abs(int8 -128) == -128).
            value = self._carrier(arg, node)
            out = kast.Conditional(
                kast.BinaryOp("<", value, kast.IntLiteral(0, SPAN), SPAN),
                kast.UnaryOp("-", value, SPAN), value, SPAN)
            return TX(arg.jt, self._wrap_small(out, T) if not arg.jt.weak else out)
        if fname in ("min", "max"):
            if len(node.args) < 2:
                raise self.err(f"{fname}() needs at least two arguments", node)
            args = [self.expr(a) for a in node.args]
            out = args[0]
            for nxt in args[1:]:
                out = self._min_max(fname, out, nxt, node)
            return out
        raise self.err(
            f"unsupported function {fname!r} (supported: math.*, abs, "
            "min, max, int, float, get)", node)

    def _min_max(self, fname: str, a: TX, b: TX, node: pyast.AST) -> TX:
        # Python semantics including NaN: min(a, b) is `b if b < a else a`.
        if a.jt.weak and b.jt.weak:
            jt = WEAK_FLOAT if "float" in (a.jt.weak, b.jt.weak) else WEAK_INT
        elif a.jt.weak:
            jt = b.jt
        elif b.jt.weak:
            jt = a.jt
        elif a.jt == b.jt:
            jt = a.jt
        else:
            raise self.err(
                f"{fname}() arguments must share one type ({a.jt} vs {b.jt})", node)
        T = jt.ctype
        an = self.as_ct(a, T, node)
        bn = self.as_ct(b, T, node)
        op = "<" if fname == "min" else ">"
        return TX(jt, kast.Conditional(kast.BinaryOp(op, bn, an, SPAN), bn, an, SPAN))

    def _pointer_of(self, node: pyast.AST, for_read: bool) -> Tuple[str, JPointer]:
        if not isinstance(node, pyast.Name):
            raise self.err("only pointer parameters can be indexed", node)
        pt = self._param_type(node.id)
        if not isinstance(pt, JPointer):
            raise self.err(f"{node.id!r} is not a pointer parameter", node)
        if for_read and pt.mode in ("w", "inc"):
            raise self.err(
                f"parameter {node.id!r} is declared {pt.intent_name} "
                "and must not be read", node)
        if not for_read and pt.mode == "r":
            raise self.err(
                f"parameter {node.id!r} is declared READ and must not be "
                "written", node)
        return node.id, pt

    def _get_call(self, node: pyast.Call) -> TX:
        if not 2 <= len(node.args) <= 3:
            raise self.err("get() takes a pointer and one or two offsets", node)
        pname, pt = self._pointer_of(node.args[0], for_read=True)
        args: List[kast.Expr] = [kast.Identifier(pname, SPAN)]
        for off in node.args[1:]:
            tx = self.expr(off)
            if tx.jt.weak == "float" or (not tx.jt.weak and not tx.jt.ctype.is_integer()):
                raise self.err("get() offsets must be integers", off)
            if tx.pyconst is not None and tx.node is None:
                # Literal offsets stay literal so the static bounds
                # analysis can prove them in range.
                args.append(self._literal(tx.pyconst, INT, off))
            else:
                args.append(self.as_ct(tx, INT, off))
        return TX(JType(pt.element), kast.Call("get", args, SPAN))

    def _subscript_load(self, node: pyast.Subscript) -> TX:
        pname, pt = self._pointer_of(node.value, for_read=True)
        idx = self.expr(node.slice)
        if idx.jt.weak == "float" or (not idx.jt.weak and not idx.jt.ctype.is_integer()):
            raise self.err("subscripts must be integers", node)
        return TX(JType(pt.element),
                  kast.Index(kast.Identifier(pname, SPAN),
                             self.as_ct(idx, LONG, node), SPAN))

    # -- conditions --------------------------------------------------------

    def condition(self, node: pyast.AST) -> kast.Expr:
        if isinstance(node, pyast.BoolOp):
            op = "&&" if isinstance(node.op, pyast.And) else "||"
            out = self.condition(node.values[0])
            for value in node.values[1:]:
                out = kast.BinaryOp(op, out, self.condition(value), SPAN)
            return out
        if isinstance(node, pyast.UnaryOp) and isinstance(node.op, pyast.Not):
            return kast.UnaryOp("!", self.condition(node.operand), SPAN)
        if isinstance(node, pyast.Compare):
            return self._compare(node)
        if isinstance(node, pyast.Constant) and isinstance(node.value, bool):
            return kast.IntLiteral(1 if node.value else 0, SPAN)
        tx = self.expr(node)
        # Numeric truthiness: nonzero (including NaN) is true, as in
        # Python and C alike.
        return self._carrier(tx, node)

    def _compare(self, node: pyast.Compare) -> kast.Expr:
        ops = {"Lt": "<", "LtE": "<=", "Gt": ">", "GtE": ">=",
               "Eq": "==", "NotEq": "!="}
        operands = [node.left] + list(node.comparators)
        parts: List[kast.Expr] = []
        for i, op in enumerate(node.ops):
            name = type(op).__name__
            if name not in ops:
                raise self.err(f"unsupported comparison {name}", node)
            l = self.expr(operands[i])
            r = self.expr(operands[i + 1])
            R = combine(l.jt, r.jt)
            T = R.ctype
            parts.append(kast.BinaryOp(ops[name], self.as_ct(l, T, node),
                                       self.as_ct(r, T, node), SPAN))
        out = parts[0]
        for part in parts[1:]:
            out = kast.BinaryOp("&&", out, part, SPAN)
        return out

    # -- statements --------------------------------------------------------

    def _mark(self, stmt: kast.Stmt, node: pyast.AST) -> kast.Stmt:
        line = getattr(node, "lineno", None)
        if line is not None:
            stmt._py_line = line + self.line_offset
        return stmt

    def stmts(self, body: List[pyast.stmt], *, top: bool = False) -> List[kast.Stmt]:
        out: List[kast.Stmt] = []
        for i, stmt in enumerate(body):
            if (top and i == 0 and isinstance(stmt, pyast.Expr)
                    and isinstance(stmt.value, pyast.Constant)
                    and isinstance(stmt.value.value, str)):
                continue  # docstring
            out.extend(self.stmt(stmt))
        return out

    def stmt(self, node: pyast.stmt) -> List[kast.Stmt]:
        if isinstance(node, pyast.Assign):
            return [self._mark(s, node) for s in self._assign(node)]
        if isinstance(node, pyast.AugAssign):
            return [self._mark(s, node) for s in self._augassign(node)]
        if isinstance(node, pyast.Return):
            return [self._mark(s, node) for s in self._return(node)]
        if isinstance(node, pyast.If):
            return [self._mark(s, node) for s in self._if(node)]
        if isinstance(node, pyast.For):
            return [self._mark(s, node) for s in self._for(node)]
        if isinstance(node, pyast.Pass):
            return []
        if isinstance(node, pyast.AnnAssign):
            raise self.err(
                "annotated assignments are unsupported (a local's type is "
                "inferred from its value)", node)
        if isinstance(node, pyast.While):
            raise self.err("while loops are unsupported; use for i in range(...)",
                           node)
        if isinstance(node, pyast.Expr):
            raise self.err("expression statements have no effect in a kernel",
                           node)
        raise self.err(f"unsupported statement: {type(node).__name__}", node)

    def _store_target(self, target: pyast.AST, value: TX,
                      node: pyast.AST) -> List[kast.Stmt]:
        if isinstance(target, pyast.Name):
            pt = self._param_type(target.id)
            if pt is not None:
                raise self.err(
                    f"cannot assign to parameter {target.id!r}; use a local",
                    node)
            self._join_var(target.id, value.jt, node)
            T = self.vars[target.id].ctype
            assign = kast.Assignment("=", kast.Identifier(target.id, SPAN),
                                     self.as_ct(value, T, node), SPAN)
            return [kast.ExprStmt(assign, SPAN)]
        if isinstance(target, pyast.Subscript):
            pname, pt = self._pointer_of(target.value, for_read=False)
            if pt.mode == "inc":
                raise self.err(
                    f"parameter {pname!r} is declared INC; only += "
                    "increments are allowed", node)
            idx = self.expr(target.slice)
            lhs = kast.Index(kast.Identifier(pname, SPAN),
                             self.as_ct(idx, LONG, node), SPAN)
            assign = kast.Assignment("=", lhs, self.as_ct(value, pt.element, node),
                                     SPAN)
            return [kast.ExprStmt(assign, SPAN)]
        if isinstance(target, pyast.Tuple):
            raise self.err("tuple unpacking is unsupported", node)
        raise self.err("unsupported assignment target", node)

    def _assign(self, node: pyast.Assign) -> List[kast.Stmt]:
        if len(node.targets) != 1:
            raise self.err("chained assignment is unsupported", node)
        value = self.expr(node.value)
        return self._store_target(node.targets[0], value, node)

    def _augassign(self, node: pyast.AugAssign) -> List[kast.Stmt]:
        if isinstance(node.target, pyast.Subscript):
            pname, pt = self._pointer_of(node.target.value, for_read=False)
            if pt.mode == "inc" and not isinstance(node.op, pyast.Add):
                raise self.err(
                    f"parameter {pname!r} is declared INC; only += is allowed",
                    node)
            if pt.mode == "w":
                raise self.err(
                    f"parameter {pname!r} is declared WRITE; augmented "
                    "assignment reads the old value", node)
            if not isinstance(node.op, pyast.Add):
                # Desugar through the general path (requires read access,
                # checked above).
                desugared = pyast.Assign(
                    targets=[node.target],
                    value=pyast.BinOp(left=self._as_load(node.target),
                                      op=node.op, right=node.value))
                pyast.copy_location(desugared, node)
                pyast.fix_missing_locations(desugared)
                return self._assign(desugared)
            idx = self.expr(node.target.slice)
            value = self.expr(node.value)
            lhs = kast.Index(kast.Identifier(pname, SPAN),
                             self.as_ct(idx, LONG, node), SPAN)
            assign = kast.Assignment("+=", lhs,
                                     self.as_ct(value, pt.element, node), SPAN)
            return [kast.ExprStmt(assign, SPAN)]
        desugared = pyast.Assign(
            targets=[node.target],
            value=pyast.BinOp(left=self._as_load(node.target), op=node.op,
                              right=node.value))
        pyast.copy_location(desugared, node)
        pyast.fix_missing_locations(desugared)
        return self._assign(desugared)

    @staticmethod
    def _as_load(target: pyast.AST) -> pyast.AST:
        load = pyast.copy_location(
            pyast.Name(id=target.id, ctx=pyast.Load()), target) \
            if isinstance(target, pyast.Name) else target
        return load

    def _return(self, node: pyast.Return) -> List[kast.Stmt]:
        if node.value is None:
            raise self.err("a jitted function must return a value", node)
        value_node = node.value
        if isinstance(value_node, pyast.Tuple):
            if self.component is None:
                raise self.err(
                    "multi-output functions cannot be lowered whole; use "
                    "f.outputs[i] for each component", node)
            if self.component >= len(value_node.elts):
                raise self.err(
                    f"return tuple has {len(value_node.elts)} elements, "
                    f"component {self.component} requested", node)
            value_node = value_node.elts[self.component]
        elif self.component is not None:
            raise self.err(
                "all return statements of a multi-output function must "
                "return a tuple", node)
        tx = self.expr(value_node)
        self.saw_return = True
        # The return type joins monotonically across fixpoint iterations,
        # so the converged value is consistent for every return statement.
        old = self._ret_jt
        if old is None:
            self._ret_jt = tx.jt
        elif old != tx.jt:
            if old.weak and tx.jt.weak:
                self._ret_jt = WEAK_FLOAT if "float" in (old.weak, tx.jt.weak) else WEAK_INT
            else:
                self._ret_jt = combine(old, tx.jt)
        if self._ret_jt != old:
            self.changed = True
        R = self._return_ctype()
        return [kast.ReturnStmt(self.as_ct(tx, R, node), SPAN)]

    def _return_ctype(self) -> ScalarType:
        if self.declared_return is not None:
            return self.declared_return
        if self._ret_jt is None:
            return LONG
        return self._ret_jt.ctype

    def _if(self, node: pyast.If) -> List[kast.Stmt]:
        cond = self.condition(node.test)
        then = kast.CompoundStmt(self.stmts(node.body), SPAN)
        other = None
        if node.orelse:
            other = kast.CompoundStmt(self.stmts(node.orelse), SPAN)
        return [kast.IfStmt(cond, then, other, SPAN)]

    def _for(self, node: pyast.For) -> List[kast.Stmt]:
        if node.orelse:
            raise self.err("for/else is unsupported", node)
        call = node.iter
        if not (isinstance(call, pyast.Call) and isinstance(call.func, pyast.Name)
                and call.func.id == "range"):
            raise self.err("only 'for i in range(...)' loops are supported",
                           node)
        if not isinstance(node.target, pyast.Name):
            raise self.err("the loop variable must be a plain name", node)
        args = [self.expr(a) for a in call.args]
        if not 1 <= len(args) <= 3:
            raise self.err("range() takes one to three arguments", call)
        for a, tx in zip(call.args, args):
            if tx.jt.weak == "float" or (not tx.jt.weak and not tx.jt.ctype.is_integer()):
                raise self.err("range() bounds must be integers", a)
        start = args[0] if len(args) > 1 else TX(WEAK_INT, pyconst=0)
        stop = args[1] if len(args) > 1 else args[0]
        step = args[2] if len(args) > 2 else TX(WEAK_INT, pyconst=1)
        if step.pyconst is None or step.node is not None:
            raise self.err("the range() step must be a constant", call)
        step_value = int(step.pyconst)
        if step_value == 0:
            raise self.err("range() step must not be zero", call)

        name = node.target.id
        if self._param_type(name) is not None:
            raise self.err(f"cannot assign to parameter {name!r}", node)
        self._join_var(name, WEAK_INT, node)
        prelude: List[kast.Stmt] = []
        stop_node = self.as_ct(stop, LONG, call)
        if stop.pyconst is None:
            # Hoist the bound: Python evaluates range() once, so a bound
            # that reads a variable the body modifies must not be
            # re-evaluated per iteration.
            temp = self._temp()
            if temp not in self.vars:
                self.vars[temp] = JType(LONG)
                self.var_order.append(temp)
            prelude.append(kast.ExprStmt(
                kast.Assignment("=", kast.Identifier(temp, SPAN), stop_node, SPAN),
                SPAN))
            stop_node = kast.Identifier(temp, SPAN)
        init = kast.ExprStmt(
            kast.Assignment("=", kast.Identifier(name, SPAN),
                            self.as_ct(start, LONG, call), SPAN), SPAN)
        cond = kast.BinaryOp("<" if step_value > 0 else ">",
                             kast.Identifier(name, SPAN), stop_node, SPAN)
        incr = kast.Assignment("+=", kast.Identifier(name, SPAN),
                               kast.IntLiteral(step_value, SPAN), SPAN)
        body = kast.CompoundStmt(self.stmts(node.body), SPAN)
        return prelude + [kast.ForStmt(init, cond, incr, body, SPAN)]

    # -- driver ------------------------------------------------------------

    def lower(self) -> Lowered:
        body_stmts: List[kast.Stmt] = []
        for _ in range(10):
            self.changed = False
            self.saw_return = False
            self.helpers = {}
            self._temp_count = 0
            body_stmts = self.stmts(self.fdef.body, top=True)
            if not self.changed:
                break
        else:
            raise self.err("type inference did not converge", self.fdef)

        if not self.saw_return:
            raise self.err("a jitted function must return a value", self.fdef)
        R = self._return_ctype()

        decls: List[kast.Stmt] = []
        for name in self.var_order:
            jt = self.vars[name]
            decls.append(kast.DeclStmt(
                [kast.VarDecl(name, jt.ctype, None, SPAN)], SPAN))

        kparams: List[kast.Param] = []
        param_ctypes: List[object] = []
        intent_markers: List[str] = []
        for p in self.params:
            if isinstance(p.ctype, JPointer):
                ptype = PointerType(p.ctype.element, "private",
                                    is_const=(p.ctype.mode == "r"))
                kparams.append(kast.Param(p.name, ptype, SPAN))
                param_ctypes.append(p.ctype)
                mode = "rw" if p.ctype.mode == "inc" else p.ctype.mode
                intent_markers.append(
                    f"/*@intent:{self.name}.{p.name}={mode}*/")
            elif isinstance(p.ctype, JType):
                kparams.append(kast.Param(p.name, p.ctype.ctype, SPAN))
                param_ctypes.append(p.ctype.ctype)
            else:
                kparams.append(kast.Param(p.name, p.ctype, SPAN))
                param_ctypes.append(p.ctype)

        main = kast.FunctionDef(self.name, R, kparams,
                                kast.CompoundStmt(decls + body_stmts, SPAN),
                                SPAN)
        main._py_line = self.fdef.lineno + self.line_offset

        helper_fns: List[kast.FunctionDef] = []
        for src in self.helpers.values():
            helper_fns.extend(parse(src, "<jit helper>").functions)
        program = kast.Program(functions=helper_fns + [main])
        return Lowered(program=program, main=main, return_ctype=R,
                       param_ctypes=tuple(param_ctypes),
                       intent_markers=intent_markers)
