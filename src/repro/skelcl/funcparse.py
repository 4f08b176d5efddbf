"""Parsing of user-supplied customizing functions.

SkelCL users pass functions as plain OpenCL-C strings (§3.3): the
library parses them to learn the function name and signature, which
drive kernel code generation and container type checking — and, for
MapOverlap, to rewrite the signature with the hidden position/geometry
parameters the generated ``get()`` accessor needs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

from ..kernelc import ast
from ..kernelc.ctypes_ import CType, PointerType, ScalarType
from ..kernelc.diagnostics import CompileError
from ..kernelc.parser import parse
from ..kernelc.preprocessor import preprocess
from .runtime import SkelCLError


def rename_function(source: str, old_name: str, new_name: str) -> str:
    """Rename a function (and its uses) in an OpenCL-C source string."""
    return re.sub(rf"\b{re.escape(old_name)}\b", new_name, source)


@dataclass(frozen=True)
class UserFunction:
    source: str  # the (preprocessed) full user source, possibly with helpers
    name: str  # the customizing function: the *last* function defined
    return_type: CType
    param_types: Tuple[CType, ...]
    param_names: Tuple[str, ...]
    definition: ast.FunctionDef
    function_names: Tuple[str, ...]  # every function the source defines

    @property
    def arity(self) -> int:
        return len(self.param_types)

    def renamed(self, suffix: str, name: Optional[str] = None) -> Tuple[str, str]:
        """The source with *every* function it defines renamed, so that
        several user sources — whose helpers may collide — coexist in
        one generated program: helpers get ``suffix`` appended, the
        customizing function becomes ``name`` (default: its own name
        plus ``suffix``).  Returns (source, customizing function name)."""
        name = name or f"{self.name}{suffix}"
        source = self.source
        for function in self.function_names:
            source = rename_function(
                source, function, name if function == self.name else f"{function}{suffix}")
        return source, name


@lru_cache(maxsize=64)
def parse_user_function(source: str) -> UserFunction:
    """Parse a customizing function string.

    The string may contain several helper functions; the last function
    defined is the customizing function (as in SkelCL).  Skeletons are
    routinely constructed from one string over and over (the paper's
    listings do it inside loops), so the most recent sources are parsed
    once and share their — frozen — :class:`UserFunction`.
    """
    expanded = preprocess(source, "<user function>")
    try:
        program = parse(expanded, "<user function>")
    except CompileError as exc:
        raise SkelCLError(f"cannot parse user function:\n{exc}") from exc
    if not program.functions:
        raise SkelCLError("user function source defines no function")
    fn = program.functions[-1]
    if fn.is_kernel:
        raise SkelCLError("a customizing function must not be a __kernel")
    return UserFunction(
        source=expanded,
        name=fn.name,
        return_type=fn.return_type,
        param_types=tuple(p.declared_type for p in fn.params),
        param_names=tuple(p.name for p in fn.params),
        definition=fn,
        function_names=tuple(f.name for f in program.functions),
    )


def scalar_param(user_function: UserFunction, index: int) -> ScalarType:
    ctype = user_function.param_types[index]
    if not isinstance(ctype, ScalarType) or not ctype.is_arithmetic():
        raise SkelCLError(
            f"parameter {index} of {user_function.name!r} must be a scalar "
            f"arithmetic type, got {ctype}"
        )
    return ctype


def scalar_return(user_function: UserFunction) -> ScalarType:
    ctype = user_function.return_type
    if not isinstance(ctype, ScalarType) or not ctype.is_arithmetic():
        raise SkelCLError(
            f"{user_function.name!r} must return a scalar arithmetic type, got {ctype}"
        )
    return ctype


def pointer_param(user_function: UserFunction, index: int) -> PointerType:
    ctype = user_function.param_types[index]
    if not isinstance(ctype, PointerType):
        raise SkelCLError(
            f"parameter {index} of {user_function.name!r} must be a pointer, got {ctype}"
        )
    return ctype


def append_hidden_params(user_function: UserFunction, extra_params: str) -> str:
    """Rewrite the customizing function's signature, appending
    ``extra_params`` (e.g. ``"long _gx, int _w"``) — used by MapOverlap
    to put the hidden geometry arguments in scope for ``get()``.
    """
    source = user_function.source
    body_offset = user_function.definition.body.span.start.offset
    close = source.rfind(")", 0, body_offset)
    if close < 0:
        raise SkelCLError("cannot locate the user function's parameter list")
    # Empty parameter list: don't produce "(, extra)".
    open_paren = source.rfind("(", 0, close)
    inner = source[open_paren + 1 : close].strip()
    separator = ", " if inner and inner != "void" else ""
    if inner == "void":
        return source[:open_paren + 1] + extra_params + source[close:]
    return source[:close] + separator + extra_params + source[close:]
