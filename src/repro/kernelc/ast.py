"""Abstract syntax tree for the OpenCL-C subset.

Nodes are plain dataclasses carrying a :class:`Span`.  After type
checking, expression nodes additionally carry a ``ctype`` attribute
(filled in by :mod:`repro.kernelc.typecheck`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import List, Optional, Tuple, get_args, get_type_hints

from .ctypes_ import CType
from .source import Span


class Node:
    span: Span
    # Set by the lowering (``compiler.compile_program``) and pickled with
    # the AST: the ops the statement charged through this node costs,
    # load-CSE savings taken off (an expression a statement evaluates, a
    # ``switch`` for its subject and case comparisons).  Both engines
    # charge it.
    charge: int = 0


class Expr(Node):
    """Base of all expressions; ``ctype`` is set by the type checker."""

    ctype: Optional[CType] = None
    # True when this expression denotes an lvalue (set by the checker).
    is_lvalue: bool = False
    # Load CSE, set by the lowering on ``Index`` loads: the earlier load
    # of the same basic block whose value this one reuses, and whether a
    # later load reuses this one's.
    cse_source: Optional["Index"] = None
    cse_origin: bool = False


class Stmt(Node):
    pass


# -- expressions -----------------------------------------------------------


@dataclass
class IntLiteral(Expr):
    value: int
    span: Span
    suffix: str = ""


@dataclass
class FloatLiteral(Expr):
    value: float
    span: Span
    suffix: str = ""


@dataclass
class CharLiteral(Expr):
    value: int
    span: Span


@dataclass
class StringLiteral(Expr):
    value: str
    span: Span


@dataclass
class Identifier(Expr):
    name: str
    span: Span


@dataclass
class UnaryOp(Expr):
    op: str  # one of: + - ! ~ * & ++ -- (prefix)
    operand: Expr
    span: Span


@dataclass
class PostfixOp(Expr):
    op: str  # ++ or --
    operand: Expr
    span: Span


@dataclass
class BinaryOp(Expr):
    op: str
    left: Expr
    right: Expr
    span: Span


@dataclass
class Assignment(Expr):
    op: str  # '=', '+=', '-=', ...
    target: Expr
    value: Expr
    span: Span


@dataclass
class Conditional(Expr):
    condition: Expr
    then_expr: Expr
    else_expr: Expr
    span: Span


@dataclass
class Call(Expr):
    callee: str
    args: List[Expr]
    span: Span
    # Filled by the checker: 'builtin', 'user', or 'constructor'.
    kind: str = ""


@dataclass
class Index(Expr):
    base: Expr
    index: Expr
    span: Span


@dataclass
class Member(Expr):
    base: Expr
    member: str  # vector component access: x/y/z/w, lo/hi, sN, or swizzle
    span: Span


@dataclass
class Cast(Expr):
    target_type: CType
    operand: Expr
    span: Span


@dataclass
class VectorLiteral(Expr):
    """OpenCL vector construction ``(float4)(a, b, c, d)``.

    Also reused (with ``target_type=None`` and ``is_array_initializer``
    set) for brace array initializers ``{1, 2, 3}``.
    """

    target_type: Optional[CType]
    elements: List[Expr]
    span: Span
    is_array_initializer: bool = False


@dataclass
class SizeofExpr(Expr):
    queried_type: Optional[CType]
    operand: Optional[Expr]
    span: Span


@dataclass
class CommaExpr(Expr):
    parts: List[Expr]
    span: Span


# -- statements ------------------------------------------------------------


@dataclass
class VarDecl(Node):
    name: str
    declared_type: CType
    init: Optional[Expr]
    span: Span
    address_space: str = "private"
    is_const: bool = False


@dataclass
class DeclStmt(Stmt):
    decls: List[VarDecl]
    span: Span


@dataclass
class ExprStmt(Stmt):
    expr: Optional[Expr]  # None for the empty statement ';'
    span: Span


@dataclass
class CompoundStmt(Stmt):
    statements: List[Stmt]
    span: Span


@dataclass
class IfStmt(Stmt):
    condition: Expr
    then_branch: Stmt
    else_branch: Optional[Stmt]
    span: Span


@dataclass
class ForStmt(Stmt):
    init: Optional[Stmt]  # DeclStmt or ExprStmt
    condition: Optional[Expr]
    increment: Optional[Expr]
    body: Stmt
    span: Span


@dataclass
class WhileStmt(Stmt):
    condition: Expr
    body: Stmt
    span: Span


@dataclass
class DoStmt(Stmt):
    body: Stmt
    condition: Expr
    span: Span


@dataclass
class ReturnStmt(Stmt):
    value: Optional[Expr]
    span: Span


@dataclass
class BreakStmt(Stmt):
    span: Span


@dataclass
class ContinueStmt(Stmt):
    span: Span


@dataclass
class SwitchCase(Node):
    """One ``case value:`` (or ``default:``) label with its statements."""

    value: Optional[Expr]  # None for default
    body: List[Stmt]
    span: Span


@dataclass
class SwitchStmt(Stmt):
    subject: Expr
    cases: List[SwitchCase]
    span: Span


# -- declarations ----------------------------------------------------------


@dataclass
class Param(Node):
    name: str
    declared_type: CType
    span: Span


@dataclass
class FunctionDef(Node):
    name: str
    return_type: CType
    params: List[Param]
    body: Optional[CompoundStmt]  # None for a prototype
    span: Span
    is_kernel: bool = False
    attributes: Tuple[str, ...] = ()


@dataclass
class GlobalDecl(Node):
    """A file-scope constant declaration (``__constant`` data)."""

    decl: VarDecl
    span: Span


@dataclass
class Program(Node):
    functions: List[FunctionDef]
    globals: List[GlobalDecl] = field(default_factory=list)
    prototypes: List[FunctionDef] = field(default_factory=list)

    def function(self, name: str) -> FunctionDef:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(f"no function named {name!r}")

    def kernels(self) -> List[FunctionDef]:
        return [fn for fn in self.functions if fn.is_kernel]


# -- traversal --------------------------------------------------------------


def _holds_nodes(hint) -> bool:
    if isinstance(hint, type):
        return issubclass(hint, Node)
    return any(_holds_nodes(arg) for arg in get_args(hint))


@lru_cache(maxsize=None)
def _child_fields(cls: type) -> Tuple[str, ...]:
    """The dataclass fields of node class ``cls`` declared to hold nodes,
    in declaration order.  Types, spans and whatever a later pass sets on
    a node (``Call.callee_def`` would make recursive functions cyclic) are
    no fields of that kind, so an annotation is never taken for a child."""
    hints = get_type_hints(cls)
    return tuple(f.name for f in fields(cls) if _holds_nodes(hints[f.name]))


def children(node: Node) -> List[Node]:
    """The direct child nodes of ``node`` in source order."""
    result: List[Node] = []
    for name in _child_fields(type(node)):
        value = getattr(node, name)
        if isinstance(value, Node):
            result.append(value)
        elif value:  # a list of nodes
            result.extend(value)
    return result


def walk(node: Node):
    """Yield ``node`` and all its descendants, pre-order."""
    yield node
    for child in children(node):
        yield from walk(child)


def written_lvalue(node: Node) -> Optional[Expr]:
    """The lvalue ``node`` writes — an assignment's target or the operand
    of a ``++`` / ``--`` — or None for a node that writes nothing."""
    if isinstance(node, Assignment):
        return node.target
    if isinstance(node, (UnaryOp, PostfixOp)) and node.op in ("++", "--"):
        return node.operand
    return None
