"""Static bounds checking for MapOverlap customizing functions.

The paper (§3.4): *"In future work, we plan to avoid boundary checks at
runtime by statically proving that all memory accesses are in bounds,
as it is the case in the shown example."*  This module implements that
plan as a *query* on the analysis engine (:mod:`repro.analysis.affine`):
the engine walks the (unchecked) AST of the customizing function with
``get`` registered as an accessor, and :func:`analyze_get_bounds` reads
every ``get(m, dx[, dy])`` offset — and every direct access through the
pointer parameter — back as an :class:`Interval` that must lie within
``[-d, +d]``.

The read-back is conservative by construction: a value is an interval
only over the counters of the loop shapes :func:`_counting_loop` trusts
and under the guards that can be evaluated; a scalar parameter, a
work-item id, any other loop's counter or an unbounded one make it ⊤.
If the pointer escapes the engine's view the proof fails outright.

The proof is sound but incomplete: a success means the generated
``get`` accessor can skip its runtime range check (the MapOverlap
codegen then inlines it as a bare tile access) and the staged halo can
shrink to the proven reach; a failure keeps the checked path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..analysis import affine
from . import ast
from .ctypes_ import PointerType

_UNBOUNDED = (float("-inf"), float("inf"))

#: No launch to evaluate against: uniform symbols stay unbound, only
#: induction symbols have a range.
_NO_LAUNCH = affine.EvalEnv({}, {})


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    @staticmethod
    def top() -> "Interval":
        return Interval(*_UNBOUNDED)

    @property
    def is_top(self) -> bool:
        return self.lo == float("-inf") or self.hi == float("inf")

    def join(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def within(self, lo: int, hi: int) -> bool:
        return lo <= self.lo and self.hi <= hi


@dataclass
class BoundsProof:
    """The result of the analysis."""

    proven: bool
    accesses: List[Tuple[Interval, ...]]
    reason: str = ""


def _counting_loop(loop: ast.ForStmt, step: affine.UExpr) -> bool:
    """The loops whose counter the elision licence trusts: ``for (T i =
    A; i < B; i += c)`` (or ``<=``) with a constant ``c > 0``.

    The engine matches more (descending and pre-declared counters, any
    affine condition), but its forms ignore integer wrap-around — fine
    for a race report or a lint, not for compiling a runtime check out:
    ``for (uint i = 2; i >= 0; --i)`` never leaves the loop.  An
    ascending counter declared in the loop header stops at its bound
    before it can wrap."""
    condition = loop.condition
    return (isinstance(loop.init, ast.DeclStmt)
            and step.is_const and step.const_value > 0
            and isinstance(condition, ast.BinaryOp)
            and condition.op in ("<", "<=")
            and isinstance(condition.left, ast.Identifier)
            and condition.left.name == loop.init.decls[0].name)


def _form_interval(form: affine.AffineForm, guards: affine.Guards,
                   trusted) -> Optional[Interval]:
    """The values ``form`` takes over the trusted induction symbols under
    ``guards``; None when the guards exclude every value.  Anything
    else in the form (a scalar parameter, a work-item id, the counter
    of an untrusted loop, an unbounded counter) makes it ⊤; a guard
    over anything else is dropped, which only widens."""
    if not trusted.issuperset(form.terms):
        return Interval.top()
    guards = tuple(g for g in guards if trusted.issuperset(g.terms))
    try:
        bound = affine.bound_form(form, guards, _NO_LAUNCH,
                                  drop_unbound_guards=True)
    except affine.Unresolvable:
        return Interval.top()
    if bound is None:
        return None
    lo, hi, coeffs, ranges = bound
    if any(ranges[sym][1] >= affine.IV_LIMIT for sym in coeffs):
        return Interval.top()
    return Interval(lo, hi)


def _interval(alts: affine.Alts, guards: affine.Guards,
              trusted) -> Optional[Interval]:
    """Join of :func:`_form_interval` over guarded alternatives."""
    joined = None
    for form, alt_guards in alts:
        if form is None:
            return Interval.top()
        interval = _form_interval(form, guards + alt_guards, trusted)
        if interval is not None:
            joined = interval if joined is None else joined.join(interval)
    return joined


def analyze_get_bounds(function: ast.FunctionDef, overlap: int,
                       accessor_name: str = "get") -> BoundsProof:
    """Try to prove all neighbourhood accesses of ``function`` — ``get``
    offsets plus direct indexing through the pointer parameter — lie in
    [-d, d].  ``function`` may be unchecked (MapOverlap decides between
    the checked and the unchecked accessor before the kernel exists)."""
    summary = affine.summarize_function(function, accessor_name)
    trusted = {iv for iv, (loop, step) in summary.iv_loops.items()
               if _counting_loop(loop, step)}
    accesses: List[Tuple[Interval, ...]] = []
    for offsets, guards in summary.accessor_sites:
        intervals = tuple(_interval(alts, guards, trusted) for alts in offsets)
        if None not in intervals:  # else: never executes
            accesses.append(intervals)
    escape = None
    for param in summary.params.values():
        escape = escape or param.fallback_reason
        for fp in param.footprints:
            interval = _form_interval(fp.index, fp.guards, trusted)
            if interval is not None:
                accesses.append((interval,))
    if escape is None and any(
            isinstance(node, ast.VarDecl)
            and isinstance(node.declared_type, PointerType)
            for node in ast.walk(function)):
        # Policy, not soundness (the engine roots such copies): a
        # customizing function that aliases its neighbourhood keeps the
        # checked accessor and the declared halo, as tests/analysis and
        # tests/kernelc pin it.
        escape = "copied into a local pointer"
    if escape is not None:
        # Otherwise: the pointer was passed to a helper, aliased through
        # something the walk cannot root, or indexed by a value it cannot
        # bound — accesses through it are invisible, so the proof cannot
        # justify eliding checks or shrinking the staged halo.
        name = next(iter(summary.params), None)
        return BoundsProof(
            False, accesses,
            f"pointer parameter {name!r} escapes the tracked access "
            f"patterns ({escape})")
    if not accesses:
        return BoundsProof(True, [], "no get() accesses")
    for offsets in accesses:
        for interval in offsets:
            if not interval.within(-overlap, overlap):
                return BoundsProof(
                    False, accesses,
                    f"offset interval [{interval.lo}, {interval.hi}] may "
                    f"exceed ±{overlap}")
    return BoundsProof(True, accesses, "all offsets within range")
