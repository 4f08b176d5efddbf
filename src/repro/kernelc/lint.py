"""Kernel-source lint: static checks beyond what the type checker enforces.

Runs over the *checked* AST (``ctype``/``symbol``/``resolved``
annotations present) and reports through the same
:class:`~repro.kernelc.diagnostics.DiagnosticSink` machinery as the rest
of the front-end, so findings render with carets like compile errors.

The flow-sensitive rules (``barrier-divergence``, ``constant-index-oob``,
``symbolic-oob``, ``uncoalesced-access``, ``strided-global-read``) are
queries on the SkelAccess summary of each kernel
(:mod:`repro.analysis.affine` — the one abstract interpreter; helper
functions are walked inline, in their callers' context, and on their
own only when no kernel reaches them).  The rest are plain AST scans.

Rule catalogue (see ``docs/analysis.md``):

========================  ========  =================================================
rule                      severity  fires when
========================  ========  =================================================
barrier-divergence        warning   ``barrier()`` inside control flow whose condition
                                    depends on ``get_global_id``/``get_local_id`` —
                                    directly, through locals or through helper calls;
                                    work-items may disagree on reaching it (UB on GPUs)
constant-index-oob        error     an index into a fixed-size array evaluates to a
                                    constant outside ``[0, length)`` and its guards
                                    are not provably infeasible
symbolic-oob              error     a varying index into a fixed-size array has a
                                    *witness work-item* — guaranteed to exist for any
                                    launch honouring ``reqd_work_group_size`` — that
                                    satisfies every guard on the access and is out of
                                    bounds
unused-binding            warning   a parameter or local variable is never read
write-to-constant         error     a store through ``__constant`` memory
missing-return            warning   a non-void function may fall off the end
                                    without returning a value
uncoalesced-access        warning   a store through a ``__global`` pointer whose
                                    per-work-item stride along dimension 0 is >= 2
                                    elements (or symbolic) — adjacent lanes hit
                                    non-adjacent memory, wasting DRAM bursts
strided-global-read       warning   the load-side twin of ``uncoalesced-access``
========================  ========  =================================================

A finding can be acknowledged with a ``skelcl-lint: allow(<rule>)``
comment on the diagnostic's line or the line above it.

Entry points: :func:`lint_program` (library), ``python -m repro.kernelc
--lint`` (CLI), and ``Program.build()`` which lints every build and
keeps the findings in ``Program.lint_diagnostics``.
"""

from __future__ import annotations

import re
from typing import List, Optional, Set

from ..analysis import affine
from . import ast
from .ctypes_ import PointerType
from .diagnostics import Diagnostic, DiagnosticSink

_ALLOW_RE = re.compile(r"skelcl-lint:\s*allow\(([a-z0-9-]+)\)")
_RULE_RE = re.compile(r"\[([a-z0-9-]+)\]\s*$")


def lint_program(program: ast.Program,
                 sink: Optional[DiagnosticSink] = None) -> List[Diagnostic]:
    """Run every lint rule over a checked ``program``; returns the
    diagnostics (also accumulated into ``sink`` when one is given)."""
    if sink is None:
        sink = DiagnosticSink(getattr(program, "source", None))
    before = len(sink.diagnostics)
    # The flow-sensitive rules are queries on the SkelAccess summaries:
    # one per kernel (helpers are walked inline, in their callers'
    # context) plus one per helper no kernel reaches.
    summaries = {fn.name: affine.cached_kernel_summary(program, fn)
                 for fn in program.kernels()}
    reached = set().union(*(s.reached for s in summaries.values()))
    seen: Set[int] = set()  # array sites already reported (shared helpers)
    for fn in program.functions:
        if fn.body is None:
            continue
        summary = summaries.get(fn.name)
        if summary is None and fn.name not in reached:
            summary = affine.cached_kernel_summary(program, fn)
        if summary is not None:
            _check_barrier_divergence(summary, sink)
            _check_array_bounds(summary, sink, seen)
        _check_unused_bindings(fn, sink)
        _check_write_to_constant(fn, sink)
        _check_missing_return(fn, sink)
        if fn.is_kernel:
            _check_coalescing(summary, sink)
    _apply_suppressions(program, sink, before)
    return sink.diagnostics[before:]


def _apply_suppressions(program: ast.Program, sink: DiagnosticSink,
                        before: int) -> None:
    """Drop findings acknowledged by a ``skelcl-lint: allow(rule)``
    comment on the same or the preceding source line."""
    source = getattr(program, "source", None)
    if source is None:
        return

    def allowed(diag: Diagnostic) -> bool:
        rule = _RULE_RE.search(diag.message)
        if rule is None or diag.span is None or diag.span.start.line <= 0:
            return False
        for line in (diag.span.start.line, diag.span.start.line - 1):
            for m in _ALLOW_RE.finditer(source.line_text(line)):
                if m.group(1) == rule.group(1):
                    return True
        return False

    sink.diagnostics[before:] = [
        d for d in sink.diagnostics[before:] if not allowed(d)
    ]


# -- rule: barrier-divergence ------------------------------------------------


def _check_barrier_divergence(summary, sink: DiagnosticSink) -> None:
    for span, condition_span in summary.divergent_barriers:
        sink.warning(
            "barrier() inside control flow that diverges across "
            "work-items (condition at "
            f"{condition_span.start}) — work-items taking different "
            "paths deadlock or corrupt local memory on real GPUs "
            "[barrier-divergence]",
            span,
        )


# -- rule: unused-binding ----------------------------------------------------


def _check_unused_bindings(fn: ast.FunctionDef, sink: DiagnosticSink) -> None:
    used: Set[str] = set()
    for node in ast.walk(fn.body):
        if isinstance(node, ast.Identifier):
            used.add(node.name)
    for param in fn.params:
        if param.name not in used:
            sink.warning(
                f"parameter {param.name!r} of {fn.name}() is never used "
                f"[unused-binding]",
                param.span,
            )
    for node in ast.walk(fn.body):
        if isinstance(node, ast.VarDecl) and node.name not in used:
            sink.warning(
                f"local variable {node.name!r} is never used [unused-binding]",
                node.span,
            )


# -- rule: write-to-constant -------------------------------------------------


def _lvalue_in_constant_space(target: ast.Expr) -> bool:
    """True when ``target`` denotes storage in ``__constant`` memory."""
    node = target
    while isinstance(node, (ast.Index, ast.Member)):
        node = node.base
    if isinstance(node, ast.UnaryOp) and node.op == "*":
        pointee = getattr(node.operand, "ctype", None)
        return isinstance(pointee, PointerType) and pointee.address_space == "constant"
    symbol = getattr(node, "symbol", None)
    if symbol is None:
        return False
    if symbol.address_space == "constant":
        return True
    # Indexing a __constant pointer parameter.
    ctype = symbol.ctype
    return (target is not node and isinstance(ctype, PointerType)
            and ctype.address_space == "constant")


def _check_write_to_constant(fn: ast.FunctionDef, sink: DiagnosticSink) -> None:
    for node in ast.walk(fn.body):
        target = ast.written_lvalue(node)
        if target is not None and _lvalue_in_constant_space(target):
            sink.error(
                "write to __constant memory [write-to-constant]",
                node.span,
            )


# -- rule: missing-return ----------------------------------------------------


def _check_missing_return(fn: ast.FunctionDef, sink: DiagnosticSink) -> None:
    if fn.return_type.is_void() or fn.is_kernel:
        return
    if not affine.always_returns(fn.body):
        sink.warning(
            f"{fn.name}() returns {fn.return_type} but may fall off the end "
            f"without a return value [missing-return]",
            fn.span,
        )


# -- rules: constant-index-oob / symbolic-oob ---------------------------------
#
# One pass over the fixed-size-array sites of the summary.  Only
# *definite* violations are reported.  A constant index outside
# ``[0, length)`` is wrong on every execution that reaches it
# (constant-index-oob).  For an index that varies, symbolic-oob searches
# for a concrete *witness work-item* — guaranteed to exist for any
# launch honouring ``reqd_work_group_size`` — that satisfies every guard
# on the access and lands out of bounds.

_MAX_WITNESS_SYMS = 6


def _witness_env(summary) -> affine.EvalEnv:
    """What every conforming launch is guaranteed to attain: work-item
    (0,..,0) always exists; with a ``reqd_work_group_size`` attribute
    the whole first group does (the NDRange API enforces that local
    sizes divide global sizes), and the local sizes are known."""
    reqd = summary.reqd_wg or (1, 1, 1)
    uniforms, ranges = {}, {}
    for d in range(3):
        if summary.reqd_wg is not None:
            uniforms[("lsize", d)] = reqd[d]
        limit = max(0, reqd[d] - 1)
        ranges[("gid", d)] = (0, limit)
        ranges[("lid", d)] = (0, limit)
        ranges[("grp", d)] = (0, 0)
    return affine.EvalEnv(uniforms, ranges)


def _corners(ranges: dict, syms: list) -> list:
    points = [{}]
    for sym in syms:
        lo, hi = ranges[sym]
        values = (lo,) if lo == hi else (lo, hi)
        points = [{**p, sym: v} for p in points for v in values]
    return points


def _check_array_bounds(summary, sink: DiagnosticSink, seen: Set[int]) -> None:
    witness = _witness_env(summary)
    anywhere = affine.EvalEnv(
        witness.uniforms, dict.fromkeys(witness.ranges, (0, affine.IV_LIMIT)))
    for site in summary.array_sites:
        if site.index is None or id(site.span) in seen:
            continue
        try:
            bound = affine.bound_form(site.index, site.guards, anywhere,
                                      drop_unbound_guards=True)
        except affine.Unresolvable:
            continue  # references a scalar parameter: not definite
        if bound is None:
            continue  # provably never reached
        index, _, coeffs, _ = bound
        if coeffs:
            message = _symbolic_oob(site, witness)
        elif 0 <= index < site.length:
            message = None
        else:
            message = (f"index {index} is out of bounds for array of length "
                       f"{site.length} [constant-index-oob]")
        if message is not None:
            seen.add(id(site.span))
            sink.error(message, site.span)


def _symbolic_oob(site, witness: affine.EvalEnv) -> Optional[str]:
    guarded = {s for guard in site.guards for s in guard.terms}
    # An induction symbol is pinned to iteration 0 below, which
    # presumes the loop body executes at least once.  That is only
    # justified when some captured guard constrains the symbol (an
    # affine loop condition); a guard-free iv comes from a loop the
    # analysis could not model, which may run zero times — no
    # definite witness exists there.
    if any(s[0] == "iv" and s not in guarded for s in site.index.terms):
        return None
    ivs = [s for s in guarded if s[0] == "iv"]
    pinned = affine.EvalEnv(
        witness.uniforms, {**witness.ranges, **dict.fromkeys(ivs, (0, 0))})
    try:  # a witness has to satisfy every guard
        bound = affine.bound_form(site.index, site.guards, pinned)
    except affine.Unresolvable:
        return None
    if bound is None:
        return None  # guards infeasible over the witness domain
    ranges = bound[3]
    syms = sorted(ranges)
    if len(syms) > _MAX_WITNESS_SYMS:
        return None
    for point in _corners(ranges, syms):
        here = affine.bound_form(site.index, site.guards, affine.EvalEnv(
            witness.uniforms, {s: (v, v) for s, v in point.items()}))
        if here is None:
            continue  # this corner fails a guard
        index = here[0]
        if index < 0 or index >= site.length:
            at = ", ".join(
                f"{affine.format_sym(s)}={v}" for s, v in point.items())
            return (f"index {site.index.format()} = {index} is out of "
                    f"bounds for array '{site.name}' of length "
                    f"{site.length} at {at or 'any work-item'} "
                    f"[symbolic-oob]")
    return None


# -- rules: uncoalesced-access / strided-global-read --------------------------

#: Coalescing threshold: an element stride of +-1 (or 0, a broadcast)
#: between lane-adjacent work-items coalesces into one DRAM burst;
#: anything wider — or symbolic — splits the warp's accesses.
_COALESCE_MAX_STRIDE = 1


def _check_coalescing(summary, sink: DiagnosticSink) -> None:
    seen: Set[tuple] = set()
    for psum in summary.params.values():
        if not psum.affine or psum.space != "global":
            continue
        for fp in psum.footprints:
            stride = fp.warp_stride()
            if stride is not None and abs(stride) <= _COALESCE_MAX_STRIDE:
                continue
            has_variant = bool(fp.index.terms)
            if not has_variant:
                continue  # uniform broadcast: served by one transaction
            rule = ("uncoalesced-access" if fp.mode == "w"
                    else "strided-global-read")
            key = (rule, fp.param, id(fp.span))
            if key in seen:
                continue
            seen.add(key)
            shown = "symbolic" if stride is None else str(stride)
            verb = "store to" if fp.mode == "w" else "load from"
            sink.warning(
                f"{verb} __global '{fp.param}' has per-work-item stride "
                f"{shown} elements along dimension 0 — adjacent work-items "
                f"touch non-adjacent memory, splitting the DRAM burst "
                f"[{rule}]",
                fp.span,
            )
