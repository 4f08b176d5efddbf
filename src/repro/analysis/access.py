"""Buffer access sets: which byte ranges a command reads and writes.

Transfers declare their ranges directly (offset + length).  Kernel
launches read theirs off the kernel's SkelAccess summary
(:func:`repro.analysis.affine.cached_kernel_summary` — one abstract
walk per kernel definition, shared with the lint pass and the planner):

* a parameter the walk summarized as *affine* yields one byte range per
  access site, its footprint evaluated against the concrete NDRange and
  scalar arguments, with a stride — so two kernels writing ``out[2*i]``
  and ``out[2*i+1]`` produce provably disjoint access sets;
* a *fallback* parameter yields the whole buffer with the mode (``r``,
  ``w``, ``rw``) the same walk recorded for it: what it saw read and
  written, both for a pointer that escaped, ``r`` for a ``const``
  pointee, a declared ``/*@intent:*/`` verbatim.

Both over-approximate, so the race detector never misses a conflict
because of them.

What a launch resolves to depends on the launch only through its
*shape* — global and local size, the integer scalar arguments a
footprint or guard names, the byte size of each bound buffer — so
:func:`kernel_buffer_accesses` resolves each shape once per kernel and
afterwards only stamps the resolved rows with the launch's buffers
(``docs/analysis.md``, "Resolution at enqueue").
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from ..kernelc import ast
from . import affine

READ = "r"
WRITE = "w"
READ_WRITE = "rw"

#: Above this many resolved ranges per parameter the per-site set is
#: collapsed to its dense hull, keeping race checks O(small).
_MAX_RANGES_PER_PARAM = 8

#: Resolved launch shapes a kernel summary keeps (least recently used
#: dropped): a skeleton launches a kernel in a handful of shapes — one
#: per device chunk size — so this bounds memory, not the hit rate.
_MAX_LAUNCH_SHAPES = 128


class BufferAccess(NamedTuple):
    """One command's access to a byte range of one buffer (a named
    tuple: an event builds its few at each read of its access set).

    ``stride == 0`` means the range is dense: every byte in
    ``[start, stop)`` may be touched.  ``stride > 0`` means only the
    arithmetic progression ``start + k*stride .. +width`` is touched —
    the footprint of a strided kernel access like ``out[2*gid]``.
    ``provenance`` names the originating kernel argument and index
    expression for race reports."""

    buffer_uid: int
    buffer_name: str
    start: int
    stop: int  # half-open [start, stop)
    mode: str  # READ, WRITE or READ_WRITE
    stride: int = 0
    width: int = 0
    provenance: str = ""

    @property
    def reads(self) -> bool:
        return READ in self.mode

    @property
    def writes(self) -> bool:
        return WRITE in self.mode

    def conflicts_with(self, other: "BufferAccess") -> bool:
        """True when the two accesses touch the same buffer, their byte
        ranges overlap, and at least one of them writes.  Strided
        accesses additionally compare residue classes: interleaved
        progressions that never share a byte do not conflict."""
        if self.buffer_uid != other.buffer_uid:
            return False
        if not (self.writes or other.writes):
            return False
        if not (self.start < other.stop and other.start < self.stop):
            return False
        return not _residue_disjoint(self, other)

    def describe(self) -> str:
        verb = {READ: "reads", WRITE: "writes", READ_WRITE: "reads+writes"}[self.mode]
        shape = f"[{self.start}:{self.stop}]"
        if self.stride:
            shape = f"[{self.start}:{self.stop}:{self.stride}]"
        text = f"{verb} {self.buffer_name}#{self.buffer_uid}{shape}"
        if self.provenance:
            text += f" ({self.provenance})"
        return text


def _residue_disjoint(a: BufferAccess, b: BufferAccess) -> bool:
    """True when two *overlapping* ranges provably share no byte
    because their strided progressions live in different residue
    classes (e.g. ``out[2*i]`` vs ``out[2*i+1]``)."""
    if not a.stride or not b.stride:
        return False  # a dense range meets everything in its span
    g = math.gcd(a.stride, b.stride)
    if g <= 1:
        return False
    # a touches [a.start + i*a.stride, +a.width); b likewise.  Modulo g
    # both progressions are fixed windows; they share a byte iff
    # a.start+u ≡ b.start+v (mod g) for some u in [0, a.width) and
    # v in [0, b.width), i.e. some delta ≡ (a.start - b.start) (mod g)
    # equals v-u and so lies in (-a.width, b.width).
    d0 = (a.start - b.start) % g
    lo = -a.width + 1
    delta = lo + ((d0 - lo) % g)
    return delta >= b.width


# -- kernel access sets -------------------------------------------------------


def pointer_param_modes(program: ast.Program, fn: ast.FunctionDef) -> Dict[str, str]:
    """Access mode (``'r'``, ``'w'`` or ``'rw'``) per pointer parameter
    of ``fn``, read off its (checked) AST's summary — see
    :attr:`repro.analysis.affine.KernelSummary.modes`.  Parameters the
    walk never sees used default to ``'r'`` (a harmless under-claim: an
    unused pointer touches nothing)."""
    return dict(affine.cached_kernel_summary(program, fn).modes)


def _scalar_args(kernel) -> Dict[str, int]:
    """Integer scalar arguments by parameter name (the uniforms the
    affine evaluation substitutes)."""
    scalars: Dict[str, int] = {}
    for param, value in zip(kernel.compiled.definition.params, kernel._args):
        if getattr(value, "uid", None) is not None:
            continue
        if isinstance(value, (int, np.integer)):  # bool included
            scalars[param.name] = int(value)
    return scalars


# A resolved access before it is bound to a buffer — the fields of a
# BufferAccess after ``buffer_uid`` and ``buffer_name``:
# (start, stop, mode, stride, width, provenance).
_Row = Tuple[int, int, str, int, int, str]


def _resolve_param(summary, param_name, nbytes, env) -> Optional[List[_Row]]:
    """Footprint-derived rows for one Buffer argument of ``nbytes``
    bytes, or None to fall back to the whole-chunk range."""
    psum = summary.params.get(param_name)
    if psum is None or not psum.affine:
        return None
    rows: List[_Row] = []
    for fp in psum.footprints:
        try:
            access = affine.resolve_footprint(fp, env, psum.elem_size, nbytes)
        except (affine.Unresolvable, OverflowError):
            return None
        if access is None:
            continue  # guards infeasible for this launch
        rows.append((access.start, access.stop, fp.mode, access.stride, access.width,
                     f"arg {param_name}, index {fp.index.format()}"))
    if len(rows) > _MAX_RANGES_PER_PARAM:
        return [(min(row[0] for row in rows), max(row[1] for row in rows),
                 summary.modes[param_name], 0, 0,
                 f"arg {param_name}, {len(psum.footprints)} sites")]
    # Coalesce identical-shape duplicates (one site reached through
    # several paths) while keeping distinct strides/modes apart.
    merged: Dict[tuple, _Row] = {}
    for row in rows:
        merged.setdefault(row[:5], row)
    return list(merged.values())


def _resolve_launch(kernel, summary, ndrange) -> tuple:
    """A launch's access set, all but the buffers' identity: per Buffer
    argument ``(argument index, parameter name, rows)``, and how many of
    them resolved to each kind (``"affine"``: footprint rows,
    ``"fallback"``: the whole buffer).  The one place rows are computed.
    What it reads of the launch — the geometry, the integer scalar
    arguments, each Buffer's ``nbytes`` — is what :func:`_launch_shape`
    keys the memo on; the rest (footprints, guards, element sizes,
    modes) is the summary's."""
    env = affine.make_eval_env(ndrange.global_size, ndrange.local_size,
                               _scalar_args(kernel))
    bound, kinds = [], {}
    for index, (param, value) in enumerate(zip(kernel.compiled.definition.params,
                                               kernel._args)):
        if getattr(value, "uid", None) is None:  # not a Buffer (scalar/vector argument)
            continue
        rows = _resolve_param(summary, param.name, value.nbytes, env)
        kind = "affine"
        if rows is None:
            kind = "fallback"
            rows = [(0, value.nbytes, summary.modes.get(param.name, READ_WRITE),
                     0, 0, f"arg {param.name}")]
        bound.append((index, param.name, tuple(rows)))
        kinds[kind] = kinds.get(kind, 0) + 1
    return tuple(bound), tuple(kinds.items())


def _launch_shape(kernel, summary, ndrange) -> tuple:
    """The memo key: every launch-dependent value :func:`_resolve_launch`
    reads.  One entry per argument, typed by what the argument is, so a
    Buffer's size, a scalar's value and "not an integer" never collide."""
    shape = [ndrange.global_size, ndrange.local_size]
    scalars = summary.footprint_scalars
    for param, value in zip(kernel.compiled.definition.params, kernel._args):
        if getattr(value, "uid", None) is not None:
            shape.append(value.nbytes)
        elif param.name not in scalars:
            shape.append(None)  # no form names it: it cannot change the answer
        elif isinstance(value, (int, np.integer)):
            shape.append((int(value),))
        else:
            shape.append(())  # unbound in the evaluation: its parameters fall back
    return tuple(shape)


class KernelAccesses:
    """A kernel launch's access set as the launch stamps it: the launch
    shape's resolution (``resolved``, shared by every launch of that
    shape) and the uid and name of each bound Buffer argument in its
    order (``buffers``, flat: ``uid, name, uid, name, …``).  Its
    :class:`BufferAccess` records are built at each :meth:`records`
    call or iteration; two stamps are equal when their records are."""

    __slots__ = ("resolved", "buffers")

    def __init__(self, resolved: tuple, buffers: tuple):
        self.resolved, self.buffers = resolved, buffers

    def records(self) -> List[BufferAccess]:
        held = iter(self.buffers)
        return [BufferAccess._make((uid, name) + row)
                for (_, _, rows), uid, name in zip(self.resolved[0], held, held)
                for row in rows]

    def __iter__(self) -> Iterator[BufferAccess]:
        return iter(self.records())

    def __eq__(self, other) -> bool:
        if not isinstance(other, KernelAccesses):
            return NotImplemented
        return self.records() == other.records()

    def __repr__(self) -> str:
        return f"KernelAccesses({self.records()!r})"


def kernel_buffer_accesses(kernel, ndrange, metrics=None, plan=None) -> KernelAccesses:
    """The buffer access set of a bound :class:`repro.ocl.Kernel`
    launched over ``ndrange``, as a :class:`KernelAccesses` stamp.

    Every Buffer argument whose parameter has an affine summary yields
    exact per-site byte ranges (with stride and provenance), evaluated
    against the launch geometry and the integer scalar arguments;
    parameters the summary could not model get the whole-buffer range
    with the mode the summary recorded.

    Resolution is a pure function of the summary and the *launch shape*
    (:func:`_launch_shape`), so it runs once per shape: the summary keeps
    its :data:`_MAX_LAUNCH_SHAPES` most recently used resolutions, and a
    launch that repeats one only stamps the rows with its own buffers'
    ``uid`` and ``name`` — per argument index, so one buffer bound to
    two parameters needs no special case — and the records are built
    when the stamp is read.  A launch from ``plan`` (a
    :class:`repro.ocl.queue.LaunchPlan`, what a skeleton's launch recipe
    keeps per launch) keeps the resolution on the plan: the plan's later
    launches are hits that compute no key and look nothing up.

    ``metrics`` (a SkelScope registry, or a queue's handles to one)
    counts each launch under ``skelcl_access_memo_total{result=hit|miss}``
    and each of its pointer arguments under
    ``skelcl_access_summary_total{kind=affine|fallback}``.
    """
    resolved = plan and plan.resolved
    if resolved is None:
        summary = affine.cached_kernel_summary(kernel.program.compiled.program,
                                               kernel.compiled.definition)
        memo = summary.launch_shapes
        shape = _launch_shape(kernel, summary, ndrange)
        # pop + re-insert moves a hit to the recent end and, unlike
        # get + move_to_end, cannot trip over another thread's eviction.
        resolved = memo.pop(shape, None)
        if metrics is not None:
            metrics.counter("skelcl_access_memo_total",
                            result="miss" if resolved is None else "hit").inc()
        if resolved is None:
            resolved = _resolve_launch(kernel, summary, ndrange)
        memo[shape] = resolved
        if len(memo) > _MAX_LAUNCH_SHAPES:
            memo.popitem(last=False)
        if plan is not None:
            plan.resolved = resolved
    elif metrics is not None:
        metrics.counter("skelcl_access_memo_total", result="hit").inc()
    bound, kinds = resolved
    if metrics is not None:
        for kind, pointer_arguments in kinds:
            metrics.counter("skelcl_access_summary_total", kind=kind).inc(pointer_arguments)
    args, buffers = kernel._args, ()
    for index, param_name, _ in bound:
        buffers += (args[index].uid, args[index].name or param_name)
    return KernelAccesses(resolved, buffers)
