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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..kernelc import ast
from . import affine

READ = "r"
WRITE = "w"
READ_WRITE = "rw"

#: Above this many resolved ranges per parameter the per-site set is
#: collapsed to its dense hull, keeping race checks O(small).
_MAX_RANGES_PER_PARAM = 8


@dataclass(frozen=True)
class BufferAccess:
    """One command's access to a byte range of one buffer.

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

    @staticmethod
    def read(buffer, offset: int, nbytes: int) -> "BufferAccess":
        return BufferAccess(buffer.uid, buffer.name or "buffer",
                            int(offset), int(offset) + int(nbytes), READ)

    @staticmethod
    def write(buffer, offset: int, nbytes: int) -> "BufferAccess":
        return BufferAccess(buffer.uid, buffer.name or "buffer",
                            int(offset), int(offset) + int(nbytes), WRITE)

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


def _count_summary(metrics, kind: str) -> None:
    if metrics is not None:
        metrics.counter("skelcl_access_summary_total", kind=kind).inc()


def _resolve_param(summary, param_name, value, env) -> Optional[List[BufferAccess]]:
    """Footprint-derived accesses for one Buffer argument, or None to
    fall back to the whole-chunk range."""
    psum = summary.params.get(param_name)
    if psum is None or not psum.affine:
        return None
    resolved: List[BufferAccess] = []
    name = value.name or param_name
    for fp in psum.footprints:
        try:
            access = affine.resolve_footprint(fp, env, psum.elem_size,
                                              value.nbytes)
        except (affine.Unresolvable, OverflowError):
            return None
        if access is None:
            continue  # guards infeasible for this launch
        provenance = f"arg {param_name}, index {fp.index.format()}"
        resolved.append(BufferAccess(
            value.uid, name, access.start, access.stop, fp.mode,
            access.stride, access.width, provenance))
    if len(resolved) > _MAX_RANGES_PER_PARAM:
        start = min(a.start for a in resolved)
        stop = max(a.stop for a in resolved)
        resolved = [BufferAccess(value.uid, name, start, stop,
                                 summary.modes[param_name],
                                 provenance=f"arg {param_name}, {len(psum.footprints)} sites")]
    return _merge_ranges(resolved)


def _merge_ranges(accesses: List[BufferAccess]) -> List[BufferAccess]:
    """Coalesce identical-shape duplicates (one site reached through
    several paths) while keeping distinct strides/modes apart."""
    seen: Dict[tuple, BufferAccess] = {}
    for access in accesses:
        key = (access.start, access.stop, access.stride, access.width,
               access.mode)
        if key not in seen:
            seen[key] = access
    return list(seen.values())


def kernel_buffer_accesses(kernel, ndrange=None, metrics=None) -> List[BufferAccess]:
    """The buffer access set of a bound :class:`repro.ocl.Kernel`.

    With an ``ndrange``, every Buffer argument whose parameter has an
    affine summary yields exact per-site byte ranges (with stride and
    provenance), evaluated against the launch geometry and the integer
    scalar arguments; parameters the summary could not model — and
    every parameter when ``ndrange`` is None — get the whole-buffer
    range with the mode the summary recorded.
    ``metrics`` (a SkelScope registry) counts each pointer argument
    under ``skelcl_access_summary_total{kind=affine|fallback}``.
    """
    compiled = kernel.compiled
    summary = affine.cached_kernel_summary(kernel.program.compiled.program,
                                           compiled.definition)
    env = None
    if ndrange is not None:
        env = affine.make_eval_env(ndrange.global_size, ndrange.local_size,
                                   _scalar_args(kernel))
    accesses: List[BufferAccess] = []
    for param, value in zip(compiled.definition.params, kernel._args):
        uid = getattr(value, "uid", None)
        if uid is None:  # not a Buffer (scalar/vector argument)
            continue
        resolved = None
        if env is not None:
            resolved = _resolve_param(summary, param.name, value, env)
        if resolved is not None:
            _count_summary(metrics, "affine")
            accesses.extend(resolved)
            continue
        if ndrange is not None:
            _count_summary(metrics, "fallback")
        mode = summary.modes.get(param.name, READ_WRITE)
        accesses.append(BufferAccess(uid, value.name or param.name,
                                     0, value.nbytes, mode,
                                     provenance=f"arg {param.name}"))
    return accesses
