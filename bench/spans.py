"""In-memory span recorder for the traced benchmark run.

The traced run rebinds a fixed table of *public* layer entry points
(:data:`ENTRY_POINTS`) to recording wrappers, from inside ``bench/`` —
nothing under ``src/`` knows it is being traced.  Each table row names
the attribute *the caller resolves*: ``repro.ocl.program`` imports
``compile_preprocessed`` by name, so that module's binding is patched,
not ``repro.kernelc.frontend``'s.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the enclosing span (-1 for a root), ``op`` the benchmark step it
belongs to (-1 during set-up).  Spans stay in memory until the child
process writes them out after its clock has stopped.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: (span name, module, attribute path).  A row whose target no longer
#: exists is skipped and reported in ``Tracer.unresolved`` — a refactor
#: under src/ must never fail the benchmark, only lose that layer's row.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("kernelc.preprocess", "repro.ocl.program", "preprocess_source"),
    ("kernelc.frontend", "repro.ocl.program", "compile_preprocessed"),
    ("kernelc.lint", "repro.ocl.program", "lint_program"),
    ("kernelc.compiler", "repro.ocl.program", "compile_program"),
    ("kernelc.progcache.load", "repro.kernelc.progcache", "load"),
    ("kernelc.progcache.store", "repro.kernelc.progcache", "store"),
    ("kernelc.vectorize.plan", "repro.kernelc.vectorize", "plan_for"),
    ("kernelc.vectorize.execute", "repro.kernelc.vectorize", "execute"),
    ("analysis.access", "repro.ocl.queue", "kernel_buffer_accesses"),
    ("analysis.races.observe", "repro.analysis.races", "RaceDetector.observe"),
    ("ocl.program.build", "repro.ocl.program", "Program.build"),
    ("ocl.executor", "repro.ocl.queue", "execute_ndrange"),
    ("ocl.queue.enqueue_kernel", "repro.ocl.queue",
     "CommandQueue.enqueue_nd_range_kernel"),
    ("ocl.queue.enqueue_transfer", "repro.ocl.queue",
     "CommandQueue.enqueue_write_buffer"),
    ("ocl.queue.enqueue_transfer", "repro.ocl.queue",
     "CommandQueue.enqueue_read_buffer"),
    ("ocl.queue.enqueue_transfer", "repro.ocl.queue",
     "CommandQueue.enqueue_copy_buffer"),
    ("ocl.context.finish", "repro.ocl.context", "Context.finish_all"),
    ("skelcl.runtime.init", "repro.skelcl", "init"),
    ("skelcl.runtime.init", "repro.skelcl.runtime", "init"),
    ("skelcl.map.call", "repro.skelcl.map", "Map.__call__"),
    ("skelcl.zip.call", "repro.skelcl.zip", "Zip.__call__"),
    ("skelcl.reduce.call", "repro.skelcl.reduce", "Reduce.__call__"),
    ("skelcl.scan.call", "repro.skelcl.scan", "Scan.__call__"),
    ("skelcl.mapoverlap.call", "repro.skelcl.mapoverlap", "MapOverlap.__call__"),
    ("skelcl.allpairs.call", "repro.skelcl.allpairs", "AllPairs.__call__"),
    ("skelcl.container.upload", "repro.skelcl.container",
     "Container.ensure_on_devices"),
    ("skelcl.container.download", "repro.skelcl.container",
     "Container.ensure_host"),
    ("plan.planner.defer", "repro.plan.planner", "Planner.defer_map"),
    ("plan.planner.defer", "repro.plan.planner", "Planner.defer_zip"),
    ("plan.planner.defer", "repro.plan.planner", "Planner.defer_reduce"),
    ("plan.planner.defer", "repro.plan.planner", "Planner.defer_opaque"),
    ("plan.planner.flush", "repro.plan.planner", "Planner.flush"),
    ("plan.planner.flush", "repro.plan.planner", "Planner.flush_subset"),
    ("plan.planner.flush", "repro.plan.planner", "Planner.reduce_now"),
    ("plan.planner.flush", "repro.plan.planner", "Planner.force_node"),
    ("plan.compose", "repro.plan.compose", "fused_map"),
    ("plan.compose", "repro.plan.compose", "fused_zip"),
    ("plan.compose", "repro.plan.compose", "premap_of"),
    ("plan.compose", "repro.plan.compose", "footprints_fusable"),
    ("jit.decorate", "repro.skelcl", "jit"),
    ("jit.lower_source", "repro.jit.frontend", "JitFunction.lower_source"),
    ("serve.submit", "repro.serve.server", "ClientSession.submit"),
    ("serve.submit", "repro.serve.server", "ClientSession.submit_map"),
    ("serve.scheduler.drain", "repro.serve.scheduler", "Scheduler.drain"),
    ("serve.server.dispatch", "repro.serve.server", "Server.dispatch"),
)

#: Spans whose return value is kept (the checked AST, for its node count).
CAPTURE_RETURNS = frozenset({"kernelc.frontend"})

Span = List  # [name, start, end, parent, op]


def _lookup(owner, leaf: str):
    """``owner.leaf`` as defined by a module or by a class and its bases
    (never by the metaclass: ``getattr(cls, "__call__")`` would find
    ``type.__call__``)."""
    if not isinstance(owner, type):
        return getattr(owner, leaf)
    for klass in owner.__mro__:
        if leaf in vars(klass):
            return vars(klass)[leaf]
    raise AttributeError(leaf)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op = -1
        self.unresolved: List[str] = []
        self.captured: Dict[str, list] = {}
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep = self.captured.setdefault(name, []) if name in CAPTURE_RETURNS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if keep is not None:
                keep.append(result)
            return result

        return traced

    def install(self, entry_points: Sequence[Tuple[str, str, str]] = ENTRY_POINTS) -> None:
        """Rebind every resolvable entry point to a recording wrapper."""
        self.unresolved = []
        for name, module_name, path in entry_points:
            *owners, leaf = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owners:
                    owner = getattr(owner, part)
                original = _lookup(owner, leaf)
            except (ImportError, AttributeError):
                self.unresolved.append(f"{module_name}.{path}")
                continue
            setattr(owner, leaf, self.wrap(name, original))
            self._patched.append((owner, leaf, original))

    def uninstall(self) -> None:
        """Restore the original bindings (recorded spans are kept)."""
        for owner, leaf, original in reversed(self._patched):
            setattr(owner, leaf, original)
        self._patched = []

    def write(self, path: str) -> None:
        """``{"names": [...], "spans": [[name index, start s, end s,
        parent, op], ...]}`` with times relative to the first span."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round(s - origin, 7), round(e - origin, 7), p, op]
                for n, s, e, p, op in self.spans]
        with open(path, "w") as handle:
            json.dump({"names": names, "unresolved": self.unresolved,
                       "spans": rows}, handle)


def self_times(spans: Sequence[Span]) -> Dict[str, Tuple[float, int, float]]:
    """``{name: (self seconds, span count, total seconds)}``.

    Self time is a span's duration minus the interval its child spans
    cover.  One thread records the spans, so children are properly
    nested and disjoint, and the covered interval is the sum of the
    direct children's durations.  ``parent`` indexes into ``spans``;
    a parent outside the sequence (-1) marks a root."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: Dict[str, Tuple[float, int, float]] = {}
    for (name, start, end, _, _), child_time in zip(spans, covered):
        self_s, count, total = out.get(name, (0.0, 0, 0.0))
        out[name] = (self_s + (end - start) - child_time, count + 1,
                     total + (end - start))
    return out


def window(spans: Sequence[Span], first_op: int, last_op: int) -> List[Span]:
    """The spans of steps ``first_op <= op < last_op``, re-indexed so
    ``parent`` stays valid (parents outside the window become roots)."""
    kept = {}
    out: List[Span] = []
    for i, span in enumerate(spans):
        if first_op <= span[4] < last_op:
            kept[i] = len(out)
            out.append([span[0], span[1], span[2], kept.get(span[3], -1), span[4]])
    return out


def root_time(spans: Sequence[Span]) -> float:
    """Wall time covered by spans that have no parent."""
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)


def count_nodes(obj, _seen: Optional[set] = None) -> int:
    """Number of AST nodes reachable from ``obj`` (objects defined in
    ``repro.kernelc.ast``, found by walking attributes and sequences)."""
    seen = _seen if _seen is not None else set()
    if isinstance(obj, (list, tuple)):
        return sum(count_nodes(item, seen) for item in obj)
    if isinstance(obj, dict):
        return sum(count_nodes(item, seen) for item in obj.values())
    if type(obj).__module__ != "repro.kernelc.ast" or id(obj) in seen:
        return 0
    seen.add(id(obj))
    fields = getattr(obj, "__dict__", None)
    if fields is None:
        fields = {slot: getattr(obj, slot, None)
                  for slot in getattr(type(obj), "__slots__", ())}
    return 1 + sum(count_nodes(value, seen) for value in fields.values())
