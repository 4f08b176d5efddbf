"""SkelScope profiling hooks: ``with skelcl.profile() as prof:``.

A :class:`Profile` scopes a region of a program: commands enqueued
inside the ``with`` block are collected at exit (no commands are
added) and attributed:

* ``prof.by_skeleton()`` — critical-path nanoseconds per trace label
  (skeleton name + call site, or ``<write_buffer>``-style command
  buckets for unlabelled transfers); the values sum exactly to the
  critical-path elapsed time;
* ``prof.critical_path()`` — the chain of commands whose durations
  telescope to the elapsed time, walking the event graph backwards
  from the last completion through whichever gate (wait-list edge or
  engine occupancy) actually delayed each command;
* ``prof.metrics`` — the owning context's metrics registry, with the
  timeline gauges derived;
* ``prof.report()`` / ``prof.timeline()`` — the terminal report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .metrics import derive_timeline_metrics
from .timeline import render_timeline


def _bucket(event) -> str:
    return event.label or f"<{event.command_type}>"


@dataclass
class CriticalPath:
    """The command chain that determines the elapsed time.

    ``total_ns`` equals the latest completion timestamp of the profiled
    region (``Context.finish_all()`` when the profile spans the whole
    run); the step durations telescope to it exactly — every step
    starts the instant its predecessor ends."""

    steps: List[object] = field(default_factory=list)  # Events, in time order
    total_ns: int = 0

    def __len__(self) -> int:
        return len(self.steps)

    def by_label(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for event in self.steps:
            key = _bucket(event)
            out[key] = out.get(key, 0) + event.duration_ns
        return out

    def describe(self) -> str:
        lines = [f"critical path: {self.total_ns:,} ns over {len(self.steps)} commands"]
        for event in self.steps:
            lines.append(
                f"  {event.start_ns:>12,} ns  +{event.duration_ns:>10,}  "
                f"GPU{event.device_index}.{event.engine:<8}  {_bucket(event)}"
            )
        return "\n".join(lines)


class Profile:
    """Profiling data for one scoped region (see :func:`profile`)."""

    def __init__(self, context):
        self.context = context
        self.elapsed_ns = 0
        self.events: List[object] = []
        self._start_counts: List[int] = []

    # -- lifecycle -------------------------------------------------------

    def _begin(self) -> None:
        self._start_counts = [len(queue.events) for queue in self.context.queues]

    def _end(self) -> None:
        self.elapsed_ns = self.context.finish_all()
        self.events = []
        for queue, start in zip(self.context.queues, self._start_counts):
            self.events.extend(queue.events[start:])
        derive_timeline_metrics(self.context)

    # -- accessors -------------------------------------------------------

    @property
    def metrics(self):
        return self.context.metrics

    def critical_path(self) -> CriticalPath:
        """Walk the event graph backwards from the latest completion.

        Each command started at ``max(engine-ready, wait-list end)``,
        so its critical predecessor is whichever of the two ended at
        exactly its start time: the wait-list event that gated it, or
        the previous occupant of its engine.  The walk bottoms out at
        time zero; the traversed durations sum to ``total_ns``."""
        if not self.events:
            return CriticalPath([], 0)
        # Engine occupancy index: who ended at time t on each engine.
        # Only commands recorded by the queues participate — the graph
        # is append-only, so this covers every possible predecessor.
        by_engine_end: Dict[tuple, object] = {}
        for queue in self.context.queues:
            for event in queue.events:
                if event.engine == "sync":
                    continue
                key = (event.device_index, event.engine, event.end_ns)
                prior = by_engine_end.get(key)
                if prior is None or event.start_ns > prior.start_ns:
                    by_engine_end[key] = event
        last = max(self.events, key=lambda e: (e.end_ns, e.seq))
        steps: List[object] = []
        seen = set()
        event: Optional[object] = last
        while event is not None and event.seq not in seen:
            seen.add(event.seq)
            steps.append(event)
            if event.start_ns == 0:
                break
            pred = None
            if event.wait_for:
                gate = max(event.wait_for, key=lambda d: d.end_ns)
                if gate.end_ns == event.start_ns:
                    pred = gate
            if pred is None and event.queued_ns == event.start_ns:
                pred = by_engine_end.get(
                    (event.device_index, event.engine, event.queued_ns)
                )
            if pred is None and event.wait_for:
                pred = max(event.wait_for, key=lambda d: d.end_ns)
            event = pred
        steps.reverse()
        return CriticalPath(steps, last.end_ns)

    def by_skeleton(self) -> Dict[str, int]:
        """Critical-path nanoseconds per trace label.  The attribution
        covers the whole elapsed time: every nanosecond of the critical
        path belongs to exactly one command, so the values sum to
        ``critical_path().total_ns``."""
        return self.critical_path().by_label()

    def kernel_ns_by_skeleton(self) -> Dict[str, int]:
        """Total kernel nanoseconds per label (overlap counted per
        kernel, unlike the critical-path attribution)."""
        out: Dict[str, int] = {}
        for event in self.events:
            if event.command_type != "ndrange_kernel":
                continue
            key = _bucket(event)
            out[key] = out.get(key, 0) + event.duration_ns
        return out

    # -- reports ---------------------------------------------------------

    def timeline(self, width: int = 64) -> str:
        return render_timeline(self.context, width=width)

    def report(self) -> str:
        path = self.critical_path()
        lines = [
            f"SkelScope profile: {path.total_ns:,} ns critical path, "
            f"{len(self.events)} commands on {len(self.context.queues)} device(s)",
            "",
            "critical-path time by skeleton:",
        ]
        breakdown = path.by_label()
        width = max((len(k) for k in breakdown), default=0)
        for label, ns in sorted(breakdown.items(), key=lambda kv: -kv[1]):
            share = ns / path.total_ns if path.total_ns else 0.0
            lines.append(f"  {label.ljust(width)}  {ns:>14,} ns  {share:6.1%}")
        lines += ["", self.timeline(), "", self.metrics.render_table()]
        return "\n".join(lines)


class profile:
    """Context manager scoping a profiled region::

        with skelcl.profile() as prof:
            result = skeleton(data)
        print(prof.report())

    ``target`` may be a :class:`~repro.skelcl.runtime.Session`, an
    :class:`~repro.ocl.Context`, or ``None`` to use the current
    session (there must be one by the time the block is *entered*)."""

    def __init__(self, target=None):
        self._target = target
        self._profile: Optional[Profile] = None

    def __enter__(self) -> Profile:
        target = self._target
        if target is None:
            from ..skelcl.runtime import get_runtime

            target = get_runtime()
        context = getattr(target, "context", target)
        self._flush = getattr(target, "_flush_plan", lambda: None)
        self._profile = Profile(context)
        self._profile._begin()
        return self._profile

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self._flush()  # a lazy session's deferred calls belong to the region
            self._profile._end()
        return False
