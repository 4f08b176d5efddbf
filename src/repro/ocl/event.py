"""Events: profiling records *and* dependency handles (simulated ns).

Mirrors the OpenCL event model the paper's asynchronous execution story
relies on (§4): every enqueued command returns an :class:`Event` that

* carries the four OpenCL profiling timestamps
  (``CL_PROFILING_COMMAND_{QUEUED,SUBMIT,START,END}``),
* walks the ``queued → submitted → running → complete`` lifecycle in
  simulated time (:meth:`Event.status_at`),
* names the commands it must wait for (its ``wait_for`` list — the
  ``event_wait_list`` of the ``clEnqueue*`` call that created it), and
* can be waited on (``event.wait()``, cf. ``clWaitForEvents``).

An event is ``COMPLETE`` when its ``enqueue_*`` call returns: the queue
places the command at ``max(engine-ready time, completion of its wait
list)`` on its device's compute or transfer engine right away — a wait
list names only events already enqueued, so nothing later moves it — and
independent commands overlap exactly as on real hardware.

Events compare and hash by identity, like ``cl_event`` handles: two
commands with equal fields are still two commands, so each is its own
dependency edge, and an event can key a dict or sit in a set.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

# Process-wide event sequence numbers: stable identities for trace flow
# edges (``id()`` values can be reused after garbage collection).
_SEQ = itertools.count(1)


class EventStatus(enum.Enum):
    """Host-visible command lifecycle (cf. ``CL_{QUEUED,SUBMITTED,RUNNING,COMPLETE}``)."""

    QUEUED = "queued"        # enqueued, its wait list not yet complete
    SUBMITTED = "submitted"  # wait list satisfied, waiting for its engine
    RUNNING = "running"      # occupying its engine
    COMPLETE = "complete"    # finished (every event's status once enqueued)


# Engines a device executes commands on.  Kernels run on the compute
# engine; host↔device and device-local copies on the transfer (DMA)
# engine.  The two engines advance independently, which is what lets a
# kernel overlap a PCIe transfer.  Markers/barriers are synchronization
# points that occupy no engine.
COMPUTE_ENGINE = "compute"
TRANSFER_ENGINE = "transfer"
SYNC_ENGINE = "sync"

ENGINE_OF_COMMAND = {
    "ndrange_kernel": COMPUTE_ENGINE,
    "write_buffer": TRANSFER_ENGINE,
    "read_buffer": TRANSFER_ENGINE,
    "copy_buffer": TRANSFER_ENGINE,
    "marker": SYNC_ENGINE,
    "barrier": SYNC_ENGINE,
}


@dataclass(eq=False)
class Event:
    command_type: str  # 'ndrange_kernel', 'write_buffer', 'read_buffer', 'copy_buffer', 'marker', 'barrier'
    name: str
    queued_ns: int = 0
    submit_ns: int = 0
    start_ns: int = 0
    end_ns: int = 0
    # Free-form per-command statistics.  Values are integer counters
    # except where noted; standard keys:
    #
    #   kernels:   'ops', 'warp_ops', 'global_loads', 'global_stores',
    #              'global_bytes', 'local_loads', 'local_stores',
    #              'barriers', 'work_items', 'groups_total',
    #              'groups_executed' (ints)
    #   transfers: 'bytes' (int)
    info: Dict[str, Union[int, float]] = field(default_factory=dict)
    # Dependency edges: this command may not start before every event in
    # the list is complete (the enqueue call's ``event_wait_list``).
    wait_for: List["Event"] = field(default_factory=list)
    status: EventStatus = EventStatus.COMPLETE
    # Which engine of the device executes the command.
    engine: str = COMPUTE_ENGINE
    device_index: int = 0
    # Buffer access set (``repro.analysis.access.BufferAccess`` records):
    # which byte ranges of which buffers this command reads/writes.
    # Markers and barriers carry an empty set — pure ordering edges.
    accesses: List[object] = field(default_factory=list)
    # "file:line" of the user-code frame that enqueued the command;
    # captured only when a sanitizer is attached (provenance costs a
    # stack walk).
    enqueue_site: Optional[str] = None
    # Trace span name, set by the layer that knows what the command
    # *means* (skeletons label their launches "Map(func)@file.py:12");
    # None falls back to ``name`` in trace exports.
    label: Optional[str] = None
    # Unique, monotonically increasing id (SkelScope flow-edge ids).
    seq: int = field(default_factory=lambda: next(_SEQ))

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def duration_ms(self) -> float:
        return self.duration_ns / 1e6

    @property
    def is_complete(self) -> bool:
        return self.status is EventStatus.COMPLETE

    def wait(self) -> int:
        """``clWaitForEvents`` on a single event: the completion
        timestamp ``end_ns``."""
        return self.end_ns

    def status_at(self, time_ns: int) -> EventStatus:
        """The lifecycle state this command was in at simulated time
        ``time_ns``."""
        if time_ns < self.submit_ns:
            return EventStatus.QUEUED
        if time_ns < self.start_ns:
            return EventStatus.SUBMITTED
        if time_ns < self.end_ns:
            return EventStatus.RUNNING
        return EventStatus.COMPLETE

    def __repr__(self) -> str:
        return (
            f"<Event {self.command_type} {self.name!r} [{self.status.value}] "
            f"{self.duration_ms:.4f} ms>"
        )


def wait_for_events(events: Sequence[Event]) -> int:
    """``clWaitForEvents``: the latest completion timestamp of
    ``events`` (0 for an empty sequence)."""
    return max((event.wait() for event in events), default=0)
