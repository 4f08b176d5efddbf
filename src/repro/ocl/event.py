"""Events: profiling records *and* dependency handles (simulated ns).

Mirrors the OpenCL event model the paper's asynchronous execution story
relies on (§4): every enqueued command returns an :class:`Event` that

* carries the four OpenCL profiling timestamps
  (``CL_PROFILING_COMMAND_{QUEUED,SUBMIT,START,END}``),
* walks the ``queued → submitted → running → complete`` lifecycle in
  simulated time (:meth:`Event.status_at`),
* names the commands it must wait for (its ``wait_for`` tuple — the
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

An event keeps only what it cannot recompute — a queue retains every
command it ran, so this is the host memory each command costs.  It is a
slotted record; ``info`` and ``accesses`` are *views*, built on every
read from what the command kept:

* a kernel (:class:`KernelEvent`): its counters as one
  :class:`LaunchCounters` record, and its access set as the launch's
  :class:`repro.analysis.access.KernelAccesses` stamp — the resolved
  launch shape its kernel's other launches of that shape share, and the
  uid and name of each bound buffer;
* a write, read or copy (:class:`TransferEvent`): the uid, name, offset,
  byte count and mode of each buffer it touches — ``info["bytes"]`` is
  that byte count;
* a marker or barrier: nothing (an empty ``info``, no accesses).

``info`` is a fresh dict on each read, so writing into it changes
nothing; a layer that tags commands calls :meth:`Event.annotate` (the
serve dispatcher names the tenant a command ran for), and the tags
follow the command's own keys in ``info`` and in its trace ``args``.
"""

from __future__ import annotations

import enum
import itertools
from types import MappingProxyType
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence

from ..analysis.access import BufferAccess

# Process-wide event sequence numbers: stable identities for trace flow
# edges (``id()`` values can be reused after garbage collection).
_SEQ = itertools.count(1)

#: What an event nobody annotated carries: one mapping for all of them.
_NO_ANNOTATIONS: Mapping[str, object] = MappingProxyType({})


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


class LaunchCounters(NamedTuple):
    """A kernel launch's counters, in the order of its ``info`` keys:
    a sampled launch's scaled to every group, ``groups_executed`` the
    groups it ran, ``run`` the lockstep run it executed in (shared by
    the sibling launches that ran together)."""

    ops: int
    warp_ops: int
    global_loads: int
    global_stores: int
    global_bytes: int
    local_loads: int
    local_stores: int
    barriers: int
    work_items: int
    groups_total: int
    groups_executed: int
    run: int


class Event:
    """One enqueued command (module docstring: what it keeps).  The
    constructor takes the fields of the command a caller describes
    itself — ``info`` and ``accesses`` are kept as given (copied) — and
    the queue's kernels and transfers are the subclasses below."""

    __slots__ = ("command_type", "name", "queued_ns", "submit_ns", "start_ns", "end_ns",
                 "wait_for", "status", "engine", "device_index", "enqueue_site", "label",
                 "seq", "annotations", "_info", "_accesses")

    def __init__(self, command_type: str, name: str, queued_ns: int = 0, submit_ns: int = 0,
                 start_ns: int = 0, end_ns: int = 0,
                 info: Optional[Mapping[str, object]] = None,
                 wait_for: Sequence["Event"] = (),
                 status: EventStatus = EventStatus.COMPLETE, engine: str = COMPUTE_ENGINE,
                 device_index: int = 0, accesses: Sequence[BufferAccess] = (),
                 enqueue_site: Optional[str] = None, label: Optional[str] = None,
                 seq: Optional[int] = None):
        # 'ndrange_kernel', 'write_buffer', 'read_buffer', 'copy_buffer',
        # 'marker' or 'barrier'.
        self.command_type = command_type
        self.name = name
        self.queued_ns, self.submit_ns, self.start_ns, self.end_ns = \
            queued_ns, submit_ns, start_ns, end_ns
        # Dependency edges: this command may not start before every event
        # in the tuple is complete (the enqueue call's ``event_wait_list``).
        self.wait_for = tuple(wait_for)
        self.status = status
        # Which engine of the device executes the command.
        self.engine = engine
        self.device_index = device_index
        # "file:line" of the user-code frame that enqueued the command;
        # captured only when a sanitizer is attached (provenance costs a
        # stack walk).
        self.enqueue_site = enqueue_site
        # Trace span name, set by the layer that knows what the command
        # *means* (skeletons label their launches "Map(func)@file.py:12");
        # None falls back to ``name`` in trace exports.
        self.label = label
        # Unique, monotonically increasing id (SkelScope flow-edge ids).
        self.seq = next(_SEQ) if seq is None else seq
        # Tags added by :meth:`annotate`, a read-only mapping.
        self.annotations = _NO_ANNOTATIONS
        self._info = dict(info) if info else None
        self._accesses = tuple(accesses)

    @property
    def info(self) -> Dict[str, object]:
        """Per-command statistics, a fresh dict on every read.  Values
        are integer counters; standard keys:

        * kernels: ``ops``, ``warp_ops``, ``global_loads``,
          ``global_stores``, ``global_bytes``, ``local_loads``,
          ``local_stores``, ``barriers``, ``work_items``,
          ``groups_total``, ``groups_executed``, ``run``
          (:class:`LaunchCounters`);
        * transfers: ``bytes``;

        followed by the command's :attr:`annotations`."""
        return self._annotated({} if self._info is None else dict(self._info))

    def _annotated(self, info: Dict[str, object]) -> Dict[str, object]:
        if self.annotations:
            info.update(self.annotations)
        return info

    @property
    def accesses(self) -> List[BufferAccess]:
        """The buffer access set (:class:`BufferAccess` records): which
        byte ranges of which buffers this command reads or writes, a
        fresh list on every read.  Markers and barriers carry an empty
        set — pure ordering edges."""
        return list(self._accesses)

    def annotate(self, tags: Mapping[str, object]) -> None:
        """Tag the command: ``tags`` follow its own keys in :attr:`info`
        and in its trace ``args`` — a tag of the same name as a key
        shows in its place.  The first call keeps ``tags`` itself
        (several commands may share one read-only mapping, as a serve
        tenant's do); a later call merges into a new mapping."""
        self.annotations = MappingProxyType({**self.annotations, **tags}) \
            if self.annotations else tags

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


class KernelEvent(Event):
    """A kernel launch: ``info`` is its :class:`LaunchCounters`, and
    ``accesses`` its :class:`~repro.analysis.access.KernelAccesses`
    stamp, each expanded on read."""

    __slots__ = ()

    def __init__(self, name: str, counters: LaunchCounters, stamp):
        super().__init__("ndrange_kernel", name)
        self._info, self._accesses = counters, stamp

    @property
    def info(self) -> Dict[str, object]:
        return self._annotated(self._info._asdict())

    @property
    def accesses(self) -> List[BufferAccess]:
        return self._accesses.records()


class TransferEvent(Event):
    """A write, read or copy: ``touched`` lists ``(buffer, offset,
    nbytes, mode)`` per buffer, in access order, and the event keeps
    each with the buffer's uid and name in its place (flat, five values
    a buffer); ``info["bytes"]`` is the first buffer's ``nbytes``."""

    __slots__ = ()

    def __init__(self, command_type: str, name: str, *touched):
        super().__init__(command_type, name)
        for buffer, offset, nbytes, mode in touched:
            self._accesses += (buffer.uid, buffer.name or "buffer", int(offset), int(nbytes),
                               mode)

    @property
    def info(self) -> Dict[str, object]:
        return self._annotated({"bytes": self._accesses[3]})

    @property
    def accesses(self) -> List[BufferAccess]:
        held = iter(self._accesses)
        return [BufferAccess(uid, name, offset, offset + nbytes, mode)
                for uid, name, offset, nbytes, mode in zip(*[held] * 5)]


def wait_for_events(events: Sequence[Event]) -> int:
    """``clWaitForEvents``: the latest completion timestamp of
    ``events`` (0 for an empty sequence)."""
    return max((event.wait() for event in events), default=0)
