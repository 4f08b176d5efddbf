"""Command queues scheduling an asynchronous command graph.

Enqueueing a command executes its *data* effects immediately (so results
stay checkable) but defers its *timeline*: the command enters a pending
list with a planned duration, a wait list, and status ``QUEUED``.  The
scheduler resolves timestamps lazily — on ``event.wait()``,
``queue.finish()``, any read of ``queue.time_ns``, or
``Context.finish_all()`` — by assigning each command

    start = max(engine-ready time, completion of its wait list)

on one of the device's two engines: *compute* (kernels) or *transfer*
(host↔device and device-local copies).  The engines advance
independently, so a kernel overlaps a PCIe transfer exactly as real
hardware overlaps them, and cross-queue wait lists model inter-GPU
dependency edges (redistribution, halo exchange).

Ordering rules mirror OpenCL 1.x in-order queues with events:

* ``event_wait_list=None`` (the default) keeps the classic in-order
  behaviour — the command implicitly depends on the previously enqueued
  command of the same queue, fully serializing the queue.
* ``event_wait_list=[...]`` (possibly empty) makes the dependencies
  explicit: the command waits for exactly those events (plus any active
  barrier) and may otherwise overlap other commands of the same device.
* ``enqueue_marker``/``enqueue_barrier`` are zero-duration sync points;
  a barrier additionally gates every subsequently enqueued command.
"""

from __future__ import annotations

import os.path
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.access import BufferAccess, kernel_buffer_accesses
from ..callsite import call_site
from ..kernelc.execmodel import ExecutionCounters
from .buffer import Buffer
from .device import Device
from .errors import InvalidValue, SampledBufferRead
from .event import (
    COMPUTE_ENGINE,
    ENGINE_OF_COMMAND,
    Event,
    EventStatus,
    SYNC_ENGINE,
    TRANSFER_ENGINE,
)
from .executor import execute_ndrange
from .kernel import Kernel
from .ndrange import NDRange
from .timing import kernel_time_ns, simd_utilization, transfer_time_ns

_OCL_DIR = os.path.dirname(os.path.abspath(__file__))


class _Series(dict):
    """A queue's handles to the metric series it writes.

    The registry finds a series by sorting and stringifying its labels;
    a command counts into up to seven, every time the same ones, so the
    queue keeps the metric objects and pays one dict lookup each:
    ``series[_COMMANDS, "marker"]`` — a key is the series' family, name
    and label names (the constants below) followed by the label values.
    ``MetricsRegistry.reset()`` zeroes metrics in place, so a handle
    stays valid for the registry's life, and a series is still created
    by the first command that counts into it: one nothing touched stays
    out of the snapshot."""

    def __init__(self, registry):
        super().__init__()
        self.registry = registry

    def __missing__(self, key):
        (family, name, *labels), *values = key
        handle = self[key] = getattr(self.registry, family)(name, **dict(zip(labels, values)))
        return handle

    def counter(self, name: str, **labels):
        """The registry's own spelling, which is all
        ``kernel_buffer_accesses`` asks of its ``metrics``."""
        return self[(("counter", name, *labels), *labels.values())]


_COMMANDS = ("counter", "skelcl_commands_total", "kind")
_TRANSFER_BYTES = ("counter", "skelcl_transfer_bytes_total", "link", "direction")
_TRANSFER_NS = ("counter", "skelcl_transfer_ns_total", "link", "device")
_KERNEL_NS_TOTAL = ("counter", "skelcl_kernel_ns_total", "device")
_KERNEL_NS = ("histogram", "skelcl_kernel_ns", "device")
_WORK_ITEMS = (("counter", "skelcl_work_items_total"),)  # no labels: the whole key
_KERNEL_OPS = (("counter", "skelcl_kernel_ops_total"),)


class CommandQueue:
    """An in-order command queue on one device (module docstring: how
    commands are scheduled).  Per command it pays only for what differs
    between commands: the kernel's access set is resolved once per launch
    shape (:func:`repro.analysis.access.kernel_buffer_accesses`), metric
    series are reached through kept handles (:class:`_Series`), and the
    sampled-taint scan runs only when a sampled launch or buffer is
    involved."""

    def __init__(self, device: Device):
        self.device = device
        self.events: List[Event] = []
        # Scheduler state: commands whose timestamps are unresolved, the
        # ready time of each engine, and the last command per engine /
        # overall (for markers and implicit in-order dependencies).
        self._pending: Deque[Event] = deque()
        self._engine_ready: Dict[str, int] = {COMPUTE_ENGINE: 0, TRANSFER_ENGINE: 0}
        self._engine_tail: Dict[str, Optional[Event]] = {
            COMPUTE_ENGINE: None,
            TRANSFER_ENGINE: None,
        }
        self._last_event: Optional[Event] = None
        self._barrier: Optional[Event] = None
        self._horizon = 0  # latest resolved end_ns on this queue
        # Race detector attached by the owning Context (may stay None).
        self._sanitizer = None
        # Handles into the SkelScope metrics registry the owning Context
        # attaches through ``_metrics`` (stays None for bare queues
        # built in tests).
        self._series: Optional[_Series] = None
        # Aggregate statistics over the queue's lifetime.  ``transfer``
        # covers every data-movement command (write/read/copy);
        # ``pcie`` only the commands crossing the host link (write/read).
        self.total_kernel_ns = 0
        self.total_transfer_ns = 0
        self.total_transfer_bytes = 0
        self.total_pcie_ns = 0
        self.total_pcie_bytes = 0

    @property
    def _metrics(self):
        """The attached SkelScope registry (None for a bare queue)."""
        return None if self._series is None else self._series.registry

    @_metrics.setter
    def _metrics(self, registry) -> None:
        self._series = None if registry is None else _Series(registry)

    # -- timeline -----------------------------------------------------------

    @property
    def time_ns(self) -> int:
        """The queue clock: resolves all pending commands and returns the
        time the last of them completes."""
        self.flush()
        return self._horizon

    def reset_timeline(self) -> None:
        self.events.clear()
        self._pending.clear()
        self._engine_ready = {COMPUTE_ENGINE: 0, TRANSFER_ENGINE: 0}
        self._engine_tail = {COMPUTE_ENGINE: None, TRANSFER_ENGINE: None}
        self._last_event = None
        self._barrier = None
        self._horizon = 0
        self.total_kernel_ns = 0
        self.total_transfer_ns = 0
        self.total_transfer_bytes = 0
        self.total_pcie_ns = 0
        self.total_pcie_bytes = 0

    def flush(self) -> None:
        """Resolve every pending command's timestamps."""
        while self._pending:
            self._schedule(self._pending.popleft())

    def finish(self) -> int:
        """Block until all commands complete; returns the queue clock."""
        return self.time_ns

    # -- scheduling ---------------------------------------------------------

    def _submit(self, event: Event, duration_ns: int,
                wait_for: Optional[Sequence[Event]]) -> Event:
        """Record ``event`` as pending with its dependency edges."""
        event._queue = self
        event.planned_ns = int(duration_ns)
        event.engine = ENGINE_OF_COMMAND[event.command_type]
        event.device_index = self.device.index
        event.status = EventStatus.QUEUED
        if wait_for is None:
            # Classic in-order queue: serialize behind the previous command.
            deps = [self._last_event] if self._last_event is not None else []
        else:
            deps = [dep for dep in wait_for if dep is not None]
            if self._barrier is not None and self._barrier not in deps:
                deps.append(self._barrier)
        event.wait_for = deps
        self._pending.append(event)
        self._last_event = event
        if event.engine in self._engine_tail:
            self._engine_tail[event.engine] = event
        self.events.append(event)
        series = self._series
        if series is not None:
            series[_COMMANDS, event.command_type].inc()
        sanitizer = self._sanitizer
        if sanitizer is not None and sanitizer.enabled:
            # The skeleton or user code that issued the enqueue.
            event.enqueue_site = call_site(_OCL_DIR, parts=2)
            # Queue state is final at this point, so a strict-mode
            # RaceError leaves a consistent timeline behind it.
            sanitizer.observe(event)
        return event

    def _count_transfer(self, link: str, direction: str, nbytes: int, duration: int) -> None:
        """Metrics for one data movement: ``link`` separates the host
        link ("pcie": write/read) from device-local traffic ("device":
        copy_buffer, i.e. the inter-GPU redistribution path)."""
        series = self._series
        if series is None:
            return
        series[_TRANSFER_BYTES, link, direction].inc(nbytes)
        series[_TRANSFER_NS, link, self.device.index].inc(duration)

    def _resolve_until(self, target: Event) -> None:
        """Resolve pending commands (in order) until ``target`` is complete."""
        while self._pending and target.status is not EventStatus.COMPLETE:
            self._schedule(self._pending.popleft())

    def _schedule(self, event: Event) -> None:
        if event.status is EventStatus.COMPLETE:
            return
        # Wait-list events may live on other queues: resolving them first
        # is what creates the cross-device dependency edges.  Wait lists
        # can only reference already-enqueued events, so the global
        # enqueue order is a topological order and this recursion
        # terminates.
        deps_end = 0
        for dep in event.wait_for:
            deps_end = max(deps_end, dep.wait())
        if event.engine is SYNC_ENGINE or event.engine not in self._engine_ready:
            event.queued_ns = deps_end
            event.submit_ns = deps_end
            event.start_ns = deps_end
            event.end_ns = deps_end + event.planned_ns
        else:
            ready = self._engine_ready[event.engine]
            event.queued_ns = ready
            event.submit_ns = max(ready, deps_end)
            event.start_ns = event.submit_ns
            event.end_ns = event.start_ns + event.planned_ns
            self._engine_ready[event.engine] = event.end_ns
        event.status = EventStatus.COMPLETE
        self._horizon = max(self._horizon, event.end_ns)

    # -- commands -------------------------------------------------------------

    def enqueue_nd_range_kernel(
        self,
        kernel: Kernel,
        global_size,
        local_size=None,
        sample_fraction: Optional[float] = None,
        event_wait_list: Optional[Sequence[Event]] = None,
    ) -> Event:
        """Launch ``kernel``; returns the profiling event."""
        series = self._series
        ndrange = NDRange.create(global_size, local_size, self.device.max_work_group_size)
        counters = ExecutionCounters()
        # The pointers created here report memory traffic into
        # `counters.memory`, and the executor charges ops to the same
        # object, so sampling scales both consistently.
        args = kernel.marshal_args(counters, self.device)
        result = execute_ndrange(kernel.compiled, ndrange, args, sample_fraction, counters,
                                 metrics=series)
        duration = kernel_time_ns(
            self.device.spec,
            result.counters,
            simd_utilization(ndrange.work_group_size),
        )
        event = Event("ndrange_kernel", kernel.name)
        event.info.update(
            ops=result.counters.ops,
            warp_ops=result.counters.warp_ops,
            global_loads=result.counters.memory.global_loads,
            global_stores=result.counters.memory.global_stores,
            global_bytes=result.counters.memory.global_bytes,
            local_loads=result.counters.memory.local_loads,
            local_stores=result.counters.memory.local_stores,
            barriers=result.counters.barriers,
            work_items=ndrange.total_work_items,
            groups_total=result.groups_total,
            groups_executed=result.groups_executed,
        )
        event.accesses = kernel_buffer_accesses(kernel, ndrange, series)
        # Sampled-execution taint: a sampled launch leaves its outputs
        # partially written, and a kernel consuming tainted data spreads
        # the taint to everything it writes.  The access set is scanned
        # only when a bound buffer is tainted at all.
        buffers = {arg.uid: arg for arg in kernel._args if isinstance(arg, Buffer)}
        reads_tainted = any(buffer.sampled for buffer in buffers.values()) and any(
            buffers[access.buffer_uid].sampled
            for access in event.accesses
            if access.reads and access.buffer_uid in buffers
        )
        if result.sampled or reads_tainted:
            for access in event.accesses:
                if access.writes and access.buffer_uid in buffers:
                    buffers[access.buffer_uid].sampled = True
        self._submit(event, duration, event_wait_list)
        self.total_kernel_ns += duration
        if series is not None:
            device = self.device.index
            series[_KERNEL_NS_TOTAL, device].inc(duration)
            series[_WORK_ITEMS].inc(ndrange.total_work_items)
            series[_KERNEL_OPS].inc(result.counters.ops)
            series[_KERNEL_NS, device].observe(duration)
        return event

    def enqueue_write_buffer(self, buffer: Buffer, data: np.ndarray, offset_bytes: int = 0,
                             event_wait_list: Optional[Sequence[Event]] = None) -> Event:
        if buffer.device is not self.device:
            raise InvalidValue("buffer belongs to a different device than this queue")
        nbytes = buffer.write_from_host(data, offset_bytes)
        if offset_bytes == 0 and nbytes >= buffer.nbytes:
            buffer.sampled = False  # fully rewritten: contents whole again
        duration = transfer_time_ns(self.device.spec, nbytes)
        event = Event("write_buffer", buffer.name or "buffer", info={"bytes": nbytes})
        event.accesses = [BufferAccess.write(buffer, offset_bytes, nbytes)]
        self._submit(event, duration, event_wait_list)
        self.total_transfer_ns += duration
        self.total_transfer_bytes += nbytes
        self.total_pcie_ns += duration
        self.total_pcie_bytes += nbytes
        self._count_transfer("pcie", "h2d", nbytes, duration)
        return event

    def enqueue_copy_buffer(self, src: Buffer, dst: Buffer, nbytes: int,
                            src_offset_bytes: int = 0, dst_offset_bytes: int = 0,
                            event_wait_list: Optional[Sequence[Event]] = None) -> Event:
        """Device-local buffer-to-buffer copy (clEnqueueCopyBuffer).

        Both buffers must live on this queue's device; the copy costs
        global-memory bandwidth (read + write), never the PCIe link —
        it counts into ``total_transfer_*`` but not ``total_pcie_*``.
        """
        if src.device is not self.device or dst.device is not self.device:
            raise InvalidValue("copy_buffer requires both buffers on this queue's device")
        dst.copy_from(src, nbytes, src_offset_bytes, dst_offset_bytes)
        if src.sampled:
            dst.sampled = True
        elif dst_offset_bytes == 0 and nbytes >= dst.nbytes:
            dst.sampled = False  # fully overwritten with whole data
        duration = int(
            2 * nbytes / self.device.spec.global_bandwidth_gbs + 1000  # +1us overhead
        )
        event = Event("copy_buffer", dst.name or "buffer", info={"bytes": nbytes})
        event.accesses = [
            BufferAccess.read(src, src_offset_bytes, nbytes),
            BufferAccess.write(dst, dst_offset_bytes, nbytes),
        ]
        self._submit(event, duration, event_wait_list)
        self.total_transfer_ns += duration
        self.total_transfer_bytes += nbytes
        self._count_transfer("device", "d2d", nbytes, duration)
        return event

    def enqueue_read_buffer(self, buffer: Buffer, dtype, count: Optional[int] = None,
                            offset_bytes: int = 0,
                            event_wait_list: Optional[Sequence[Event]] = None):
        """Read back data; returns ``(array, event)``."""
        if buffer.device is not self.device:
            raise InvalidValue("buffer belongs to a different device than this queue")
        if buffer.sampled:
            raise SampledBufferRead(
                f"buffer {buffer.name or buffer.uid!r} holds partial results from "
                "sampled kernel execution; sampled runs are timing-only and must "
                "not be read back as data"
            )
        data = buffer.read_to_host(dtype, count, offset_bytes)
        duration = transfer_time_ns(self.device.spec, data.nbytes)
        event = Event("read_buffer", buffer.name or "buffer", info={"bytes": data.nbytes})
        event.accesses = [BufferAccess.read(buffer, offset_bytes, data.nbytes)]
        self._submit(event, duration, event_wait_list)
        self.total_transfer_ns += duration
        self.total_transfer_bytes += data.nbytes
        self.total_pcie_ns += duration
        self.total_pcie_bytes += data.nbytes
        self._count_transfer("pcie", "d2h", data.nbytes, duration)
        return data, event

    # -- synchronization commands -------------------------------------------

    def enqueue_marker(self, event_wait_list: Optional[Sequence[Event]] = None) -> Event:
        """A zero-duration event completing when its wait list does; with
        no wait list, when everything previously enqueued has (cf.
        ``clEnqueueMarkerWithWaitList``).  Markers (and barriers) carry
        an empty buffer access set: to the race detector they are pure
        ordering edges, never racing with anything themselves."""
        event = Event("marker", "marker")
        wait_for = event_wait_list
        if wait_for is None:
            wait_for = [tail for tail in self._engine_tail.values() if tail is not None]
        return self._submit(event, 0, wait_for)

    def enqueue_barrier(self, event_wait_list: Optional[Sequence[Event]] = None) -> Event:
        """Like a marker, but additionally gates every subsequently
        enqueued command of this queue (cf. ``clEnqueueBarrier``)."""
        event = self.enqueue_marker(event_wait_list)
        event.command_type = "barrier"
        event.name = "barrier"
        self._barrier = event
        return event

    # -- profiling accessors --------------------------------------------------

    def kernel_events(self) -> List[Event]:
        return [e for e in self.events if e.command_type == "ndrange_kernel"]

    def engine_events(self, engine: str) -> List[Event]:
        """Profiled events assigned to ``engine`` ('compute'/'transfer')."""
        return [e for e in self.events if e.engine == engine]

    def __repr__(self) -> str:
        pending = len(self._pending)
        return (
            f"<CommandQueue on {self.device.name} horizon={self._horizon}ns "
            f"pending={pending}>"
        )
