"""Command queues placing an asynchronous command graph on device timelines.

Enqueueing a command executes its *data* effects and places it on its
device's timeline, both before the ``enqueue_*`` call returns: the
command's event is ``COMPLETE``, with final timestamps,

    start = max(engine-ready time, completion of its wait list)

on one of the device's two engines: *compute* (kernels) or *transfer*
(host↔device and device-local copies).  A wait list names only events
already enqueued, so everything the rule reads is known at enqueue and
no later command moves an earlier one.  The engines advance
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

import itertools
import os.path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.access import READ, WRITE, kernel_buffer_accesses
from ..callsite import call_site
from ..kernelc import vectorize
from ..kernelc.compiler import CompiledKernel
from ..kernelc.execmodel import ExecutionCounters
from ..kernelc.vectorize import RUN_MAX_LANES
from .buffer import Buffer
from .device import Device
from .errors import InvalidValue, SampledBufferRead
from .event import (COMPUTE_ENGINE, ENGINE_OF_COMMAND, Event, EventStatus, KernelEvent,
                    LaunchCounters, TRANSFER_ENGINE, TransferEvent)
from .kernel import Kernel
from .ndrange import NDRange
from .timing import copy_time_ns, kernel_time_ns, simd_utilization, transfer_time_ns

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
_SIBLING_RUNS = ("counter", "skelcl_sibling_runs_total", "result", "reason")


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
        # Scheduler state: the ready time of each engine, and the last
        # command per engine / overall (for markers and implicit in-order
        # dependencies).
        self._engine_ready: Dict[str, int] = {COMPUTE_ENGINE: 0, TRANSFER_ENGINE: 0}
        self._engine_tail: Dict[str, Optional[Event]] = {
            COMPUTE_ENGINE: None,
            TRANSFER_ENGINE: None,
        }
        self._last_event: Optional[Event] = None
        self._barrier: Optional[Event] = None
        self._horizon = 0  # latest end_ns on this queue
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
        """The queue clock: the time the last enqueued command completes."""
        return self._horizon

    def reset_timeline(self) -> None:
        self.events.clear()
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

    def finish(self) -> int:
        """Block until all commands complete; returns the queue clock."""
        return self.time_ns

    # -- scheduling ---------------------------------------------------------

    def _submit(self, event: Event, duration_ns: int,
                wait_for: Optional[Sequence[Event]]) -> Event:
        """Record ``event`` with its dependency edges and place it on the
        timeline: its timestamps are final from here on."""
        engine = event.engine = ENGINE_OF_COMMAND[event.command_type]
        event.device_index = self.device.index
        if wait_for is None:
            # Classic in-order queue: serialize behind the previous command.
            deps = () if self._last_event is None else (self._last_event,)
        else:
            deps = tuple([dep for dep in wait_for if dep is not None])
            if self._barrier is not None and self._barrier not in deps:
                deps += (self._barrier,)
        event.wait_for = deps
        # start = max(engine-ready time, completion of the wait list)
        start = 0
        for dep in deps:
            if dep.end_ns > start:
                start = dep.end_ns
        ready = self._engine_ready.get(engine)
        if ready is None:  # a marker or barrier occupies no engine
            event.queued_ns = start
        else:
            event.queued_ns = ready
            if ready > start:
                start = ready
            self._engine_ready[engine] = start + duration_ns
            self._engine_tail[engine] = event
        event.submit_ns = event.start_ns = start
        end = event.end_ns = start + duration_ns
        event.status = EventStatus.COMPLETE
        if end > self._horizon:
            self._horizon = end
        self._last_event = event
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

    # -- commands -------------------------------------------------------------

    def enqueue_nd_range_kernel(
        self,
        kernel: Kernel,
        global_size,
        local_size=None,
        sample_fraction: Optional[float] = None,
        event_wait_list: Optional[Sequence[Event]] = None,
    ) -> Event:
        """Launch ``kernel``; returns the profiling event.  The launch is
        a run of one (:class:`SiblingPlan` runs several)."""
        plan = LaunchPlan(kernel, global_size, local_size, sample_fraction, self.device)
        return _SiblingRun([_Sibling(self, plan, kernel, event_wait_list)]).record_next()

    def _record_kernel(self, kernel: Kernel, plan: "LaunchPlan", counters: ExecutionCounters,
                       run: int, event_wait_list: Optional[Sequence[Event]]) -> Event:
        """The event of a launch of ``kernel`` from ``plan`` that executed
        onto ``counters`` in the lockstep run ``run``: the counters of a
        sampled launch scaled to every group, timing model, access set,
        sampled taint, submission (and race observation) and metrics."""
        series, ndrange, selected = self._series, plan.ndrange, plan.selected
        total = executed = ndrange.total_groups
        if selected is not None:
            executed = len(selected)
            counters = counters.scaled(total / executed)
        duration = kernel_time_ns(
            self.device.spec,
            counters,
            simd_utilization(ndrange.work_group_size),
        )
        memory = counters.memory
        stamp = kernel_buffer_accesses(kernel, ndrange, series, plan)
        event = KernelEvent(kernel.name, LaunchCounters(
            counters.ops, counters.warp_ops, memory.global_loads, memory.global_stores,
            memory.global_bytes, memory.local_loads, memory.local_stores, counters.barriers,
            ndrange.total_work_items, total, executed, run), stamp)
        # Sampled-execution taint: a sampled launch leaves its outputs
        # partially written, and a kernel consuming tainted data spreads
        # the taint to everything it writes.  The access set is scanned
        # only when a bound buffer is tainted at all.
        buffers = {arg.uid: arg for arg in kernel._args if isinstance(arg, Buffer)}
        reads_tainted = any(buffer.sampled for buffer in buffers.values()) and any(
            buffers[access.buffer_uid].sampled
            for access in stamp
            if access.reads and access.buffer_uid in buffers
        )
        if selected is not None or reads_tainted:
            for access in stamp:
                if access.writes and access.buffer_uid in buffers:
                    buffers[access.buffer_uid].sampled = True
        self._submit(event, duration, event_wait_list)
        self.total_kernel_ns += duration
        if series is not None:
            device = self.device.index
            series[_KERNEL_NS_TOTAL, device].inc(duration)
            series[_WORK_ITEMS].inc(ndrange.total_work_items)
            series[_KERNEL_OPS].inc(counters.ops)
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
        event = TransferEvent("write_buffer", buffer.name or "buffer",
                              (buffer, offset_bytes, nbytes, WRITE))
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
        global-memory bandwidth (read + write, ``copy_time_ns``), never
        the PCIe link — it counts into ``total_transfer_*`` but not
        ``total_pcie_*``.
        """
        if src.device is not self.device or dst.device is not self.device:
            raise InvalidValue("copy_buffer requires both buffers on this queue's device")
        dst.copy_from(src, nbytes, src_offset_bytes, dst_offset_bytes)
        if src.sampled:
            dst.sampled = True
        elif dst_offset_bytes == 0 and nbytes >= dst.nbytes:
            dst.sampled = False  # fully overwritten with whole data
        duration = copy_time_ns(self.device.spec, nbytes)
        event = TransferEvent("copy_buffer", dst.name or "buffer",
                              (src, src_offset_bytes, nbytes, READ),
                              (dst, dst_offset_bytes, nbytes, WRITE))
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
        event = TransferEvent("read_buffer", buffer.name or "buffer",
                              (buffer, offset_bytes, data.nbytes, READ))
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
        return f"<CommandQueue on {self.device.name} horizon={self._horizon}ns>"


# -- sibling launches ------------------------------------------------------------

#: Run ids: ``event.info["run"]`` is shared by the launches one lockstep
#: run executed.
_run_ids = itertools.count(1)


class LaunchPlan:
    """What a launch of a bound kernel derives from its *shape*, once:
    the validated NDRange, the work-groups a sampled launch executes
    (``selected``: :meth:`NDRange.sample_groups`, None for every group),
    the scalar arguments converted to their parameter types, the pointer
    slots and — kept by the first launch that records it — the resolved
    access set (``kernel_buffer_accesses``).  :meth:`bind` makes a
    kernel launching this shape with other buffers of the same sizes on
    the same device: launched from this plan, it derives none of it
    again — what a skeleton's launch recipe keeps per launch.  A plan
    holds no buffer."""

    def __init__(self, kernel: Kernel, global_size, local_size,
                 sample_fraction: Optional[float], device: Device):
        self.program, self.compiled, self.resolved = kernel.program, kernel.compiled, None
        self.ndrange = NDRange.create(global_size, local_size, device.max_work_group_size)
        self.selected = None if sample_fraction is None \
            else self.ndrange.sample_groups(sample_fraction)
        self.values, self.pointers = kernel.marshal(device)
        self.args = [None if v is None else arg for arg, v in zip(kernel._args, self.values)]

    def bind(self, buffers: Sequence[Buffer]) -> Kernel:
        """A kernel of this plan with ``buffers`` in its pointer slots, in
        order."""
        kernel = Kernel(self.program, self.compiled)
        kernel._args = list(self.args)
        for (index, _, _), buffer in zip(self.pointers, buffers):
            kernel._args[index] = buffer
        return kernel


class _Sibling:
    """One launch as it executes: its kernel and plan, and its arguments
    marshaled onto counters of its own."""

    __slots__ = ("queue", "plan", "kernel", "wait_list", "counters", "args")

    def __init__(self, queue: CommandQueue, plan: LaunchPlan, kernel: Kernel,
                 wait_list: Optional[Sequence[Event]]):
        self.queue, self.plan, self.kernel, self.wait_list = queue, plan, kernel, wait_list
        self.counters = counters = ExecutionCounters()
        # The pointers created here report memory traffic into
        # `counters.memory`, and the engine charges ops to the same
        # object, so sampling scales both consistently.
        args = self.args = list(plan.values)
        for index, pointee, space in plan.pointers:
            pointer = args[index] = kernel._args[index].pointer(pointee, counters.memory)
            pointer.address_space = space


def execute_ndrange(kernel: CompiledKernel, ndrange: NDRange, args: Sequence[Sequence],
                    selected: Optional[Tuple[tuple, ...]],
                    counters: Sequence[ExecutionCounters],
                    metrics=None) -> Iterator[ExecutionCounters]:
    """Execute ``kernel`` over the ``selected`` work-groups of ``ndrange``
    (a plan's selection; None for every group) for each of its *sibling*
    launches — ``args`` holds one argument list per sibling, ``counters``
    one ``ExecutionCounters`` each (a single launch is a list of one) —
    as one lockstep run (:func:`vectorize.execute`), before this returns.

    Each sibling's charges land unscaled in its ``counters`` entry, the
    object its argument pointers report their memory traffic to.  The
    returned iterator yields each entry, in order, once the sibling's
    rows of the run's arenas are back in its buffers.  Should the run
    raise, it has left every buffer and counter of several siblings
    untouched, so the caller can replay them as runs of one instead.
    ``metrics`` (a registry, or the queue's handles to one) is told how
    the kernel's lockstep plan came to be, the launch it is made on.
    The one call site is :class:`_SiblingRun`."""
    write_back = vectorize.execute(kernel, vectorize.plan_for(kernel, metrics), ndrange,
                                   selected, args, counters, metrics)
    return iter(counters) if write_back is None else _written_back(write_back, counters)


def _written_back(write_back, counters: Sequence[ExecutionCounters]
                  ) -> Iterator[ExecutionCounters]:
    for sibling, counter in enumerate(counters):
        write_back(sibling)
        yield counter


class _SiblingRun:
    """The launches (``members``) that execute together, in one
    ``execute_ndrange`` call — a lone launch is a run of one — with the
    reason when one runs alone beside siblings.  Once executed,
    ``results`` iterates over each member with its run id and counters,
    in order."""

    __slots__ = ("members", "alone", "results")

    def __init__(self, members: List[_Sibling], alone: Optional[str] = None):
        self.members, self.alone, self.results = members, alone, None

    def record_next(self) -> Event:
        """Record the next member's event (``_record_kernel``), executing
        the run first if this is its first member."""
        if self.results is None:
            self.results = self._execute()
        member, run, counters = next(self.results)
        return member.queue._record_kernel(member.kernel, member.plan, counters, run,
                                           member.wait_list)

    def _execute(self) -> Iterator[tuple]:
        members, first = self.members, self.members[0].plan
        series = self.members[0].queue._series
        if self.alone is not None:
            _count_run(series, "separate", self.alone)
        try:
            results = execute_ndrange(
                first.compiled, first.ndrange, [member.args for member in members],
                first.selected, [member.counters for member in members],
                metrics=series)
        except Exception:
            if len(members) == 1:
                raise
            # Replayed as runs of one, each at its turn, from the buffers
            # the run left untouched.
            return itertools.chain.from_iterable(
                _SiblingRun([member], "fault")._execute() for member in members)
        if len(members) > 1:
            _count_run(series, "merged", "equal")
        return zip(members, itertools.repeat(next(_run_ids)), results)


def _count_run(series: Optional[_Series], result: str, reason: str) -> None:
    if series is not None:
        series[_SIBLING_RUNS, result, reason].inc()


def _shape(plan: LaunchPlan, kernel: Kernel) -> Tuple[Optional[tuple], Optional[str]]:
    """What the launches of one run have equal — kernel, NDRange, the
    sizes of the buffers bound and the scalar arguments — or, for a
    launch that runs alone, why."""
    ndrange = plan.ndrange
    if plan.selected is not None:
        return None, "sampled"
    if 2 * ndrange.total_work_items > RUN_MAX_LANES:
        return None, "lanes"  # no sibling fits beside it
    buffers = [kernel._args[index] for index, _, _ in plan.pointers]
    if len({buffer.uid for buffer in buffers}) < len(buffers):
        return None, "aliased"  # an arena per argument would split the buffer
    return (id(plan.compiled), ndrange.global_size, ndrange.local_size,
            tuple(buffer.nbytes for buffer in buffers),
            tuple(value if type(value) is int else repr(value)  # -0.0, nan
                  for value in plan.values if value is not None)), None


class SiblingPlan:
    """The plan of *sibling* launches — a skeleton call's launches of one
    kernel on different devices — made once and enqueued again on new
    buffers.  ``launches`` lists ``(device index, bound kernel,
    global_size, local_size)`` on ``devices``.

    Launches on different devices whose NDRange, buffer sizes and scalar
    arguments are equal, none sampled and none binding one buffer twice,
    execute together, up to ``RUN_MAX_LANES`` lanes in all: one
    ``execute_ndrange`` call, one lockstep run over the union of their
    lanes.  Which launches share a run, and why one runs alone, is
    derived here, once (``runs``): a run of one launch beside siblings
    knows why it is alone — the launch's own reason, else "lanes" when
    another launch has its shape, "scalars" when one has its NDRange and
    buffer sizes, else "sizes"."""

    def __init__(self, devices: Sequence[Device], launches: Sequence[tuple],
                 sample_fraction: Optional[float] = None):
        self.devices = [index for index, *_ in launches]
        self.plans = [LaunchPlan(kernel, global_size, local_size, sample_fraction,
                                 devices[index])
                      for index, kernel, global_size, local_size in launches]
        shapes = [_shape(plan, kernel) for plan, (_, kernel, *_) in zip(self.plans, launches)]
        members: List[List[int]] = []  # per run, its launches' devices
        run_of: List[int] = []
        open_runs: Dict[tuple, int] = {}
        for device, plan, (shape, reason) in zip(self.devices, self.plans, shapes):
            run = None if reason else open_runs.get(shape)
            if run is None or device in members[run] \
                    or plan.ndrange.total_work_items * (len(members[run]) + 1) > RUN_MAX_LANES:
                run = len(members)
                members.append([])
                if reason is None:
                    open_runs[shape] = run
            members[run].append(device)
            run_of.append(run)
        self.runs: List[Tuple[int, Optional[str]]] = []  # per launch: (run, alone)
        for index, (run, (shape, reason)) in enumerate(zip(run_of, shapes)):
            if len(members[run]) > 1 or len(launches) == 1:
                reason = None  # it has siblings in its run, or none at all
            elif reason is None:
                others = [other for at, (other, _) in enumerate(shapes) if at != index and other]
                reason = "lanes" if shape in others else "scalars" \
                    if any(other[:4] == shape[:4] for other in others) else "sizes"
            self.runs.append((run, reason))

    def enqueue(self, queues: Sequence[CommandQueue], buffers: Sequence[Sequence[Buffer]],
                wait_lists: Sequence[Optional[Sequence[Event]]]) -> Iterator[Event]:
        """Launch the plans on ``queues`` with ``buffers`` in their
        pointer slots, and yield each launch's event, in order, as
        :meth:`CommandQueue.enqueue_nd_range_kernel` returns it.  Every
        launch executes in a run — a plan of one launch in a run of one,
        as a user's launch does.  The events of a run are still
        recorded one launch at a time, in order, each once the launch's
        results are in its buffers: events, modeled time and race
        accesses are per device as with sequential launches, and a
        recording that raises (a strict ``RaceError``) leaves the later
        launches' buffers untouched.  A run that raises is replayed as
        runs of one, each at its turn, so a fault is raised by the
        launch that faults, after the launches before it were recorded.

        ``event.info["run"]`` names the run a launch executed in, and
        ``skelcl_sibling_runs_total{result, reason}`` counts each run of
        sibling launches (``docs/observability.md``)."""
        runs: Dict[int, _SiblingRun] = {}
        for queue, plan, bound, wait_list, (index, alone) in zip(
                queues, self.plans, buffers, wait_lists, self.runs):
            sibling = _Sibling(queue, plan, plan.bind(bound), wait_list)
            runs.setdefault(index, _SiblingRun([], alone)).members.append(sibling)
        for index, _ in self.runs:
            yield runs[index].record_next()
