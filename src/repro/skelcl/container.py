"""Container coherence: the implicit host↔device memory management.

The paper's §3.1: containers are "transparently accessible by both, host
and devices".  This module implements the lazy coherence protocol behind
that transparency:

* host reads after device computation trigger an implicit download;
* device use after host writes triggers an implicit upload;
* changing the distribution of device-resident data triggers the
  download/re-upload exchange the paper describes (§3.2) — all through
  the simulated command queues, so every implicit copy is accounted for
  in transfer time and bytes.

Every implicit command is issued asynchronously with an explicit wait
list: the container tracks, per device chunk, the events that gate the
validity of that chunk's buffer (`chunk_events`), and the events that
produced the current host copy.  Redistribution and halo exchange
therefore become dependency *edges* in the command graph — a halo
upload waits only on the neighbour's download, a kernel launch waits
only on the uploads it actually reads — instead of implicit whole-queue
synchronizations.

Ownership: a container keeps, next to its buffers, the
:class:`~repro.skelcl.runtime.Session` that staged them — handed over
by the skeleton call (or planner step) that stages it — and every later
download, redistribution and re-upload goes through that session.
Using the container under *another* session is defined
(:meth:`Container._move_to`): a valid host copy restages there and the
foreign buffers are dropped; a stale one is first downloaded through
the owning session; if that session is already closed the device-only
result is lost and a :class:`SkelCLError` says so.

The split: a distribution names a placement, the session's
``partition`` sizes it.  A staged container remembers, next to its
chunks, the partition they were made under (``_split``), and one rule
(:meth:`Container._is_current`) says whether what is staged still is
what a distribution means: labelled that distribution *and* made under
its session's current partition.  A partition that changed (adaptive
re-size, ``rebalance()``, assignment) — like a changed label — restages
the container at its next use through :meth:`Container._redistribute`;
a container arriving from another session has no device copy left and
is blocked by the adopting session's split.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import ocl
from ..plan.ir import Produced
from .distribution import Block, Chunk, Distribution
from .partition import Partition
from .runtime import Session, SkelCLError, get_runtime
from .types_ import ctype_for_dtype


class Container(Produced):
    """Base of :class:`Vector` and :class:`Matrix`.

    Subclasses define the *unit*: the granularity of distribution
    (elements for vectors, rows for matrices).  ``_units`` is the number
    of units; ``_unit_elements`` the flat elements per unit.
    """

    def __init__(self, host: np.ndarray, units: int, unit_elements: int, name: str = ""):
        self._host = host  # flat, C-contiguous
        self._units = units
        self._unit_elements = unit_elements
        self.name = name
        self._host_valid = True
        self._device_valid = False
        self._distribution: Optional[Distribution] = None
        self._chunks: List[Chunk] = []
        # The session partition `_chunks` were made under; None: no chunks.
        self._split: Optional[Partition] = None
        self._buffers: Dict[int, ocl.Buffer] = {}  # keyed by chunk position
        # The session whose devices hold `_buffers`; None until staged.
        self._session: Optional[Session] = None
        # Dependency tracking for the asynchronous command graph: per
        # chunk position, the events that must complete before the
        # chunk's buffer holds valid data (uploads, halo writes, kernel
        # writes); the commands currently *reading* the chunk (a later
        # writer must wait for them — WAR edges); plus the downloads
        # that produced the host copy.
        self._chunk_events: Dict[int, List[ocl.Event]] = {}
        self._chunk_readers: Dict[int, List[ocl.Event]] = {}
        self._host_events: List[ocl.Event] = []
        self.element_ctype = ctype_for_dtype(host.dtype)
        # The recorded calls still to read this container (see
        # repro.plan.ir.Produced): forced before any in-place mutation,
        # so they still observe the pre-mutation values.
        self._pending_readers: List = []

    # -- public state -------------------------------------------------------

    @property
    def dtype(self) -> np.dtype:
        return self._host.dtype

    @property
    def distribution(self) -> Optional[Distribution]:
        """Where the contents live — of a deferred result, a force point
        (its placement is decided when the producing call runs)."""
        self._force_pending()
        return self._distribution

    @property
    def is_on_devices(self) -> bool:
        return self._device_valid

    def default_distribution(self) -> Distribution:
        return Block()

    # -- coherence ------------------------------------------------------------

    def _itembytes(self) -> int:
        return self._host.dtype.itemsize

    def _unit_slice(self, start: int, end: int) -> slice:
        return slice(start * self._unit_elements, end * self._unit_elements)

    def chunk_events(self, position: int) -> List[ocl.Event]:
        """The events gating the validity of chunk ``position``'s buffer
        — what a kernel reading the chunk must put in its wait list."""
        return list(self._chunk_events.get(position, []))

    def chunk_write_events(self, position: int) -> List[ocl.Event]:
        """What a command *writing* chunk ``position`` must wait for:
        the producers of the current contents (WAW) plus every command
        still reading them (WAR)."""
        return list(self._chunk_events.get(position, [])) + \
            list(self._chunk_readers.get(position, []))

    def record_chunk_event(self, position: int, event: ocl.Event) -> None:
        """A command (typically a kernel launch) produced chunk
        ``position``'s contents; later consumers wait on it.  The event
        replaces the previous gate — launches are expected to carry the
        prior chunk (write) events in their own wait lists, which also
        discharges the recorded readers."""
        self._chunk_events[position] = [event]
        self._chunk_readers.pop(position, None)

    def record_chunk_reader(self, position: int, event: ocl.Event) -> None:
        """A command reads chunk ``position``; a later writer of the
        chunk must order itself after it."""
        self._chunk_readers.setdefault(position, []).append(event)

    def ensure_host(self) -> None:
        """Make the host copy up to date (implicit download)."""
        self._force_pending()
        if self._host_valid:
            return
        if not self._device_valid:
            raise SkelCLError("container has neither valid host nor device data")
        runtime = self._session
        if runtime.closed:
            raise SkelCLError(
                f"{self.name or self!r} lives only on the devices of a session "
                "that was closed before the result was read"
            )
        seen_units: set = set()
        downloads: List[ocl.Event] = []
        for position, chunk in enumerate(self._chunks):
            if chunk.owned_size == 0:
                continue
            key = (chunk.owned_start, chunk.owned_end)
            if key in seen_units and self._distribution is not None and self._distribution.kind == "copy":
                continue  # copy distribution: one download suffices
            seen_units.add(key)
            queue = runtime.queue(chunk.device_index)
            offset_units = chunk.owned_start - chunk.stored_start
            offset_bytes = offset_units * self._unit_elements * self._itembytes()
            count = chunk.owned_size * self._unit_elements
            data, event = queue.enqueue_read_buffer(
                self._buffers[position], self._host.dtype, count, offset_bytes,
                event_wait_list=self.chunk_events(position),
            )
            self.record_chunk_reader(position, event)
            downloads.append(event)
            self._host[self._unit_slice(chunk.owned_start, chunk.owned_end)] = data
            if self._distribution is not None and self._distribution.kind == "copy":
                break  # all devices hold the same data
        self._host_events = downloads
        self._host_valid = True

    def _host_for_write(self, whole: bool = False) -> np.ndarray:
        """The up-to-date host copy, for the host write the caller does
        next (of the ``whole`` content, or part of it): a force point
        (:meth:`_before_write`), and the device copies are stale."""
        self._before_write(whole)
        self.ensure_host()
        self._device_valid = False
        return self._host

    def mark_written_on_devices(self) -> None:
        """A kernel wrote this container: host copy is stale."""
        self._device_valid = True
        self._host_valid = False

    def _produced(self, ok: bool) -> None:
        """The call filling this container ended (``PlanNode.finish``):
        its kernels wrote it — or it failed, and what the devices hold
        is nobody's result: dropped, the host placeholder stands in."""
        if ok:
            self.mark_written_on_devices()
        else:
            self._drop_buffers()
            self._host_valid, self._device_valid = True, False

    def _move_to(self, session: Session) -> None:
        """Make ``session`` the one holding the device copy.  Buffers of
        another session are dropped — after a stale host copy has been
        refreshed through that session, which must still be open — and
        the container restages here from the host."""
        if self._session is session:
            return
        if self._device_valid:
            self.ensure_host()
            self._device_valid = False
        self._drop_buffers()
        self._session = session

    def _redistribute(self, target: Distribution) -> None:
        """Adopt ``target``, moving live device data the cheapest way
        that applies (stale buffers are simply dropped):

        1. *relabel* — the target's chunks store ranges the same devices
           already hold (any change on one GPU, block ↔ overlap(0),
           copy → block, overlap → block): only the ownership
           bookkeeping changes, as in real SkelCL;
        2. *halo refresh* — same owned ranges, larger stored ranges
           (block → overlap(d)): see :meth:`_refresh_halos`;
        3. the download / re-upload exchange of §3.2."""
        live = self._device_valid
        if live:
            split = self._session.partition
            new_chunks = target.chunks(self._units, split)
            pairs = list(zip(self._chunks, new_chunks))
            if len(self._chunks) == len(new_chunks) and all(
                    old.device_index == new.device_index for old, new in pairs):
                if all(old.stored_start <= new.stored_start
                       and new.stored_end <= old.stored_end for old, new in pairs):
                    # Keep the buffers: the chunks record their actual
                    # (possibly larger) stored layout under the new ownership.
                    self._chunks = [
                        Chunk(new.device_index, new.owned_start, new.owned_end,
                              old.stored_start, old.stored_end)
                        for old, new in pairs
                    ]
                    self._distribution, self._split = target, split
                    return
                if all((old.owned_start, old.owned_end) == (new.owned_start, new.owned_end)
                       and new.stored_start <= old.stored_start
                       and old.stored_end <= new.stored_end for old, new in pairs):
                    self._refresh_halos(new_chunks)
                    self._distribution, self._split = target, split
                    return
            self.ensure_host()
        self._drop_buffers()
        self._distribution = target
        if live:
            self._upload()

    def _refresh_halos(self, new_chunks: List[Chunk]) -> None:
        """Grow per-device storage in place to ``new_chunks`` (same
        owned ranges, missing halos): the owned data is copied
        device-locally and only the halo units cross the PCIe link —
        the implicit halo exchange of §3.2, without round-tripping the
        whole container through the host."""
        runtime = self._session
        unit_bytes = self._unit_elements * self._itembytes()
        new_buffers: Dict[int, ocl.Buffer] = {}
        new_events: Dict[int, List[ocl.Event]] = {}
        for position, (old, new) in enumerate(zip(self._chunks, new_chunks)):
            device = runtime.devices[new.device_index]
            queue = runtime.queue(new.device_index)
            buffer = runtime.context.create_buffer(
                max(new.stored_size, 1) * unit_bytes, device,
                name=f"{self.name or 'container'}[{position}]",
            )
            gates: List[ocl.Event] = []
            if old.stored_size > 0:
                copy_event = queue.enqueue_copy_buffer(
                    self._buffers[position],
                    buffer,
                    old.stored_size * unit_bytes,
                    0,
                    (old.stored_start - new.stored_start) * unit_bytes,
                    event_wait_list=self.chunk_events(position),
                )
                gates.append(copy_event)
            # Fetch the missing halo units from their owners: each unit
            # crosses the host link twice (owner download, consumer
            # upload), and the upload waits only on its own download —
            # halo exchanges of disjoint borders overlap freely.
            for lo, hi in ((new.stored_start, old.stored_start), (old.stored_end, new.stored_end)):
                position_in_units = lo
                while position_in_units < hi:
                    owner_position, owner = self._owner_of(position_in_units)
                    take = min(hi, owner.owned_end) - position_in_units
                    owner_queue = runtime.queue(owner.device_index)
                    data, read_event = owner_queue.enqueue_read_buffer(
                        self._buffers[owner_position],
                        self._host.dtype,
                        take * self._unit_elements,
                        (position_in_units - owner.stored_start) * unit_bytes,
                        event_wait_list=self.chunk_events(owner_position),
                    )
                    write_event = queue.enqueue_write_buffer(
                        buffer,
                        np.ascontiguousarray(data),
                        offset_bytes=(position_in_units - new.stored_start) * unit_bytes,
                        event_wait_list=[read_event],
                    )
                    gates.append(write_event)
                    position_in_units += take
            new_buffers[position] = buffer
            new_events[position] = gates
        for buffer in self._buffers.values():
            buffer.release()
        self._buffers = new_buffers
        self._chunks = new_chunks
        self._chunk_events = new_events
        self._chunk_readers = {}

    def _owner_of(self, unit: int):
        """The chunk position owning ``unit`` under the current chunks."""
        for position, chunk in enumerate(self._chunks):
            if chunk.owned_start <= unit < chunk.owned_end:
                return position, chunk
        raise SkelCLError(f"no chunk owns unit {unit}")

    def _is_current(self, distribution: Distribution) -> bool:
        """The one staleness rule: what is staged (if anything) is what
        ``distribution`` means now — the container is labelled this
        distribution *and* its chunks were made under the current
        partition of the session holding them."""
        return distribution == self._distribution and (
            self._split is None or self._split == self._session.partition)

    def set_distribution(self, distribution: Distribution) -> None:
        """Change the distribution; triggers implicit data exchange when
        device data is live (the cumbersome manual OpenCL dance of §3.2)."""
        if self._is_current(distribution):
            return
        self._before_write()
        self._redistribute(distribution)

    def ensure_on_devices(self, distribution: Optional[Distribution] = None,
                          session: Optional[Session] = None) -> List[Tuple[Chunk, ocl.Buffer]]:
        """Make device data valid on ``session`` under ``distribution``
        (or the current / default one); returns the chunk/buffer pairs
        for kernel launches.  A skeleton passes the session its call
        runs on; a direct call without one stages on the current
        session."""
        self._force_pending()
        session = session or get_runtime()
        self._move_to(session)
        target = distribution or self._distribution or self.default_distribution()
        if not self._is_current(target):
            self._redistribute(target)
        if not self._device_valid:
            self.ensure_host()
            self._upload()
        return self.chunk_buffers()

    def prepare_as_output(self, distribution: Distribution,
                          session: Session) -> List[Tuple[Chunk, ocl.Buffer]]:
        """Allocate device storage on ``session`` for the output of the
        call that is running as this container's producer (no upload;
        whatever another session still holds is overwritten, not
        fetched).  Validity is not touched: the contents become valid
        when that call finishes."""
        if (self._session is not session or not self._is_current(distribution)
                or not self._buffers):
            self._drop_buffers()
            self._session, self._distribution = session, distribution
            self._allocate_buffers()
        return self.chunk_buffers()

    def chunk_buffers(self) -> List[Tuple[Chunk, ocl.Buffer]]:
        return [(chunk, self._buffers[position]) for position, chunk in enumerate(self._chunks)]

    # -- internals ---------------------------------------------------------------

    def _allocate_buffers(self) -> None:
        runtime = self._session
        assert self._distribution is not None
        self._split = runtime.partition
        self._chunks = self._distribution.chunks(self._units, self._split)
        self._chunk_events = {}
        self._chunk_readers = {}
        buffers = {}  # all or none: a device may run out of memory midway
        for position, chunk in enumerate(self._chunks):
            nbytes = max(chunk.stored_size, 1) * self._unit_elements * self._itembytes()
            device = runtime.devices[chunk.device_index]
            buffers[position] = runtime.context.create_buffer(
                nbytes, device, name=f"{self.name or 'container'}[{position}]"
            )
        self._buffers = buffers

    def _upload(self) -> None:
        if not self._buffers:
            self._allocate_buffers()
        runtime = self._session
        uploads: Dict[int, List[ocl.Event]] = {}
        for position, chunk in enumerate(self._chunks):
            if chunk.stored_size == 0:
                continue
            queue = runtime.queue(chunk.device_index)
            data = self._host[self._unit_slice(chunk.stored_start, chunk.stored_end)]
            # Uploads to distinct devices depend only on the downloads
            # that produced the host copy, so they overlap across
            # devices' transfer engines.  Reused buffers (devices were
            # merely invalidated, not dropped) additionally need WAW/WAR
            # edges on their previous producers and readers.
            event = queue.enqueue_write_buffer(
                self._buffers[position], data,
                event_wait_list=self._host_events + self.chunk_write_events(position),
            )
            uploads[position] = [event]
        self._chunk_events = uploads
        self._chunk_readers = {}
        self._device_valid = True

    def _drop_buffers(self) -> None:
        for buffer in self._buffers.values():
            buffer.release()
        self._buffers = {}
        self._chunks, self._split = [], None
        self._chunk_events = {}
        self._chunk_readers = {}
