"""Contexts: a set of devices with their queues, buffers and programs."""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Sequence, Union

from ..analysis.races import RaceDetector, SanitizeMode, resolve_sanitize_mode
from ..scope.metrics import MetricsRegistry
from . import hostmem
from .buffer import Buffer
from .device import Device, Platform
from .errors import InvalidValue
from .program import Program
from .queue import CommandQueue
from .spec import DeviceSpec


class Context:
    def __init__(self, devices: Union[Platform, Sequence[Device]], detect_races=None):
        """``detect_races`` arms the SkelSan race detector on every queue
        of this context: ``"report"`` warns on unordered conflicting
        commands, ``"strict"`` raises :class:`repro.analysis.RaceError`
        at the racy enqueue.  ``None`` (the default) defers to the
        ``SKELCL_SANITIZE`` environment variable, so existing code is
        checked transparently when the switch is set."""
        if isinstance(devices, Platform):
            self.devices: List[Device] = list(devices.devices)
        else:
            self.devices = list(devices)
        if not self.devices:
            raise InvalidValue("a context needs at least one device")
        # Everything that simulates devices builds a context first: the
        # one place the process-wide host allocator policy is applied.
        hostmem.keep_heap_mapped()
        self.queues: List[CommandQueue] = [CommandQueue(device) for device in self.devices]
        # Weak: a buffer nothing else refers to is garbage, and its
        # ``__del__`` returns its bytes to the device.
        self._buffers: "weakref.WeakSet[Buffer]" = weakref.WeakSet()
        # SkelScope metrics: one registry per context, shared by all
        # queues (commands counted at enqueue; timeline gauges derived
        # at snapshot time).
        self.metrics = MetricsRegistry()
        for queue in self.queues:
            queue._metrics = self.metrics
        #: The SkelSan mode this context resolved; its programs' too.
        self.sanitize = mode = resolve_sanitize_mode(detect_races)
        self.race_detector: Optional[RaceDetector] = None
        if mode is not SanitizeMode.OFF:
            # One detector shared by all queues: the command graph spans
            # devices (cross-queue wait lists), so must the analysis.
            self.race_detector = RaceDetector(mode)
            for queue in self.queues:
                queue._sanitizer = self.race_detector

    @staticmethod
    def create(spec: Union[DeviceSpec, Sequence[DeviceSpec]], num_devices: int = 1,
               detect_races=None) -> "Context":
        """A context over ``num_devices`` copies of ``spec``, or — when
        ``spec`` is a sequence — one device per listed spec (a mixed
        CPU+GPU pool; ``num_devices`` is then ignored)."""
        return Context(Platform(spec, num_devices), detect_races=detect_races)

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    def queue_for(self, device: Device) -> CommandQueue:
        for queue, candidate in zip(self.queues, self.devices):
            if candidate is device:
                return queue
        raise InvalidValue(f"device {device.name} is not part of this context")

    def create_buffer(self, nbytes: int, device: Optional[Device] = None, name: str = "") -> Buffer:
        target = device if device is not None else self.devices[0]
        buffer = Buffer(target, nbytes, name)
        if self.race_detector is not None:
            buffer._on_collect = self.race_detector.forget_buffer
        self._buffers.add(buffer)
        return buffer

    def create_program(self, source: str, name: str = "<kernel>",
                       defines: Optional[Dict[str, str]] = None) -> Program:
        return Program(source, name, defines, metrics=self.metrics,
                       sanitize=self.sanitize)

    # -- simulated wall-clock ---------------------------------------------

    def elapsed_ns(self) -> int:
        """Simulated wall-clock (cf. ``clFinish`` on every queue): the
        critical-path elapsed time — devices run concurrently, so the
        latest completion timestamp over all devices' engines, with
        overlapped commands counted once."""
        return max(queue.time_ns for queue in self.queues)

    # Every command is on its timeline once enqueued: finishing them all
    # is reading the clock.
    finish_all = elapsed_ns

    def reset_timelines(self) -> None:
        for queue in self.queues:
            queue.reset_timeline()
        # The metrics registry covers the same window as the timelines:
        # stale transfer/PCIe byte totals from a previous iteration
        # would silently accumulate into the next one's report.
        self.metrics.reset()
        if self.race_detector is not None:
            # Stale graph state would let pre-reset accesses race with
            # post-reset commands that legitimately reuse the buffers.
            self.race_detector.reset()

    def check_races(self):
        """The races recorded so far (empty when detection is off)."""
        if self.race_detector is None:
            return []
        return list(self.race_detector.races)

    # -- observability (SkelScope) ----------------------------------------

    def metrics_snapshot(self) -> dict:
        """Derive the timeline gauges (engine busy/idle, occupancy,
        critical path, per-skeleton kernel time) and return the
        registry's JSON-serializable snapshot."""
        from ..scope.metrics import derive_timeline_metrics

        derive_timeline_metrics(self)
        return self.metrics.snapshot()

    def trace_events(self) -> list:
        """The Chrome trace-event list for the command graph
        (see :mod:`repro.scope.trace`)."""
        from ..scope.trace import trace_events

        return trace_events(self)

    def export_trace(self, path: str) -> str:
        """Write the Perfetto-loadable Chrome trace JSON to ``path``."""
        from ..scope.trace import write_trace

        return write_trace(self, path)

    def render_timeline(self, width: int = 64) -> str:
        """ASCII per-device-engine timeline of the command graph."""
        from ..scope.timeline import render_timeline

        return render_timeline(self, width=width)

    def release(self) -> None:
        for buffer in list(self._buffers):
            buffer.release()
        self._buffers.clear()

    def __repr__(self) -> str:
        return f"<Context devices={[d.name for d in self.devices]}>"
