"""SkelCL sessions and the current session (``SkelCL::init()`` in the paper).

A :class:`Session` owns the simulated OpenCL context (one command queue
per device) of one ``init()`` call.  *Which* session an operation runs
on has one answer per object:

* the **current session** is one context variable in this module — set
  by ``init()``, cleared when that session closes, scoped by
  ``with session.activate():`` — read through :func:`get_runtime` by the
  entry points that take no session: a skeleton call,
  ``skelcl.profile()``, and a direct ``container.ensure_on_devices()``;
* a **container** keeps the session that staged its device copy
  (:mod:`repro.skelcl.container`), the record of a call
  (:class:`repro.plan.ir.PlanNode`) the session the call was made on, a
  ``repro.serve.Server`` the session it opened.  None of them consults
  the context variable again.

The paper's global style therefore keeps working — containers and
skeletons created after ``init()`` use that session implicitly — and
scoped code can write::

    with skelcl.init(num_devices=2) as session:
        ...                       # session.devices, session.metrics
        session.finish_all()
    # terminate() ran on exit

Being a context variable, the current session is per thread (and per
``contextvars`` context): a worker thread starts with none — it
activates the session it wants, or calls ``init()`` without replacing
the main thread's — and several sessions can be driven from one thread
by alternating ``activate()`` blocks.

``terminate()`` is idempotent, and a ``Session`` closing itself only
clears the current session if it still *is* the current session (a
later ``init()`` replaces it, as before).

Every ``init()`` keyword resolves through the unified configuration
chain (:mod:`repro.settings`): explicit kwarg >
``skelcl.configure(...)`` > ``SKELCL_*`` environment variable >
default.  ``Session.settings`` exposes the values a session actually
resolved.  On teardown the session honours the SkelScope switches it
resolved: ``trace=<path>`` exports the Chrome trace of everything the
session executed, ``metrics=<path>`` the metrics snapshot JSON.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, List, Optional, Sequence, Union

from .. import ocl
from .. import settings as _settings
from .partition import AdaptivePartitioner, Partition


class SkelCLError(Exception):
    pass


class Session:
    """A SkelCL runtime usable as a context manager.

    Owns the devices/queues/context of one ``init()`` call and exposes
    the SkelScope surface: ``session.metrics`` (the context's metrics
    registry), ``session.profile()`` (a scoped profiler, see
    :mod:`repro.scope.profile`), ``session.export_trace(path)`` and
    ``session.metrics_snapshot()``.  Exiting the ``with`` block (or
    calling :meth:`close`) terminates the runtime; both are idempotent.
    """

    def __init__(self, spec: Union[ocl.DeviceSpec, Sequence[ocl.DeviceSpec]],
                 num_devices: int, detect_races=None,
                 lazy: Optional[bool] = None, partition=None):
        try:
            self.settings = _settings.resolve(
                lazy=lazy, partition=partition, sanitize=detect_races,
            )
        except ValueError as exc:
            raise SkelCLError(str(exc)) from None
        if isinstance(spec, ocl.DeviceSpec):
            specs: List[ocl.DeviceSpec] = [spec] * num_devices
        else:
            specs = [ocl.resolve_device_spec(s) for s in spec]
        self.specs = specs
        self.spec = specs[0] if specs else None
        self.num_devices = len(specs)
        self.context = ocl.Context.create(specs, detect_races=self.settings.sanitize)
        self._closed = False
        self.planner = None
        if self.settings.lazy:
            from ..plan.planner import Planner  # late: plan imports skelcl

            self.planner = Planner(self)
        self.partitioner: Optional[AdaptivePartitioner] = None
        self._install_partition_policy(self.settings.partition)

    @property
    def devices(self) -> List[ocl.Device]:
        return self.context.devices

    @property
    def queues(self) -> List[ocl.CommandQueue]:
        return self.context.queues

    def queue(self, device_index: int) -> ocl.CommandQueue:
        return self.context.queues[device_index]

    def elapsed_ns(self) -> int:
        return self.context.elapsed_ns()

    def reset_timelines(self) -> None:
        self.context.reset_timelines()

    # -- partitioning ------------------------------------------------------

    @property
    def partition(self) -> Partition:
        """The split of this session's devices — the only place one
        lives: every Block/Overlap container is sized by it where it is
        staged, and restaged at its next use after it changed
        (:mod:`repro.skelcl.container`).  The even split unless a policy
        (``init(partition=...)``), the adaptive partitioner or an
        assignment says otherwise."""
        return self._partition

    @partition.setter
    def partition(self, partition: Partition) -> None:
        if not isinstance(partition, Partition):
            raise SkelCLError(
                f"session.partition must be a Partition, got {partition!r}")
        if partition.num_devices != self.num_devices:
            raise SkelCLError(
                f"partition has {partition.num_devices} weights for "
                f"{self.num_devices} device(s)"
            )
        self._partition = partition

    def _install_partition_policy(self, policy) -> None:
        if isinstance(policy, Partition):
            self.partition = policy
        elif isinstance(policy, AdaptivePartitioner):
            self.partitioner = policy
            self.partition = policy.partition
        elif policy is None or policy == "even":
            self.partition = Partition.even(self.num_devices)
        elif policy in ("throughput", "proportional"):
            self.partition = Partition.from_specs(self.specs).quantized()
        elif policy == "adaptive":
            self.partitioner = AdaptivePartitioner(self)
            self.partition = self.partitioner.partition
        else:
            raise SkelCLError(
                f"unknown partition policy {policy!r} (expected 'even', "
                "'throughput', 'adaptive', a Partition, or an AdaptivePartitioner)"
            )

    def _observe_partition(self) -> None:
        """Feed the adaptive partitioner after a flush; a changed
        partition takes effect on the next skeleton call, where stale
        containers restage through the command graph."""
        if self.partitioner is not None:
            self.partitioner.observe()
            self.partition = self.partitioner.partition

    def use_adaptive(self, initial="throughput",
                     threshold: Optional[float] = None) -> AdaptivePartitioner:
        """Install (or replace) an adaptive partitioner on this session.

        ``initial`` seeds the split (``"throughput"``, ``"even"``, or an
        explicit Partition); ``threshold`` overrides the imbalance
        trigger.  Returns the partitioner, whose ``repartitions`` /
        ``history`` expose the adaptation trajectory."""
        kwargs = {} if threshold is None else {"threshold": threshold}
        self.partitioner = AdaptivePartitioner(self, initial=initial, **kwargs)
        self.partition = self.partitioner.partition
        return self.partitioner

    def rebalance(self) -> bool:
        """Force an adaptive re-size from the latest measurements, even
        below the imbalance threshold.  Returns True if the partition
        changed; no-op (False) without an adaptive partitioner."""
        if self.partitioner is None:
            return False
        self._flush_plan()
        changed = self.partitioner.observe(force=True)
        self.partition = self.partitioner.partition
        return changed

    # -- lazy planning -----------------------------------------------------

    @property
    def lazy(self) -> bool:
        return self.planner is not None

    def _flush_plan(self) -> None:
        if self.planner is not None:
            self.planner.flush()
            # Lazy mode's force points are where fresh per-device kernel
            # timings appear; re-partition here so the next deferred
            # batch is sized from what the last one measured.
            self._observe_partition()

    def finish_all(self) -> int:
        """Force any deferred skeleton calls, then resolve the whole
        command graph on every queue and return the critical-path
        elapsed time (see :meth:`ocl.Context.finish_all`)."""
        self._flush_plan()
        elapsed = self.context.finish_all()
        self._observe_partition()
        return elapsed

    # -- observability -----------------------------------------------------

    @property
    def metrics(self):
        """The context's SkelScope metrics registry."""
        return self.context.metrics

    def metrics_snapshot(self) -> dict:
        self._flush_plan()
        return self.context.metrics_snapshot()

    def profile(self, *args, **kwargs):
        """``with session.profile() as prof:`` — see :func:`repro.scope.profile`."""
        from ..scope.profile import profile as _profile

        return _profile(self, *args, **kwargs)

    def export_trace(self, path: str) -> str:
        self._flush_plan()
        return self.context.export_trace(path)

    def render_timeline(self, width: int = 64) -> str:
        self._flush_plan()
        return self.context.render_timeline(width=width)

    # -- lifecycle ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @contextmanager
    def activate(self) -> Iterator["Session"]:
        """Make this the current session for the ``with`` block (and
        restore the previous one after it): skeleton calls inside run
        here, whatever ``init()`` installed."""
        token = _current.set(self)
        try:
            yield self
        finally:
            _current.reset(token)

    def close(self) -> None:
        """Terminate this session (idempotent).  If it is still the
        current session, there is none afterwards; a session replaced
        by a later ``init()`` only releases its own context."""
        if self._closed:
            return
        try:  # a deferred call may fault here, at the last force point
            self._flush_plan()
        finally:
            self._closed = True
            try:
                _dump_observability(self)
            finally:
                self.context.release()
                if _current.get() is self:
                    _current.set(None)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


#: The current session — the only place it lives.
_current: ContextVar[Optional[Session]] = ContextVar("skelcl_session", default=None)


def _dump_observability(session: Session) -> None:
    """Honour the resolved ``trace`` / ``metrics`` settings
    (``SKELCL_TRACE`` / ``SKELCL_METRICS``) at teardown."""
    trace_path = session.settings.trace
    metrics_path = session.settings.metrics
    if not trace_path and not metrics_path:
        return
    from .. import scope

    session.finish_all()
    if trace_path:
        scope.write_trace(session.context, trace_path)
    if metrics_path:
        snapshot = session.context.metrics_snapshot()
        with open(metrics_path, "w") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)


_INIT_KEYWORDS = ("num_devices", "spec", "detect_races", "lazy", "devices",
                  "partition")


def _open(num_devices: Optional[int] = None, spec: Optional[ocl.DeviceSpec] = None,
          detect_races=None, lazy: Optional[bool] = None, devices=None,
          partition=None) -> Session:
    """Validate ``init()``'s arguments and open a :class:`Session`
    without making it current — what ``init()`` and
    ``repro.serve.Server`` share."""
    if devices is not None:
        if spec is not None:
            raise SkelCLError("pass either devices= or spec=, not both")
        if num_devices is not None:
            raise SkelCLError(
                "pass either devices= (one entry per device) or "
                "num_devices=, not both"
            )
        pool: Union[ocl.DeviceSpec, Sequence] = list(devices)
        if not pool:
            raise SkelCLError("devices= needs at least one device spec or "
                              "preset name")
        try:  # resolve eagerly so typos fail before any context exists
            pool = [ocl.resolve_device_spec(entry) for entry in pool]
        except ValueError as exc:
            raise SkelCLError(str(exc)) from None
        count = len(pool)
    else:
        if num_devices is None:
            num_devices = 1
        if not isinstance(num_devices, int) or isinstance(num_devices, bool) \
                or num_devices < 1:
            raise SkelCLError(
                f"num_devices must be a positive integer, got {num_devices!r}"
            )
        if spec is None:
            pool = ocl.TESLA_T10
        else:
            try:  # accept preset names here too, validated eagerly
                pool = ocl.resolve_device_spec(spec)
            except ValueError as exc:
                raise SkelCLError(str(exc)) from None
        count = num_devices
    return Session(pool, count, detect_races=detect_races, lazy=lazy,
                   partition=partition)


def init(num_devices: Optional[int] = None, spec: Optional[ocl.DeviceSpec] = None,
         detect_races=None, lazy: Optional[bool] = None, devices=None,
         partition=None, **unexpected) -> Session:
    """Initialize SkelCL on ``num_devices`` simulated GPUs.

    Mirrors ``SkelCL::init()``: opens a :class:`Session` and makes it
    the current one, so skeleton calls made afterwards run on it.
    Calling it again replaces the current session.  The session is
    usable directly (the classic global style) or as a context manager
    that terminates on exit.

    ``devices`` builds a heterogeneous pool: a sequence of device specs
    and/or preset names (see :data:`repro.ocl.DEVICE_PRESETS`), one
    device per entry — ``skelcl.init(devices=["tesla", "cpu-8core"])``.
    It is mutually exclusive with ``num_devices``/``spec``, which keep
    their homogeneous meaning.

    ``partition`` selects how Block/Overlap distributions split data
    over the pool: ``None`` defers to ``skelcl.configure(partition=...)``,
    then ``SKELCL_PARTITION``, then the historic even split; ``"throughput"`` sizes chunks once,
    proportional to each device's modeled peak throughput;
    ``"adaptive"`` additionally re-sizes from measured per-device
    kernel time whenever the imbalance exceeds the threshold (see
    :mod:`repro.skelcl.partition`); an explicit
    :class:`~repro.skelcl.partition.Partition` pins the split.

    ``detect_races`` enables the SkelSan command-graph race detector on
    every queue (see :mod:`repro.analysis`): ``"report"`` warns,
    ``"strict"`` raises :class:`repro.analysis.RaceError` and fails
    skeleton builds whose lint pass reports an error; ``None`` defers
    to ``skelcl.configure(sanitize=...)``, then ``SKELCL_SANITIZE``.

    ``lazy`` enables the lazy skeleton planner (see :mod:`repro.plan`):
    skeleton calls defer into a plan and are fused at force time;
    ``None`` defers to ``skelcl.configure(lazy=...)``, then
    ``SKELCL_LAZY`` (default: eager).

    Every argument is validated eagerly, before any device state is
    created: unknown keyword arguments raise :class:`TypeError`, bad
    device presets / partition policies raise :class:`SkelCLError`
    listing the valid choices.
    """
    if unexpected:
        raise TypeError(
            f"init() got unexpected keyword argument(s) "
            f"{', '.join(sorted(unexpected))}; valid keywords: "
            + ", ".join(_INIT_KEYWORDS)
        )
    session = _open(num_devices, spec, detect_races, lazy, devices, partition)
    _current.set(session)
    return session


def terminate() -> None:
    """Close the current session (``SkelCL::terminate()``).  Idempotent:
    safe to call with no current session, or twice."""
    session = _current.get()
    if session is not None:
        session.close()  # clears the context variable


def get_runtime() -> Session:
    """The current session; :class:`SkelCLError` when there is none."""
    session = _current.get()
    if session is None:
        raise SkelCLError("SkelCL is not initialized; call skelcl.init() first")
    return session


def is_initialized() -> bool:
    return _current.get() is not None
