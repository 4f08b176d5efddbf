"""The serving runtime: one shared device pool, many tenants.

A :class:`Server` opens — and owns, until :meth:`Server.close` — a
single lazy :class:`~repro.skelcl.runtime.Session` over a (possibly
mixed CPU+GPU) device pool.  Tenants open lightweight
:class:`ClientSession` handles and submit work in one of two forms:

* ``submit(fn)`` — *graph* jobs: ``fn`` runs inside a planner recording
  window, so every skeleton call it makes (including Reduce) defers into
  a captured command graph that executes only when the scheduler
  dispatches the job;
* ``submit_map(skeleton, array)`` — *map* jobs: a structured
  one-skeleton call over a host array.  Small compatible map jobs from
  the same tenant are fused into one launch (see
  :mod:`repro.serve.scheduler`).

Admission control is synchronous: a submit either returns an accepted
:class:`~repro.serve.jobs.Job` or raises
:class:`~repro.serve.jobs.Backpressure` (queue depth) /
:class:`~repro.serve.jobs.QuotaExceeded` (in-flight bytes).  Accepted
jobs wait in per-tenant FIFO queues until :meth:`Server.drain` runs the
scheduler.

Time: the *serving clock* is the simulated device timeline
(``context.elapsed_ns()``) plus accumulated idle time — fast-forwards
past window-quota stalls when no tenant may dispatch.  Job latency
(admission → completion on this clock) therefore includes queueing
delay, which is what the saturation benchmark measures.

The server's session is *not* the current session of the code that
created the server: it is activated only while a submitted ``fn`` runs
and while the scheduler dispatches a launch, so client code reaches the
shared pool through ``submit`` / ``submit_map`` and nowhere else.
Creating, draining or closing a server leaves the caller's own
``skelcl.init()`` session current and untouched, several servers can be
open at once, and results stay readable until the server closes (their
containers keep the server's session).  SkelSan — when enabled via the
usual configuration chain — checks the *interleaved* multi-tenant
command graph for races.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..skelcl import runtime as _runtime
from ..skelcl.vector import Vector
from .jobs import Backpressure, Job, QuotaExceeded, ServeError
from .scheduler import Scheduler
from .tenant import Tenant, TenantQuota


class ClientSession:
    """A tenant's handle on the server: submit jobs, read results.

    Lightweight by design — no device state, no queues of its own; just
    the tenant identity plus the submit entry points.  Closing it
    detaches the tenant (pending jobs still drain)."""

    def __init__(self, server: "Server", tenant: Tenant):
        self._server = server
        self._tenant = tenant
        self._closed = False

    @property
    def name(self) -> str:
        return self._tenant.name

    @property
    def weight(self) -> float:
        return self._tenant.weight

    @property
    def quota(self) -> TenantQuota:
        return self._tenant.quota

    def submit(self, fn, *, label: Optional[str] = None) -> Job:
        """Record ``fn``'s skeleton calls as one graph job.  ``fn`` runs
        *now* (inside a recording window — every skeleton call defers);
        its return value becomes ``job.result()`` once the job runs."""
        self._check_open()
        return self._server._submit_graph(self._tenant, fn, label=label)

    def submit_map(self, skeleton, data, extra_args: Sequence = (), *,
                   label: Optional[str] = None) -> Job:
        """Submit one elementwise ``skeleton`` application over host
        array ``data`` — the batchable job form."""
        self._check_open()
        return self._server._submit_map(self._tenant, skeleton, data,
                                        tuple(extra_args), label=label)

    def _check_open(self) -> None:
        if self._closed:
            raise ServeError(f"client session {self.name!r} is closed")

    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "ClientSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return f"<ClientSession {self.name!r} weight={self.weight}>"


class Server:
    """A multi-tenant serving runtime on a shared device pool."""

    def __init__(self, devices: Sequence = ("test",), *,
                 policy: str = "drr", quantum_ns: int = 1_000_000,
                 default_quota: Optional[TenantQuota] = None,
                 batching: bool = True, batch_max_elements: int = 1 << 16,
                 batch_max_jobs: int = 8, detect_races=None, partition=None):
        # The scheduler validates its arguments first: a rejected
        # policy must not leave an open session behind.
        self.scheduler = Scheduler(self, policy, quantum_ns=quantum_ns,
                                   batching=batching,
                                   batch_max_elements=batch_max_elements,
                                   batch_max_jobs=batch_max_jobs)
        self.session = _runtime._open(devices=list(devices), lazy=True,
                                      detect_races=detect_races, partition=partition)
        self.tenants: Dict[str, Tenant] = {}
        self.default_quota = default_quota
        self._idle_ns = 0
        self._next_job_id = 0
        self._closed = False

    # -- the serving clock -------------------------------------------------

    @property
    def now_ns(self) -> int:
        """The serving clock: device timeline + accumulated idle time."""
        return self.session.context.elapsed_ns() + self._idle_ns

    def advance_clock(self, ns: int) -> None:
        """Model idle wall-clock between request waves (load generators
        use this to shape the offered-load interarrival times)."""
        if ns < 0:
            raise ServeError("cannot advance the clock backwards")
        self._idle_ns += ns

    def fast_forward_to(self, target_ns: int) -> None:
        """Jump the serving clock forward to ``target_ns`` (no-op if the
        clock is already past it)."""
        gap = target_ns - self.now_ns
        if gap > 0:
            self._idle_ns += gap
            self.metrics.counter("skelcl_serve_idle_ns_total").inc(gap)

    # -- tenants -----------------------------------------------------------

    @property
    def metrics(self):
        return self.session.metrics

    @property
    def planner(self):
        return self.session.planner

    def client(self, name: str, *, weight: float = 1.0,
               quota: Optional[TenantQuota] = None) -> ClientSession:
        """Open a tenant session.  ``weight`` scales the tenant's share
        of device time under the weighted-fair policy; ``quota`` falls
        back to the server's ``default_quota``."""
        self._check_open()
        if name in self.tenants:
            raise ServeError(f"tenant {name!r} already exists")
        tenant = Tenant(name, index=len(self.tenants), weight=weight,
                        quota=quota if quota is not None else self.default_quota,
                        metrics=self.metrics)
        self.tenants[name] = tenant
        return ClientSession(self, tenant)

    # -- admission ---------------------------------------------------------

    def _reject(self, tenant: Tenant, reason: str) -> None:
        tenant.jobs_rejected += 1
        self.metrics.counter("skelcl_serve_jobs_total",
                             tenant=tenant.name, outcome="rejected").inc()
        if reason == "depth":
            raise Backpressure(
                f"tenant {tenant.name!r} queue is full "
                f"({tenant.quota.max_queue_depth} jobs); back off and "
                "resubmit after drain()"
            )
        raise QuotaExceeded(
            f"tenant {tenant.name!r} would exceed its in-flight byte "
            f"quota ({tenant.quota.max_inflight_bytes} bytes)"
        )

    def _admission_check(self, tenant: Tenant, input_bytes: int) -> None:
        if len(tenant.queue) >= tenant.quota.max_queue_depth:
            self._reject(tenant, "depth")
        cap = tenant.quota.max_inflight_bytes
        if cap is not None and tenant.inflight_bytes + input_bytes > cap:
            self._reject(tenant, "bytes")

    def _admit(self, tenant: Tenant, job: Job) -> Job:
        self._admission_check(tenant, job.input_bytes)
        job.id = self._next_job_id
        self._next_job_id += 1
        job.arrival_ns = self.now_ns
        tenant.queue.append(job)
        tenant.inflight_bytes += job.input_bytes
        tenant.jobs_submitted += 1
        self.metrics.counter("skelcl_serve_jobs_total",
                             tenant=tenant.name, outcome="accepted").inc()
        self.metrics.gauge("skelcl_serve_queue_depth",
                           tenant=tenant.name).set(len(tenant.queue))
        return job

    # -- submission --------------------------------------------------------

    def _submit_graph(self, tenant: Tenant, fn, *, label: Optional[str]) -> Job:
        self._check_open()
        # Fast-fail the cheap check before running fn at all; the byte
        # quota needs the recorded graph, so it re-checks afterwards.
        self._admission_check(tenant, 0)
        job = Job(tenant, "graph", label=label)
        with self.session.activate(), self.planner.record() as nodes:
            try:
                job.value = fn()
                job.nodes = nodes
                job.input_bytes = self._graph_input_bytes(nodes)
                return self._admit(tenant, job)
            except BaseException:
                # fn raised midway, or admission refused the recorded
                # graph: nothing of it stays behind in the shared plan.
                self.planner.discard(nodes)
                raise

    @staticmethod
    def _graph_input_bytes(nodes) -> int:
        """Declared input footprint of a recorded graph: the distinct
        external input containers (not produced inside the graph)."""
        produced = {id(node.output) for node in nodes}
        seen, total = set(), 0
        for node in nodes:
            for container in node.inputs:
                if id(container) in produced or id(container) in seen:
                    continue
                seen.add(id(container))
                total += container._host.nbytes  # a recorded call's inputs are containers
        return total

    def _submit_map(self, tenant: Tenant, skeleton, data,
                    extra_args: Tuple, *, label: Optional[str]) -> Job:
        self._check_open()
        array = np.ascontiguousarray(data)
        job = Job(tenant, "map", label=label)
        job.payload = (skeleton, array, extra_args)
        # Launch-batching key: same skeleton instance, same element
        # type, same extra args → the flattened arrays can share one
        # launch and be split apart afterwards.
        job.batch_key = (id(skeleton), array.dtype.str, extra_args)
        job.input_bytes = array.nbytes
        return self._admit(tenant, job)

    # -- dispatch (called by the scheduler) --------------------------------

    def dispatch(self, tenant: Tenant, jobs: List[Job]) -> int:
        """Run one launch: a single job, or a batch of compatible map
        jobs.  Returns the measured kernel-ns cost charged to the
        tenant (the DRR currency).  A launch that raises is its jobs'
        outcome, not the scheduler's: they end ``failed`` with the
        error, the tenant pays for the kernel-ns spent up to it, and
        the scheduler goes on."""
        context = self.session.context
        # A job cannot start before it arrived on the serving clock.
        self.fast_forward_to(max(job.arrival_ns for job in jobs))
        start_ns = self.now_ns
        ns_before = self._kernel_ns()
        marks = [len(queue.events) for queue in context.queues]
        for job in jobs:
            job.state = Job.RUNNING
            job.start_ns = start_ns
        error = None
        try:
            with self.session.activate():
                if jobs[0].kind == "graph":
                    assert len(jobs) == 1
                    self.planner.flush_subset(jobs[0].nodes)
                else:
                    self._run_maps(jobs)
        except Exception as failure:
            # Kept on the jobs without the frames it was raised in (they
            # hold the launch's containers); its message names the call.
            error = failure.with_traceback(None)
            # What the failed graph had not run yet never will.
            self.planner.discard(jobs[0].nodes, error)
        # Resolve the context directly: Session.finish_all() would flush
        # *every* tenant's still-pending recorded graphs, not just this
        # launch's.
        context.finish_all()
        cost = self._kernel_ns() - ns_before
        self._tag_events(tenant, marks)
        tenant.charge(cost)
        end_ns = self.now_ns
        for job in jobs:
            job.batched = len(jobs) > 1
            job.finish(end_ns, cost // len(jobs), error)
        self.metrics.counter("skelcl_serve_tenant_ns_total",
                             tenant=tenant.name).inc(cost)
        self.metrics.gauge("skelcl_serve_queue_depth",
                           tenant=tenant.name).set(len(tenant.queue))
        if len(jobs) > 1:
            self.metrics.counter("skelcl_serve_batches_total",
                                 tenant=tenant.name).inc()
            self.metrics.counter("skelcl_serve_batched_jobs_total",
                                 tenant=tenant.name).inc(len(jobs))
        return cost

    def _kernel_ns(self) -> int:
        return sum(
            self.metrics.value("skelcl_kernel_ns_total", device=i)
            for i in range(len(self.session.devices))
        )

    def _run_maps(self, jobs: List[Job]) -> None:
        """Execute map jobs as one launch: concatenate the flattened
        inputs, run the skeleton once, split the result back out."""
        skeleton, _array, extras = jobs[0].payload
        flats = [job.payload[1].reshape(-1) for job in jobs]
        merged = Vector(data=np.concatenate(flats) if len(flats) > 1 else flats[0])
        label = jobs[0].label or f"serve:{jobs[0].tenant.name}"
        result = skeleton(merged, *extras, label=label).to_numpy()
        offset = 0
        for job, flat in zip(jobs, flats):
            job.value = result[offset:offset + flat.size] \
                .reshape(job.payload[1].shape).copy()
            offset += flat.size

    def _tag_events(self, tenant: Tenant, marks: List[int]) -> None:
        """Attribute every command this launch enqueued to the tenant —
        SkelScope renders them on per-tenant trace tracks."""
        for queue, mark in zip(self.session.context.queues, marks):
            for event in queue.events[mark:]:
                event.info["tenant"] = tenant.name
                event.info["tenant_track"] = tenant.index + 1

    # -- draining / stats --------------------------------------------------

    def drain(self) -> Dict[str, Dict[str, object]]:
        """Run the scheduler until every queue is empty; returns
        :meth:`stats`."""
        self._check_open()
        self.scheduler.drain()
        from ..scope.metrics import derive_serve_metrics

        derive_serve_metrics(self)
        return self.stats()

    def stats(self) -> Dict[str, Dict[str, object]]:
        out: Dict[str, Dict[str, object]] = {}
        for name, tenant in sorted(self.tenants.items()):
            hist = self.metrics.histogram("skelcl_serve_latency_ns",
                                          tenant=name)
            out[name] = {
                "weight": tenant.weight,
                "submitted": tenant.jobs_submitted,
                "completed": tenant.jobs_completed,
                "failed": tenant.jobs_failed,
                "rejected": tenant.jobs_rejected,
                "queued": len(tenant.queue),
                "device_ns": tenant.device_ns_total,
                "mean_latency_ns": hist.mean,
                "max_latency_ns": hist.max,
            }
        return out

    # -- lifecycle ---------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ServeError("server is closed")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.session.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
