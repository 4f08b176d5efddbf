"""Serve jobs and the serve error taxonomy.

A :class:`Job` is one tenant request: either a *graph* job (a recorded
skeleton command graph, captured by the lazy planner's recording mode at
submit) or a *map* job (a structured single-skeleton call over a host
array, the batchable form).  Jobs move ``queued → running → done`` or
``→ failed`` — :meth:`Job.finish` is the one place a job ends, and a
job whose launch raised ends there too: the error is the job's outcome
(``job.error``; ``job.result()`` raises :class:`JobFailed`), not the
scheduler's.  A request the admission controller refuses never becomes
a queued job — the submit call raises :class:`Backpressure` or
:class:`QuotaExceeded` instead, and the client is expected to back off
and retry after a ``drain()``.
"""

from __future__ import annotations

from typing import List, Optional


class ServeError(Exception):
    """Base of all serving-runtime errors."""


class Backpressure(ServeError):
    """Admission rejected a submit: the tenant's queue is at its
    ``max_queue_depth``.  Back off and resubmit after a ``drain()``."""


class QuotaExceeded(ServeError):
    """Admission rejected a submit: accepting the job would exceed the
    tenant's ``max_inflight_bytes`` quota."""


class JobFailed(ServeError):
    """``job.result()`` of a job whose launch raised; chained to that
    error (also ``job.error``)."""


class Job:
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"

    __slots__ = ("id", "tenant", "kind", "label", "state", "nodes",
                 "payload", "batch_key", "value", "error", "input_bytes",
                 "arrival_ns", "start_ns", "end_ns", "cost_ns", "batched")

    def __init__(self, tenant, kind: str, *, label: Optional[str] = None):
        self.id: Optional[int] = None  # assigned at admission
        self.tenant = tenant
        self.kind = kind  # "graph" | "map"
        self.label = label
        self.state = Job.QUEUED
        self.nodes: List = []      # graph jobs: recorded PlanNodes (until finished)
        self.payload = None        # map jobs: (skeleton, array, extras) (until finished)
        self.batch_key = None      # map jobs: launch-batching key
        self.value = None          # the client-visible result
        self.error: Optional[BaseException] = None  # what a failed job's launch raised
        self.input_bytes = 0       # declared inputs (quota accounting)
        self.arrival_ns = 0        # serving clock at admission
        self.start_ns: Optional[int] = None
        self.end_ns: Optional[int] = None
        self.cost_ns = 0           # charged modeled kernel-ns
        self.batched = False       # ran as part of a fused launch

    @property
    def done(self) -> bool:
        return self.state == Job.DONE

    @property
    def latency_ns(self) -> Optional[int]:
        """Admission-to-completion time on the serving clock."""
        if self.end_ns is None:
            return None
        return self.end_ns - self.arrival_ns

    def finish(self, end_ns: int, cost_ns: int,
               error: Optional[BaseException] = None) -> None:
        """The one end of a job, ``done`` or — with the ``error`` its
        launch raised — ``failed``: its share of the launch's kernel-ns
        is recorded, its declared bytes leave the tenant's in-flight
        total, and the tenant's outcome counters move.  The job lets go
        of its recorded graph or its map input: a handle a client keeps
        holds the outcome, not the inputs and intermediates."""
        tenant = self.tenant
        self.end_ns, self.cost_ns, self.error = end_ns, cost_ns, error
        self.nodes, self.payload = [], None
        tenant.inflight_bytes -= self.input_bytes
        if error is None:
            self.state, outcome = Job.DONE, "completed"
            tenant.jobs_completed += 1
            tenant.metrics.histogram("skelcl_serve_latency_ns",
                                     tenant=tenant.name).observe(self.latency_ns)
        else:
            self.state, outcome = Job.FAILED, "failed"
            tenant.jobs_failed += 1
        tenant.metrics.counter("skelcl_serve_jobs_total",
                               tenant=tenant.name, outcome=outcome).inc()

    def result(self):
        """The job's result (a graph job's submit-callable return value,
        or a map job's output array).  Only available once the scheduler
        has run the job — call ``server.drain()`` first; a failed job
        raises :class:`JobFailed` from its error."""
        if self.state == Job.FAILED:
            raise JobFailed(f"job #{self.id} ({self.label or self.kind}) failed: "
                            f"{self.error}") from self.error
        if self.state != Job.DONE:
            raise ServeError(
                f"job #{self.id} ({self.label or self.kind}) is {self.state}; "
                "results are available after server.drain()"
            )
        return self.value

    def __repr__(self) -> str:
        return (f"<Job #{self.id} {self.kind} tenant={self.tenant.name!r} "
                f"{self.state}>")
