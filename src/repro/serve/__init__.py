"""repro.serve: a multi-tenant serving runtime on a shared device pool.

The serving layer turns one SkelCL session — one simulated context over
a mixed CPU+GPU pool — into a shared service::

    with serve.Server(devices=["tesla", "cpu-8core"]) as server:
        a = server.client("team-a", weight=2.0)
        b = server.client("team-b")
        job = a.submit(lambda: total(mult(va, vb)))     # graph job
        b.submit_map(double, np.arange(1024, dtype=np.float32))
        server.drain()
        print(job.result())

Pieces:

* :class:`Server` / :class:`ClientSession` — the shared pool and the
  per-tenant handles (:mod:`repro.serve.server`);
* :class:`Scheduler` — weighted-fair deficit round-robin over modeled
  kernel-ns, or the naive FIFO baseline; launch batching of compatible
  small map jobs (:mod:`repro.serve.scheduler`);
* :class:`Tenant` / :class:`TenantQuota` — per-tenant queues, weights,
  admission and window quotas (:mod:`repro.serve.tenant`);
* :class:`Job` and the error taxonomy (:class:`JobFailed`, :class:`Backpressure`,
  :class:`QuotaExceeded`) — :mod:`repro.serve.jobs`.

See ``docs/serving.md`` for the design rationale and the fairness /
backpressure semantics.
"""

from .jobs import Backpressure, Job, JobFailed, QuotaExceeded, ServeError
from .scheduler import POLICIES, Scheduler
from .server import ClientSession, Server
from .tenant import Tenant, TenantQuota

__all__ = [
    "Backpressure",
    "ClientSession",
    "Job",
    "JobFailed",
    "POLICIES",
    "QuotaExceeded",
    "Scheduler",
    "Server",
    "ServeError",
    "Tenant",
    "TenantQuota",
]
